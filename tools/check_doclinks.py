#!/usr/bin/env python
"""Documentation freshness lint: links and CLI invocations.

Docs rot in two characteristic ways — a page moves and its cross-links
dangle, or a CLI flag is renamed and every fenced example silently
stops being runnable.  This lint fails (exit 1) on both:

* **Intra-repo markdown links**: every relative ``[text](target)`` in
  the checked markdown files must point at a file or directory that
  exists (external ``http(s)``/``mailto`` targets and same-file
  ``#anchors`` are skipped).
* **Fenced CLI invocations**: every ``python -m repro ...`` line inside
  a fenced code block must name a real subcommand, and each of its
  ``--flags`` must resolve (argparse prefix rules included) against the
  *real* parser tree built by :func:`repro.cli.build_parser` — the docs
  cannot document a flag the CLI does not accept.  ``python -m
  repro.some.module`` invocations must name an importable module.

Flag *values* are not validated (examples legitimately use
placeholders like ``FILE`` or shell arithmetic); the lint is about
names existing, not about example inputs being well-formed.

Run directly or via ``make lint`` (CI runs both)::

    python tools/check_doclinks.py [file.md ...]

Defaults to every tracked ``*.md`` at the repo root plus ``docs/``.
"""

from __future__ import annotations

import argparse
import importlib.util
import re
import shlex
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: Default markdown set: user-facing pages at the root plus docs/.
DEFAULT_FILES = (
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    *sorted(p.relative_to(REPO).as_posix() for p in (REPO / "docs").glob("*.md")),
)

_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_FENCE_RE = re.compile(r"```[a-zA-Z]*\n(.*?)```", re.S)
_MODULE_RE = re.compile(r"python3? -m ([A-Za-z_][\w.]*)((?:[^\n])*)")
#: Shell constructs after which tokens no longer belong to the repro
#: invocation on the same line.
_STOP_TOKENS = {"|", "||", "&&", ";", ">", ">>", "<", "&", "#"}


def _iter_links(text: str):
    # Fenced blocks routinely contain [x](y)-ish shell/JSON fragments;
    # only prose links are checked.
    prose = _FENCE_RE.sub("", text)
    for match in _LINK_RE.finditer(prose):
        yield match.group(1)


def check_links(path: Path, text: str) -> list[str]:
    """Dangling relative links in one markdown file."""
    failures = []
    for target in _iter_links(text):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        target = target.split("#", 1)[0]
        if not target:  # pure same-file anchor
            continue
        resolved = (path.parent / target).resolve()
        if not resolved.exists():
            failures.append(f"{path.relative_to(REPO)}: broken link -> {target}")
    return failures


def _subparsers(parser: argparse.ArgumentParser):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


def _known_flags(parser: argparse.ArgumentParser) -> tuple[set[str], set[str]]:
    longs: set[str] = set()
    shorts: set[str] = set()
    for action in parser._actions:
        for opt in action.option_strings:
            (longs if opt.startswith("--") else shorts).add(opt)
    return longs, shorts


def _flag_ok(token: str, longs: set[str], shorts: set[str]) -> bool:
    name = token.split("=", 1)[0]
    if name.startswith("--"):
        if name in longs:
            return True
        # argparse accepts unambiguous prefixes.
        return len([o for o in longs if o.startswith(name)]) == 1
    return name[:2] in shorts


def _clean_tokens(rest: str) -> list[str] | None:
    """Shell-tokenize the text after ``python -m <module>``, stopping at
    shell operators; None when the line cannot be tokenized (unmatched
    quotes from a truncated example — not this lint's business)."""
    # Line continuations were already joined by the caller.
    rest = re.sub(r"\$\((?:\()?[^)]*\)?\)", "0", rest)  # $(...) / $((...))
    rest = re.sub(r"\$\{?[A-Za-z_]\w*\}?", "X", rest)  # $VAR
    try:
        tokens = shlex.split(rest, posix=True)
    except ValueError:
        return None
    out = []
    for tok in tokens:
        if tok in _STOP_TOKENS or tok.startswith("#"):
            break
        out.append(tok)
    return out


def check_cli(path: Path, text: str, parser: argparse.ArgumentParser) -> list[str]:
    """Invalid ``python -m repro[...]`` invocations in fenced blocks."""
    failures = []
    where = path.relative_to(REPO)
    commands = _subparsers(parser)
    for block in _FENCE_RE.findall(text):
        block = block.replace("\\\n", " ")
        for match in _MODULE_RE.finditer(block):
            module, rest = match.group(1), match.group(2)
            if module != "repro":
                if module.split(".")[0] != "repro":
                    continue  # not ours (e.g. pip, pytest run elsewhere)
                if importlib.util.find_spec(module) is None:
                    failures.append(
                        f"{where}: fenced example names missing module "
                        f"`python -m {module}`"
                    )
                continue
            tokens = _clean_tokens(rest)
            if not tokens:
                continue
            sub = tokens[0]
            if sub.startswith("-"):
                continue  # `python -m repro --help`
            if not re.fullmatch(r"[a-z][a-z0-9_-]*", sub):
                continue  # prose/diagram text, not an invocation
            if sub not in commands:
                failures.append(
                    f"{where}: fenced example uses unknown subcommand "
                    f"`repro {sub}`"
                )
                continue
            longs, shorts = _known_flags(commands[sub])
            for tok in tokens[1:]:
                if tok == "--":
                    break
                if tok.startswith("-") and len(tok) > 1:
                    if not _flag_ok(tok, longs, shorts):
                        failures.append(
                            f"{where}: `repro {sub}` does not accept "
                            f"{tok.split('=', 1)[0]!r}"
                        )
    return failures


def main(argv: list[str] | None = None) -> int:
    names = (argv if argv is not None else sys.argv[1:]) or list(DEFAULT_FILES)
    sys.path.insert(0, str(REPO / "src"))
    from repro.cli import build_parser

    parser = build_parser()
    failures: list[str] = []
    for name in names:
        path = (REPO / name).resolve()
        if not path.is_file():
            failures.append(f"{name}: checked file does not exist")
            continue
        text = path.read_text()
        failures += check_links(path, text)
        failures += check_cli(path, text, parser)
    for failure in failures:
        print(f"doclinks: {failure}", file=sys.stderr)
    if failures:
        print(f"doclinks: {len(failures)} problem(s)", file=sys.stderr)
        return 1
    print(f"doclinks: OK ({len(names)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
