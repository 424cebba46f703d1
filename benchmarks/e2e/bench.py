#!/usr/bin/env python3
"""End-to-end wall-clock benchmark of the repro package (see README.md).

    python3 benchmarks/e2e/bench.py run     [--workload W] [--seed S] [--out FILE]
    python3 benchmarks/e2e/bench.py layers  [--workload W] [--seed S] [--out FILE]
    python3 benchmarks/e2e/bench.py compare A.json B.json

``run`` measures the end-to-end metrics with tracing off, ``layers`` is the
separate traced run that produces the per-layer metrics, ``compare``
applies the bounds fixed in ``BENCHMARK.json``.  The end-to-end timing
metrics are seconds at reference speed (``hostspeed.py``).  Each workload runs in a
fresh child process with a scrubbed environment and a work directory of
its own under ``benchmarks/e2e/.work`` that is removed afterwards.

``run --workload W --seed S --seconds T --trace 0|1`` is the form the
benchmark driver calls; its last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
WORK_ROOT = HERE / ".work"
RESULTS = HERE / "results"
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}
#: A child gets this long before it and everything it started is killed
#: (the driver allows 180 s per run).
CHILD_TIMEOUT_S = 170
#: Fresh processes whose set-up time is measured per run; setup_s is the median.
SETUP_REPS = 3
REPORT_SCHEMA = 1


# ---------------------------------------------------------------------------
# parent side: isolation, child processes, reports
# ---------------------------------------------------------------------------


def child_env(work: Path) -> dict[str, str]:
    """The scrubbed environment every workload process runs in."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["HOME"] = str(work / "home")
    env["TMPDIR"] = str(work / "tmp")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src")] + env.get("PYTHONPATH", "").split(os.pathsep)
    ).rstrip(os.pathsep)
    return env


def shm_entries() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def group_outlives(pgid: int, grace_s: float) -> bool:
    """Whether the process group still has members after ``grace_s`` (helpers
    such as multiprocessing's resource tracker exit a moment after their
    parent; a server that was never stopped does not)."""
    deadline = time.monotonic() + grace_s
    while True:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return False
        if time.monotonic() >= deadline:
            return True
        time.sleep(0.02)


def run_child(name: str, args: argparse.Namespace, trace: bool,
              setup_only: bool = False) -> dict[str, Any]:
    """One workload in a fresh process; returns its document.

    Whatever happens, the child's whole process group is killed and its
    work directory removed, and anything that leaked (a process that
    outlived the child, a ``/dev/shm`` segment) is recorded in the document.
    """
    work = WORK_ROOT / f"{name}-{os.getpid()}"
    for sub in ("home", "tmp"):
        (work / sub).mkdir(parents=True)
    result = work / "result.json"
    shm_before = shm_entries()
    cmd = [sys.executable, str(HERE / "bench.py"), "child", "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(int(trace)), "--work", str(work),
           "--t-spawn", repr(time.monotonic())]
    if args.smoke:
        cmd.append("--smoke")
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.Popen(cmd, env=child_env(work), cwd=work,
                                stdout=sys.stderr, start_new_session=True)
        try:
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
            leaked_procs = group_outlives(proc.pid, grace_s=3.0)
        except subprocess.TimeoutExpired:
            raise SystemExit(f"{name}: no result within {CHILD_TIMEOUT_S} s")
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        if code != 0 or not result.exists():
            raise SystemExit(f"{name}: child exited with code {code}")
        doc = json.loads(result.read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    doc["leaks"] = {"processes": leaked_procs,
                    "shm": sorted(shm_entries() - shm_before)}
    return doc


def is_correct(doc: dict[str, Any]) -> bool:
    return (doc["ops"]["failed"] == 0 and not doc.get("checks_failed")
            and not doc["leaks"]["processes"] and not doc["leaks"]["shm"])


def print_metrics(name: str, doc: dict[str, Any]) -> None:
    print(f"\n== {name}  {json.dumps(doc['params'])}")
    print(f"   ops: {json.dumps(doc['ops'])}  correct: {is_correct(doc)}")
    for metric, m in doc["metrics"].items():
        print(f"   {metric:<36} {m['value']:>16.6f} {m['unit']}")
    if "op_s_quartiles" in doc:
        q = ", ".join(f"{x:.4f}" for x in doc["op_s_quartiles"])
        print(f"   op_s quartiles (q1, q2, q3): {q}")
    if "raw" in doc:
        raw = ", ".join(f"{k}={v:.4f}" for k, v in doc["raw"].items())
        print(f"   as the clock read them: {raw}")
    for what in doc.get("checks_failed", ()):
        print(f"   CHECK FAILED: {what}")
    if doc["leaks"]["processes"] or doc["leaks"]["shm"]:
        print(f"   LEAKED: {json.dumps(doc['leaks'])}")


def cmd_run(args: argparse.Namespace, section: str) -> int:
    """``run`` / ``layers``: every selected workload, a report, and for
    the driver's form one JSON object on the last line."""
    trace = section == "layers"
    if not (REPO / "src" / "repro").is_dir():
        raise SystemExit(f"nothing to measure: {REPO / 'src' / 'repro'} is missing")
    # Compile first, so the first run in a fresh checkout measures the same
    # thing as every later one (the CLI workload starts an interpreter per op).
    compileall.compile_dir(str(REPO / "src" / "repro"), quiet=2, workers=1)
    names = [args.workload] if args.workload else WORKLOAD_NAMES
    report = {
        "schema": REPORT_SCHEMA, "seed": args.seed, "seconds": args.seconds,
        "smoke": args.smoke, "workloads": {},
    }
    for name in names:
        # setup_s is the median over fresh processes: the measuring one and
        # SETUP_REPS - 1 that only set up (the traced run reports no setup_s).
        extra = 0 if trace or args.smoke else SETUP_REPS - 1
        setups = [run_child(name, args, trace, setup_only=True)["setup_s"]
                  for _ in range(extra)]
        doc = run_child(name, args, trace)
        if not trace:
            setups.append(doc["metrics"]["setup_s"]["value"])
            doc["metrics"]["setup_s"]["value"] = statistics.median(setups)
            doc["setup_s_samples"] = setups
        report["host"] = doc.pop("host")
        report["workloads"][name] = doc
        print_metrics(name, doc)
    ok = all(is_correct(d) for d in report["workloads"].values())
    if args.out:
        out = Path(args.out)
        merged = json.loads(out.read_text()) if out.exists() else {}
        merged[section] = report
        out.write_text(json.dumps(merged, indent=1, sort_keys=True) + "\n")
        print(f"\nwrote the {section!r} section of {out}")
    if args.workload:
        doc = report["workloads"][args.workload]
        wanted = PER_LAYER if trace else END_TO_END
        missing = sorted(set(wanted) - set(doc["metrics"]))
        if missing:
            raise SystemExit(f"metrics missing from the run: {missing}")
        print(json.dumps({
            "correct": is_correct(doc),
            "attempted": doc["ops"]["attempted"],
            "failed": doc["ops"]["failed"],
            "metrics": {k: v for k, v in doc["metrics"].items() if k in wanted},
        }))
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def worsening(metric: dict[str, Any], a: float, b: float) -> float:
    """By what share of ``a`` the value ``b`` is worse (negative = better)."""
    rel = (b - a) / abs(a)
    return rel if metric["better"] == "lower" else -rel


def cmd_compare(args: argparse.Namespace) -> int:
    a, b = (json.loads(Path(f).read_text()) for f in (args.a, args.b))
    violations = 0

    def row(status: str, where: str, text: str) -> None:
        nonlocal violations
        violations += status == "FAIL"
        print(f"{status:<5} {where:<52} {text}")

    for section in ("run", "layers"):
        if section not in a or section not in b:
            continue
        ra, rb = a[section], b[section]
        same_input = all(ra[k] == rb[k] for k in ("seed", "seconds", "smoke"))
        if ra["host"] != rb["host"]:
            print(f"note: {section}: the two reports come from different hosts:"
                  f"\n  A {ra['host']}\n  B {rb['host']}")
        if not same_input:
            print(f"note: {section}: seeds or sizes differ; exact checks skipped")
        for name in sorted(set(ra["workloads"]) & set(rb["workloads"])):
            wa, wb = ra["workloads"][name], rb["workloads"][name]
            if same_input:
                for key in sorted(set(wa.get("counts", {})) & set(wb.get("counts", {}))):
                    same = wa["counts"][key] == wb["counts"][key]
                    row("ok" if same else "FAIL", f"{name}:{key}",
                        f"{wa['counts'][key]} vs {wb['counts'][key]} (exact)")
            for metric in sorted(set(wa["metrics"]) & set(wb["metrics"])):
                va, vb = wa["metrics"][metric]["value"], wb["metrics"][metric]["value"]
                where = f"{name}:{metric}"
                exact = (metric == "virtual_makespan_s"
                         or wa["metrics"][metric]["unit"] in ("count", "B"))
                if metric == "fail_ratio":
                    row("ok" if vb == 0 else "FAIL", where, f"{vb} (must be 0)")
                elif exact and same_input:
                    row("ok" if va == vb else "FAIL", where, f"{va!r} vs {vb!r} (exact)")
                elif metric in END_TO_END:
                    m = END_TO_END[metric]
                    worse = worsening(m, va, vb)
                    change = f"{worse:.1%} worse" if worse > 0 else f"{-worse:.1%} better"
                    row("ok" if worse <= m["bound"] else "FAIL", where,
                        f"{va:.6g} -> {vb:.6g} {m['unit']}  {change} "
                        f"(may worsen by {m['bound']:.0%})")
    print(f"\n{violations} violation(s)")
    return 1 if violations else 0


# ---------------------------------------------------------------------------
# child side
# ---------------------------------------------------------------------------


def cmd_child(args: argparse.Namespace) -> int:
    """Runs inside the scrubbed child: imports the package, measures one
    workload, writes the document."""
    import workloads
    from repro.instrument.telemetry import host_metadata

    host = host_metadata()  # before the workload pins this process
    host["core_limited"] = host["usable_cpus"] < 4
    cls = workloads.WORKLOADS[args.workload]
    work = Path(args.work)
    if args.trace:
        import layers

        wl = cls(args.seed, cls.layer_ops(args.smoke), args.smoke)
        doc = layers.run_layers(wl, work, RESULTS)
    else:
        wl = cls(args.seed, cls.ops_for(args.seconds, args.smoke), args.smoke)
        doc = workloads.measure(wl, work, args.t_spawn, args.setup_only)
    doc["host"] = host
    (work / "result.json").write_text(json.dumps(doc))
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    for cmd in ("run", "layers", "child"):
        p = sub.add_parser(cmd)
        p.add_argument("--workload", choices=WORKLOAD_NAMES)
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                       help="how long one workload measures on the reference "
                       "host; fixes the timed-op counts")
        p.add_argument("--smoke", action="store_true",
                       help="tiny inputs and op counts, for the smoke test")
        if cmd == "run":
            p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                           help="1 = the traced per-layer run (same as `layers`)")
        if cmd == "child":
            p.add_argument("--trace", type=int, required=True)
            p.add_argument("--work", required=True)
            p.add_argument("--t-spawn", type=float, required=True)
            p.add_argument("--setup-only", action="store_true")
        else:
            p.add_argument("--out", help="report file; the section written "
                           "('run' or 'layers') replaces the one already there")
    p = sub.add_parser("compare")
    p.add_argument("a")
    p.add_argument("b")
    args = ap.parse_args(argv)
    if args.cmd == "child":
        return cmd_child(args)
    if args.cmd == "compare":
        return cmd_compare(args)
    # A terminated run still unwinds: the child's process group is killed
    # and its work directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    traced = args.cmd == "layers" or args.trace == 1
    return cmd_run(args, "layers" if traced else "run")


if __name__ == "__main__":
    sys.exit(main())
