"""Asyncio-streams HTTP/1.1 front end for :class:`TriangleService`.

Deliberately framework-free — raw ``asyncio.start_server`` plus a
minimal request parser, because the repo bakes in no web dependencies.
The protocol surface is small and JSON-first:

==========================================  =================================
``GET  /healthz``                           liveness probe
``GET  /metrics``                           Prometheus-style text scrape
``GET  /v1/stats``                          service snapshot (JSON)
``POST /v1/jobs``                           submit; ``?wait=1`` blocks for
                                            the result, else 202 + job id
``GET  /v1/jobs/<id>``                      job status/result
``GET  /v1/jobs/<id>/events``               progress long-poll
                                            (``?since=N&timeout=T``)
``POST /v1/shutdown``                       graceful drain + exit
==========================================  =================================

Admission rejections surface as **429** (or **503** while draining)
with a typed JSON body (``{"error": "rejected", "reason": "queue_full"
| "tenant_quota" | "shutting_down", "retry_after_s": <float>}``) and a
``Retry-After`` header derived from the current queue depth, so
well-behaved clients back off for roughly as long as the backlog needs
to drain; malformed requests as 400.  Blocking operations
(result waits, event long-polls) run in worker threads via
``asyncio.to_thread`` so one slow client never stalls the accept loop.
"""

from __future__ import annotations

import asyncio
import json
import math
from typing import Any
from urllib.parse import parse_qs, urlsplit

from repro.serve.service import AdmissionError, ServeConfig, TriangleService

#: Cap on request body size (a job spec is tiny; anything bigger is abuse).
MAX_BODY = 1 << 20

_REASON_STATUS = {"queue_full": 429, "tenant_quota": 429, "shutting_down": 503}


class ServeServer:
    """One listening HTTP server bound to one :class:`TriangleService`.

    Usage::

        server = ServeServer(ServeConfig(...), host="127.0.0.1", port=0)
        asyncio.run(server.serve_forever())      # or .start()/.stop()

    ``port=0`` binds an ephemeral port; :attr:`port` reports the real
    one after :meth:`start`.
    """

    def __init__(
        self,
        config: ServeConfig | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        service: TriangleService | None = None,
    ):
        self.host = host
        self.port = port
        self.service = service or TriangleService(config)
        self._server: asyncio.AbstractServer | None = None
        self._shutdown = asyncio.Event()

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting connections (resolves :attr:`port`)."""
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        """Start, run until ``/v1/shutdown`` (or cancellation), then drain."""
        if self._server is None:
            await self.start()
        try:
            await self._shutdown.wait()
        finally:
            await self.stop()

    async def stop(self) -> None:
        """Close the listener and drain the service (idempotent)."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await asyncio.to_thread(self.service.close, True)

    # -- connection handling ------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request = await _read_request(reader)
            if request is None:
                return
            method, target, headers, body = request
            # Handlers return (status, ctype, payload) plus an optional
            # fourth element of extra response headers.
            routed = await self._route(method, target, headers, body)
            status, ctype, payload = routed[:3]
            extra = routed[3] if len(routed) > 3 else None
        except asyncio.IncompleteReadError:
            return
        except Exception as exc:  # noqa: BLE001 - connection boundary
            status, ctype, payload, extra = 500, "application/json", _jbytes(
                {"error": "internal", "detail": f"{type(exc).__name__}: {exc}"}
            ), None
        try:
            writer.write(_response_bytes(status, ctype, payload, extra))
            await writer.drain()
        except (ConnectionError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):
                pass

    async def _route(
        self, method: str, target: str, headers: dict[str, str], body: bytes
    ) -> tuple:
        """Dispatch one parsed request to its handler.

        Returns ``(status, content_type, payload)`` with an optional
        fourth element of extra response headers.
        """
        url = urlsplit(target)
        path, query = url.path.rstrip("/") or "/", parse_qs(url.query)
        if method == "GET" and path == "/healthz":
            return 200, "application/json", _jbytes({"ok": True})
        if method == "GET" and path == "/metrics":
            text = self.service.metrics.render()
            return 200, "text/plain; version=0.0.4", text.encode()
        if method == "GET" and path == "/v1/stats":
            return 200, "application/json", _jbytes(self.service.stats())
        if method == "POST" and path == "/v1/jobs":
            return await self._submit(headers, body, query)
        if method == "GET" and path.startswith("/v1/jobs/"):
            return await self._job_get(path, query)
        if method == "POST" and path == "/v1/shutdown":
            self._shutdown.set()
            return 200, "application/json", _jbytes({"draining": True})
        return 404, "application/json", _jbytes(
            {"error": "not_found", "path": path}
        )

    async def _submit(
        self, headers: dict[str, str], body: bytes, query: dict
    ) -> tuple:
        try:
            doc = json.loads(body.decode() or "{}")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return _bad_request(f"invalid JSON: {exc}")
        if not isinstance(doc, dict):
            return _bad_request("request body must be a JSON object")
        tenant = str(
            doc.pop("tenant", None) or headers.get("x-tenant", "default")
        )
        wait = bool(doc.pop("wait", False)) or _flag(query, "wait")
        progress = bool(doc.pop("progress", False))
        try:
            job = self.service.submit(doc, tenant=tenant)
        except AdmissionError as exc:
            body_doc: dict[str, Any] = {
                "error": "rejected", "reason": exc.reason,
                "detail": exc.detail,
            }
            extra: dict[str, str] | None = None
            if exc.retry_after is not None:
                body_doc["retry_after_s"] = exc.retry_after
                # Retry-After is integer seconds; round up so a 0.3 s
                # hint never collapses to an immediate retry storm.
                extra = {"Retry-After": str(math.ceil(exc.retry_after))}
            return (
                _REASON_STATUS.get(exc.reason, 429),
                "application/json",
                _jbytes(body_doc),
                extra,
            )
        except ValueError as exc:
            return _bad_request(str(exc))
        if wait:
            # A warm hit comes back terminal and is answered on the loop: the
            # hop to a waiter thread is two GIL hand-offs of unsteady length.
            if job.state in ("queued", "running"):
                await asyncio.to_thread(
                    job.wait, self.service.config.real_timeout
                )
            doc_out = job.to_dict(events_since=0 if progress else None)
            status = 200 if job.state == "done" else 500
            return status, "application/json", _jbytes(doc_out)
        return 202, "application/json", _jbytes(job.to_dict())

    async def _job_get(self, path: str, query: dict) -> tuple[int, str, bytes]:
        parts = path.split("/")  # ['', 'v1', 'jobs', '<id>', ('events')]
        job = self.service.job(parts[3]) if len(parts) > 3 else None
        if job is None:
            return 404, "application/json", _jbytes(
                {"error": "not_found", "job": parts[3] if len(parts) > 3 else ""}
            )
        if len(parts) == 5 and parts[4] == "events":
            try:
                since = int(query.get("since", ["0"])[0])
                timeout = float(query.get("timeout", ["0"])[0])
            except ValueError as exc:
                return _bad_request(f"bad events query: {exc}")
            if since < 0 or not 0 <= timeout < math.inf:
                return _bad_request(
                    "bad events query: since and timeout must be >= 0 and finite"
                )
            # What is there now is answered on the loop, as _submit does;
            # only a poll with something to wait for hops to a thread.
            events = job.wait_events(since)
            if not events and timeout and job.state in ("queued", "running"):
                events = await asyncio.to_thread(
                    job.wait_events, since, min(30.0, timeout)
                )
            return 200, "application/json", _jbytes(
                {"id": job.id, "state": job.state, "since": since,
                 "events": events}
            )
        if len(parts) != 4:
            return 404, "application/json", _jbytes({"error": "not_found"})
        return 200, "application/json", _jbytes(job.to_dict())


def _flag(query: dict, name: str) -> bool:
    val = query.get(name, ["0"])[0].lower()
    return val in ("1", "true", "yes")


def _jbytes(doc: Any) -> bytes:
    return json.dumps(doc, sort_keys=True).encode()


def _bad_request(detail: str) -> tuple[int, str, bytes]:
    return 400, "application/json", _jbytes(
        {"error": "bad_request", "detail": detail}
    )


_STATUS_TEXT = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    429: "Too Many Requests", 500: "Internal Server Error",
    503: "Service Unavailable",
}


def _response_bytes(
    status: int,
    ctype: str,
    payload: bytes,
    headers: dict[str, str] | None = None,
) -> bytes:
    extra = "".join(f"{k}: {v}\r\n" for k, v in (headers or {}).items())
    head = (
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
        f"Content-Type: {ctype}\r\n"
        f"Content-Length: {len(payload)}\r\n"
        f"{extra}"
        "Connection: close\r\n\r\n"
    )
    return head.encode() + payload


async def _read_request(
    reader: asyncio.StreamReader,
) -> tuple[str, str, dict[str, str], bytes] | None:
    """Parse one HTTP/1.1 request (method, target, headers, body)."""
    line = await reader.readline()
    if not line.strip():
        return None
    try:
        method, target, _version = line.decode().split(None, 2)
    except ValueError:
        return None
    headers: dict[str, str] = {}
    while True:
        raw = await reader.readline()
        if raw in (b"\r\n", b"\n", b""):
            break
        name, _, value = raw.decode().partition(":")
        headers[name.strip().lower()] = value.strip()
    length = min(MAX_BODY, int(headers.get("content-length", "0") or 0))
    body = await reader.readexactly(length) if length else b""
    return method.upper(), target, headers, body


def run_server(
    config: ServeConfig | None = None,
    host: str = "127.0.0.1",
    port: int = 0,
    announce: Any = None,
) -> None:
    """Blocking entry point used by ``repro serve``.

    ``announce(server)`` is called once the port is bound — the CLI uses
    it to print the listening address; tests use it to capture the
    ephemeral port.
    """

    async def _main() -> None:
        server = ServeServer(config, host=host, port=port)
        await server.start()
        if announce is not None:
            announce(server)
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            await server.stop()
            raise

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass
