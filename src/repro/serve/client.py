"""Thin stdlib HTTP client for the serve API.

Used by ``repro submit``, the fixed e2e gauge's ``serve_mixed``
workload and the integration tests.  Pure ``http.client`` — one
connection per call, no retries by default (admission control *wants*
the caller to see rejections).  :meth:`ServeClient.submit` can opt into
bounded backoff that honors the server's ``Retry-After`` hint.
"""

from __future__ import annotations

import http.client
import json
import time
from typing import Any


class ServeError(RuntimeError):
    """Non-2xx response from the serve API (other than a rejection)."""

    def __init__(self, status: int, body: dict[str, Any] | str):
        super().__init__(f"HTTP {status}: {body}")
        self.status = status
        self.body = body


class ServeRejected(ServeError):
    """Typed admission-control rejection (HTTP 429/503).

    ``reason`` mirrors :class:`repro.serve.service.AdmissionError`:
    ``queue_full``, ``tenant_quota`` or ``shutting_down``.
    ``retry_after`` is the server's backoff hint in seconds (from the
    ``Retry-After`` header, falling back to the body's
    ``retry_after_s``), or ``None`` when the server sent neither.
    """

    def __init__(
        self,
        status: int,
        body: dict[str, Any],
        retry_after: float | None = None,
    ):
        super().__init__(status, body)
        self.reason = body.get("reason", "rejected")
        if retry_after is None:
            retry_after = body.get("retry_after_s")
        self.retry_after = None if retry_after is None else float(retry_after)


class ServeClient:
    """Synchronous client for one serve endpoint.

    >>> client = ServeClient("127.0.0.1", 8787)
    >>> client.submit({"kind": "count", "dataset": "g500-s12",
    ...                "ranks": 16}, wait=True)["result"]["count"]
    ... # doctest: +SKIP
    """

    def __init__(self, host: str, port: int, timeout: float = 600.0):
        self.host = host
        self.port = port
        self.timeout = timeout
        #: Response headers (lower-cased names) of the most recent
        #: :meth:`request` round trip.
        self.last_headers: dict[str, str] = {}

    # -- raw transport ------------------------------------------------------

    def request(
        self,
        method: str,
        path: str,
        body: dict[str, Any] | None = None,
        headers: dict[str, str] | None = None,
    ) -> tuple[int, Any]:
        """One HTTP round trip; JSON bodies are decoded when possible.

        Response headers land in :attr:`last_headers`.
        """
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            payload = json.dumps(body).encode() if body is not None else None
            hdrs = {"Content-Type": "application/json", **(headers or {})}
            conn.request(method, path, body=payload, headers=hdrs)
            resp = conn.getresponse()
            raw = resp.read()
        finally:
            conn.close()
        self.last_headers = {k.lower(): v for k, v in resp.getheaders()}
        try:
            doc = json.loads(raw.decode() or "null")
        except (json.JSONDecodeError, UnicodeDecodeError):
            doc = raw.decode(errors="replace")
        return resp.status, doc

    def _checked(
        self,
        method: str,
        path: str,
        body: dict[str, Any] | None = None,
        headers: dict[str, str] | None = None,
    ) -> Any:
        status, doc = self.request(method, path, body, headers)
        if status in (429, 503) and isinstance(doc, dict) and "reason" in doc:
            raise ServeRejected(status, doc, self._header_retry_after())
        if status >= 400:
            raise ServeError(status, doc)
        return doc

    def _header_retry_after(self) -> float | None:
        raw = self.last_headers.get("retry-after")
        try:
            return float(raw) if raw is not None else None
        except ValueError:
            return None

    # -- API ---------------------------------------------------------------

    def health(self) -> bool:
        """True when the server answers ``/healthz``."""
        try:
            status, _ = self.request("GET", "/healthz")
        except OSError:
            return False
        return status == 200

    def metrics(self) -> str:
        """Raw Prometheus-style text from ``/metrics``."""
        status, doc = self.request("GET", "/metrics")
        if status != 200:
            raise ServeError(status, doc)
        return doc if isinstance(doc, str) else json.dumps(doc)

    def stats(self) -> dict[str, Any]:
        """Service snapshot from ``/v1/stats``."""
        return self._checked("GET", "/v1/stats")

    def submit(
        self,
        request: dict[str, Any],
        tenant: str = "default",
        wait: bool = True,
        progress: bool = False,
        retries: int = 0,
        max_backoff: float = 60.0,
    ) -> dict[str, Any]:
        """Submit one job; raises :class:`ServeRejected` on admission
        rejection.  ``wait=True`` blocks for the terminal job document,
        ``wait=False`` returns the 202 acknowledgement immediately.

        ``retries > 0`` opts into backoff on capacity rejections
        (``queue_full``/``tenant_quota``): each attempt sleeps the
        server's ``Retry-After`` hint (capped at ``max_backoff``) before
        resubmitting.  ``shutting_down`` rejections never retry — the
        server is going away, waiting cannot help — and the final
        rejection always propagates."""
        body = dict(request)
        body["wait"] = wait
        if progress:
            body["progress"] = True
        attempts = max(0, int(retries))
        while True:
            try:
                return self._checked(
                    "POST", "/v1/jobs", body, headers={"X-Tenant": tenant}
                )
            except ServeRejected as exc:
                if attempts <= 0 or exc.reason == "shutting_down":
                    raise
                attempts -= 1
                time.sleep(min(max_backoff, exc.retry_after or 1.0))

    def job(self, job_id: str) -> dict[str, Any]:
        """Status/result document for one job id."""
        return self._checked("GET", f"/v1/jobs/{job_id}")

    def events(
        self, job_id: str, since: int = 0, timeout: float = 0.0
    ) -> dict[str, Any]:
        """Long-poll the job's progress events starting at ``since``."""
        return self._checked(
            "GET", f"/v1/jobs/{job_id}/events?since={since}&timeout={timeout}"
        )

    def shutdown(self) -> None:
        """Ask the server to drain and exit."""
        try:
            self._checked("POST", "/v1/shutdown")
        except OSError:
            pass
