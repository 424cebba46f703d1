"""Async multi-tenant triangle-counting service (``repro serve``).

Layers:

* :mod:`repro.serve.service` — transport-agnostic core: request
  canonicalization onto the store digest, a warm result cache, a
  bounded admission-controlled cold-job queue drained by dispatcher
  threads, live progress events from the span tracer, serve-level
  metrics.
* :mod:`repro.serve.server` — raw-asyncio HTTP/1.1 front end
  (``/healthz``, ``/metrics``, ``/v1/jobs``, ``/v1/stats``,
  ``/v1/shutdown``).
* :mod:`repro.serve.client` — stdlib client used by ``repro submit``,
  tests and the fixed e2e gauge's ``serve_mixed`` workload.
"""

from repro.serve.client import ServeClient, ServeError, ServeRejected
from repro.serve.server import ServeServer, run_server
from repro.serve.service import (
    AdmissionError,
    Job,
    ServeConfig,
    ServeMetrics,
    TriangleService,
    normalize_request,
    request_key,
)

__all__ = [
    "AdmissionError",
    "Job",
    "ServeClient",
    "ServeConfig",
    "ServeError",
    "ServeMetrics",
    "ServeRejected",
    "ServeServer",
    "TriangleService",
    "normalize_request",
    "request_key",
    "run_server",
]
