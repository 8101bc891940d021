"""Live telemetry over HTTP: /metrics, /healthz, /jobs.

A tiny stdlib :mod:`http.server` wrapper that exposes the *live*
metrics registry while a run is in flight — the pull model Prometheus
expects, with a JSON health probe and a job-service snapshot besides::

    server = TelemetryServer(
        registry=lambda: collector.metrics,
        jobs=service.stats,              # injected; obs stays layered
    )
    with server:
        print(server.url)               # http://127.0.0.1:<port>

Endpoints
---------
``GET /metrics``
    Prometheus exposition text rendered from the registry provider
    (``503`` when no registry is available — e.g. collector uninstalled).
``GET /healthz``
    ``{"status": "ok", "uptime_seconds": <float>}`` — liveness probe.
``GET /jobs``
    Whatever the injected jobs provider returns, as JSON; ``404`` when
    no job service is attached.

Providers are zero-argument callables resolved per request, so the
server layer holds no references into higher layers (``repro.service``
injects itself through the experiments CLI, keeping the layer cake
intact).
"""

from __future__ import annotations

import json
import os
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Optional

from repro.obs.export import prometheus_text
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import get_collector

__all__ = [
    "JsonRequestHandler",
    "TelemetryServer",
]

RegistryProvider = Callable[[], Optional[MetricsRegistry]]
JobsProvider = Callable[[], dict]

#: refuse request bodies beyond this size — a serving front door must
#: bound memory per request before it ever parses anything
MAX_BODY_BYTES = 1 << 20


def _live_registry() -> MetricsRegistry | None:
    """Default registry provider: the installed collector's registry."""
    collector = get_collector()
    return collector.metrics if collector is not None else None


class JsonRequestHandler(BaseHTTPRequestHandler):
    """Shared plumbing for the repo's stdlib HTTP services.

    Both the telemetry server and the gateway front door speak small
    JSON payloads over :mod:`http.server`; this base centralises framed
    sends, JSON encoding, bounded body reads and log suppression so
    each service only writes its routes.
    """

    server_version = "repro-http/1"

    #: per-request correlation state (reset in :meth:`handle_one_request`)
    _request_id: Optional[str] = None
    _last_status: Optional[int] = None

    def handle_one_request(self) -> None:  # noqa - http.server naming
        self._request_id = None
        self._last_status = None
        super().handle_one_request()

    def correlation_id(self) -> str:
        """The request's correlation id: echo the client's
        ``X-Request-Id`` when present (sanitised), else mint one.  The
        id is stable for the request's lifetime — the response header
        and every structured log line carry the same value."""
        if self._request_id:
            return self._request_id
        incoming = None
        headers = getattr(self, "headers", None)
        if headers is not None:
            incoming = headers.get("X-Request-Id")
        if isinstance(incoming, str):
            incoming = "".join(
                ch for ch in incoming.strip()[:128]
                if ch.isalnum() or ch in "-_.:"
            )
        self._request_id = incoming or os.urandom(8).hex()
        return self._request_id

    def _send(
        self,
        status: int,
        body: bytes,
        content_type: str,
        headers: Optional[dict[str, str]] = None,
    ) -> None:
        self._last_status = status
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.send_header("X-Request-Id", self.correlation_id())
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_json(
        self,
        status: int,
        payload: dict,
        headers: Optional[dict[str, str]] = None,
    ) -> None:
        self._send(
            status,
            json.dumps(payload, default=str).encode("utf-8"),
            "application/json; charset=utf-8",
            headers=headers,
        )

    def _read_json_body(self) -> dict:
        """Parse the request body as a JSON object.

        Raises ``ValueError`` on oversized, malformed or non-object
        bodies — callers translate that into a 400/413.
        """
        length = int(self.headers.get("Content-Length") or 0)
        if length > MAX_BODY_BYTES:
            raise ValueError(
                f"request body of {length} bytes exceeds "
                f"{MAX_BODY_BYTES}-byte limit"
            )
        raw = self.rfile.read(length) if length else b""
        payload = json.loads(raw.decode("utf-8")) if raw else {}
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        return payload

    def log_message(self, format: str, *args: object) -> None:
        return None  # serving probes must not spam stderr


class _Handler(JsonRequestHandler):
    """Routes the three endpoints; server state rides on ``self.server``."""

    server_version = "repro-telemetry/1"

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa - http.server naming convention
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        try:
            if path == "/metrics":
                self._metrics()
            elif path == "/healthz":
                self._healthz()
            elif path == "/jobs":
                self._jobs()
            else:
                self._send_json(404, {
                    "error": "not found",
                    "endpoints": ["/metrics", "/healthz", "/jobs"],
                })
        except Exception as error:  # noqa - a probe must never kill serving
            self._send_json(500, {"error": str(error)})

    def _metrics(self) -> None:
        registry = self.server.registry_provider()
        if registry is None:
            self._send_json(503, {"error": "no metrics registry installed"})
            return
        self._send(
            200,
            prometheus_text(registry).encode("utf-8"),
            "text/plain; version=0.0.4; charset=utf-8",
        )

    def _healthz(self) -> None:
        self._send_json(200, {
            "status": "ok",
            "uptime_seconds": time.monotonic() - self.server.started_at,
        })

    def _jobs(self) -> None:
        provider = self.server.jobs_provider
        if provider is None:
            self._send_json(404, {"error": "no job service attached"})
            return
        self._send_json(200, provider())


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    registry_provider: RegistryProvider
    jobs_provider: JobsProvider | None
    started_at: float


class TelemetryServer:
    """Serve live telemetry on a background daemon thread.

    ``port=0`` binds an ephemeral port (read it back from ``.port``
    after :meth:`start`); the server is a context manager, so CLI and
    tests get deterministic shutdown.
    """

    def __init__(
        self,
        registry: RegistryProvider | MetricsRegistry | None = None,
        jobs: JobsProvider | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        if isinstance(registry, MetricsRegistry):
            fixed = registry
            self.registry_provider: RegistryProvider = lambda: fixed
        else:
            self.registry_provider = registry or _live_registry
        self.jobs_provider = jobs
        self.host = host
        self.requested_port = port
        self._httpd: _Server | None = None
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        if self._httpd is None:
            return self.requested_port
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "TelemetryServer":
        if self._httpd is not None:
            return self
        httpd = _Server((self.host, self.requested_port), _Handler)
        httpd.registry_provider = self.registry_provider
        httpd.jobs_provider = self.jobs_provider
        httpd.started_at = time.monotonic()
        self._httpd = httpd
        self._thread = threading.Thread(
            target=httpd.serve_forever,
            name="obs-telemetry",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._httpd is None:
            return
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
        self._httpd = None
        self._thread = None

    def __enter__(self) -> "TelemetryServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
