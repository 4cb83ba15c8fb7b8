"""Live /metrics + /healthz HTTP exporter for a running distance service.

The run registry answers "what did past runs cost"; this module answers
"what is the service doing *right now*" in the two lingua-franca shapes
ops tooling expects:

``/metrics``
    Prometheus text exposition: every touched instrument of the
    process-wide :mod:`repro.metrics` registry, plus service gauges
    (inflight/queued queries, corpus and shared-memory segment counts,
    per-engine query totals) derived from
    :meth:`repro.service.DistanceService.status`.
``/healthz``
    JSON liveness: executor alive, admission state, no leaked
    shared-memory segments.  200 when healthy, 503 otherwise.
``/readyz``
    Readiness (admission open): 200 once the service accepts queries,
    503 while closing/closed.
``/profile``
    JSON kernel-profile aggregate (:mod:`repro.obs.profile`): per-kernel
    calls/cells/seconds for the whole process plus a bounded per-query
    breakdown — what ``repro top`` renders as the hot-kernels column.

Everything is stdlib (``http.server`` on a daemon thread) — the no-new-
dependencies rule holds, and the server binds loopback by default.  The
handler only ever *reads* (registry snapshot + ``status()``, both
cheap), so scraping cannot perturb query results; benchmark E25 bounds
the wall-clock overhead of scraping a busy service at < 5 %.

Construction of HTTP server primitives is confined to this package and
the CLI by ``tools/check_api_boundary.py`` — engines and drivers must
stay free of service plumbing.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional

from ..metrics import MetricSnapshot, get_registry

__all__ = ["ObservabilityServer", "prometheus_exposition", "render_health"]


def _prom_name(key: str) -> str:
    """Registry key → Prometheus metric name + label block.

    ``repro.metrics`` keys are ``name{k=v,...}`` with dotted names and
    unquoted label values; Prometheus wants underscores and quoted
    values.  ``strings.dp_cells{kernel=banded}`` becomes
    ``repro_strings_dp_cells{kernel="banded"}``.
    """
    name, labels = key, ""
    if "{" in key:
        name, rest = key.split("{", 1)
        pairs = rest.rstrip("}").split(",")
        inner = ",".join(
            '{}="{}"'.format(*pair.split("=", 1)) for pair in pairs if pair)
        labels = "{" + inner + "}"
    name = "repro_" + name.replace(".", "_").replace("-", "_")
    return name + labels


def _prom_value(value: object) -> str:
    """Render a sample value (non-numeric gauges are unrepresentable)."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, float)):
        return repr(value)
    return "nan"


def prometheus_exposition(snapshot: MetricSnapshot,
                          status: Optional[dict] = None) -> str:
    """Render a metrics snapshot (+ service status) as Prometheus text.

    Counters gain the conventional ``_total`` suffix; histograms expand
    to ``_count``/``_sum``/``_min``/``_max`` samples (the registry keeps
    streaming moments, not buckets).  When *status* is given, the
    service gauges described in the module docstring are appended.
    """
    lines = []
    for key, val in snapshot.items():
        prom = _prom_name(key)
        kind = val["type"]
        if kind == "counter":
            base, _, labels = prom.partition("{")
            lines.append("# TYPE %s counter" % (base + "_total"))
            lines.append("%s_total%s %s" % (
                base, "{" + labels if labels else "",
                _prom_value(val["value"])))
        elif kind == "gauge":
            base = prom.partition("{")[0]
            lines.append("# TYPE %s gauge" % base)
            lines.append("%s %s" % (prom, _prom_value(val["value"])))
        else:
            base, _, labels = prom.partition("{")
            labels = "{" + labels if labels else ""
            lines.append("# TYPE %s summary" % base)
            for part in ("count", "sum", "min", "max"):
                sample = val.get(part)
                if sample is None:
                    continue
                lines.append("%s_%s%s %s" % (
                    base, part, labels, _prom_value(sample)))
    if status is not None:
        lines.extend(_status_lines(status))
    return "\n".join(lines) + "\n"


def _status_lines(status: dict) -> list:
    """Service gauges from a :meth:`DistanceService.status` dict."""
    svc = '{service="%s"}' % status.get("service", "")
    executor = status.get("executor", {})
    up = 1 if executor.get("alive") else 0
    ready = 1 if status.get("admission") == "open" else 0
    queries = status.get("queries", {})
    out = [
        "# TYPE repro_service_up gauge",
        "repro_service_up%s %d" % (svc, up),
        "# TYPE repro_service_ready gauge",
        "repro_service_ready%s %d" % (svc, ready),
        "# TYPE repro_service_inflight_queries gauge",
        "repro_service_inflight_queries%s %d" % (
            svc, status.get("inflight", 0)),
        "# TYPE repro_service_queued_queries gauge",
        "repro_service_queued_queries%s %d" % (svc, status.get("queued", 0)),
        "# TYPE repro_service_corpora gauge",
        "repro_service_corpora%s %d" % (svc, status.get("corpora", 0)),
        "# TYPE repro_service_active_shm_segments gauge",
        "repro_service_active_shm_segments%s %d" % (
            svc, status.get("active_segments", 0)),
        "# TYPE repro_service_queries_failed_total counter",
        "repro_service_queries_failed_total%s %d" % (
            svc, queries.get("failed", 0)),
        "# TYPE repro_service_queries_total counter",
    ]
    by_engine: Dict[str, int] = queries.get("by_engine", {})
    if by_engine:
        tag = status.get("service", "")
        for engine, count in sorted(by_engine.items()):
            out.append(
                'repro_service_queries_total{service="%s",engine="%s"} %d'
                % (tag, engine, count))
    else:
        out.append("repro_service_queries_total%s %d" % (
            svc, queries.get("total", 0)))
    return out


def render_health(status: dict) -> dict:
    """Liveness verdict from a service status dict.

    Healthy means: the executor has not been torn down, and shared-
    memory segment accounting is sane (no negative/leaked count).  A
    *closing* service is still healthy — drain is a normal state — but
    not *ready* (see ``/readyz``).
    """
    executor = status.get("executor", {})
    checks = {
        "executor_alive": bool(executor.get("alive")),
        "segments_sane": status.get("active_segments", 0) >= 0,
    }
    healthy = all(checks.values())
    return {"status": "ok" if healthy else "unhealthy",
            "healthy": healthy,
            "checks": checks,
            "admission": status.get("admission"),
            "service": status.get("service"),
            "inflight": status.get("inflight"),
            "queued": status.get("queued")}


class _Handler(BaseHTTPRequestHandler):
    """Read-only endpoint dispatch; the server object carries the state."""

    server_version = "repro-obs/1"
    protocol_version = "HTTP/1.1"

    def log_message(self, *args) -> None:  # scrapes are not news
        pass

    def _reply(self, code: int, body: str, content_type: str) -> None:
        payload = body.encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        owner: "ObservabilityServer" = self.server.owner  # type: ignore
        path = self.path.split("?", 1)[0]
        try:
            if path == "/metrics":
                self._reply(200, owner.metrics_text(),
                            "text/plain; version=0.0.4; charset=utf-8")
            elif path == "/healthz":
                health = render_health(owner.status())
                self._reply(200 if health["healthy"] else 503,
                            json.dumps(health, indent=2) + "\n",
                            "application/json")
            elif path == "/readyz":
                status = owner.status()
                ready = status.get("admission") == "open"
                self._reply(200 if ready else 503,
                            json.dumps({"ready": ready,
                                        "admission": status.get("admission")})
                            + "\n",
                            "application/json")
            elif path == "/profile":
                self._reply(200,
                            json.dumps(owner.profile(), indent=2,
                                       sort_keys=True) + "\n",
                            "application/json")
            else:
                self._reply(404, "not found\n", "text/plain")
        except Exception as exc:  # pragma: no cover - defensive
            self._reply(500, f"exporter error: {exc}\n", "text/plain")


class ObservabilityServer:
    """The /metrics + /healthz + /readyz endpoint on a daemon thread.

    ::

        obs = ObservabilityServer(port=9464)
        obs.start()
        ...
        obs.bind(service)      # attach once the service exists
        ...
        obs.stop()

    ``port=0`` asks the OS for a free port (read it back from
    :attr:`port` / :attr:`url`) — the form tests and benchmarks use.
    Unbound, the endpoints still serve (registry metrics only; health
    reports the service as absent-but-sane), so the exporter can come
    up before the first corpus loads.
    """

    def __init__(self, port: int = 9464,
                 host: str = "127.0.0.1") -> None:
        self._host = host
        self._port = port
        self._service = None
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    # -- wiring ----------------------------------------------------------
    def bind(self, service) -> None:
        """Attach the :class:`DistanceService` whose status to serve."""
        self._service = service

    def start(self) -> "ObservabilityServer":
        if self._httpd is not None:
            return self
        httpd = ThreadingHTTPServer((self._host, self._port), _Handler)
        httpd.daemon_threads = True
        httpd.owner = self  # type: ignore[attr-defined]
        self._httpd = httpd
        self._thread = threading.Thread(
            target=httpd.serve_forever, kwargs={"poll_interval": 0.1},
            name="repro-obs-exporter", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._httpd is None:
            return
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._httpd = None
        self._thread = None

    def __enter__(self) -> "ObservabilityServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- state read by the handler --------------------------------------
    @property
    def port(self) -> int:
        if self._httpd is None:
            return self._port
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self._host}:{self.port}"

    def status(self) -> dict:
        if self._service is None:
            return {"service": "", "admission": "unbound", "inflight": 0,
                    "queued": 0, "corpora": 0, "active_segments": 0,
                    "executor": {"type": None, "alive": True,
                                 "pool_running": False},
                    "queries": {"total": 0, "failed": 0, "by_engine": {}}}
        return self._service.status()

    def metrics_text(self) -> str:
        return prometheus_exposition(get_registry().snapshot(),
                                     self.status())

    def profile(self) -> dict:
        """The process-wide kernel-profile aggregate (``/profile``)."""
        from .profile import global_profile
        return global_profile()
