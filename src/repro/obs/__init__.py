"""Live service observability: exporter endpoints and SLO monitoring.

Three pillars, built on the correlation ids the service mints per query
(:meth:`repro.service.DistanceService.submit`):

* **query-correlated tracing** — every span, metrics scope, history
  record and guarantee verdict carries ``trace_id``/``query_id``;
  :mod:`repro.analysis.skew` filters a shared trace stream per query;
* **exporter** (:mod:`.exporter`) — ``/metrics`` (Prometheus text) +
  ``/healthz`` + ``/readyz`` over stdlib ``http.server``;
* **SLO monitor** (:mod:`.slo`) — per-engine objectives with rolling
  error-budget burn rates, behind ``repro serve --slo`` and the
  ``tools/check_slo.py`` CI gate;
* **kernel profiler** (:mod:`.profile`) — per-(kernel, round, machine,
  query) wall-clock/cells attribution riding the one
  :class:`~repro.mpc.accounting.charge` bracket of each kernel call,
  with flamegraph export (``repro profile``), the differential
  profiler (``repro profdiff``) and a ``/profile`` endpoint on the
  exporter.
"""

from .exporter import ObservabilityServer, prometheus_exposition, \
    render_health
from .profile import (collapsed_stacks, diff_profiles, global_profile,
                      hot_kernels, inject_slowdown, kernel_rows,
                      kernel_totals, profiling_enabled,
                      reset_global_profile, write_collapsed)
from .slo import (SLO, QuerySample, SLOMonitor, SLOReport, burn_rate,
                  default_slos, sample_from_outcome, sample_from_record)

__all__ = ["ObservabilityServer", "prometheus_exposition", "render_health",
           "profiling_enabled", "inject_slowdown", "global_profile",
           "reset_global_profile", "hot_kernels", "diff_profiles",
           "kernel_rows", "kernel_totals", "collapsed_stacks",
           "write_collapsed",
           "SLO", "QuerySample", "SLOMonitor", "SLOReport", "burn_rate",
           "default_slos", "sample_from_outcome", "sample_from_record"]
