"""Network-facing walkthrough service.

The in-process serving layer (PR 5) answers many sessions against one
tree; this subpackage puts a network edge in front of it:

* :mod:`repro.serving.http.app` — the framework-free async application:
  session create/step/close, health and stats endpoints, with every
  state-mutating request serialized so the per-session I/O attribution
  stays exact;
* :mod:`repro.serving.http.middleware` — request tracing + latency
  middleware, the package's *only* timing boundary (lint rule RPR009);
* :mod:`repro.serving.http.stats` — the latency/request stats collector
  with exact nearest-rank percentiles.

Everything the app computes except wall-clock latency is a pure
function of the request sequence, which is what lets the traffic
harness (:mod:`repro.serving.loadgen`) produce byte-identical
machine-independent reports for a fixed seed.
"""

from repro.serving.http.app import (HttpRequest, HttpResponse,
                                    WalkthroughApp, WalkthroughService,
                                    build_service)
from repro.serving.http.middleware import TimingMiddleware
from repro.serving.http.stats import StatsCollector, percentile

__all__ = [
    "HttpRequest",
    "HttpResponse",
    "StatsCollector",
    "TimingMiddleware",
    "WalkthroughApp",
    "WalkthroughService",
    "build_service",
    "percentile",
]
