"""Concurrent multi-session walkthrough serving (PRs 5-6).

The ROADMAP north star is a production-scale service answering many
viewers' walkthroughs against one HDoV-tree.  This package provides the
first rungs: N recorded sessions served through one shared
:class:`~repro.storage.buffer.BufferPool`, scheduled in deterministic
rounds with frame-budget admission control (PR 5), plus a network edge
(:mod:`repro.serving.http`) exposing session create/step/close over
HTTP and a Poisson traffic harness (:mod:`repro.serving.loadgen`)
driving it at configurable offered load (PR 6).  Both runners report
JSON whose machine-independent sections are pure functions of the
configuration, so CI can diff two runs byte-for-byte.
"""

from repro.serving.loadgen import run_traffic
from repro.serving.pooled import PooledNodeStore
from repro.serving.scheduler import SessionScheduler
from repro.serving.service import run_serve
from repro.serving.session import ServingSession

__all__ = [
    "PooledNodeStore",
    "ServingSession",
    "SessionScheduler",
    "run_serve",
    "run_traffic",
]
