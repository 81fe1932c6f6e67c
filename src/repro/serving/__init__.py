"""Concurrent multi-session walkthrough serving.

N recorded sessions served through one shared
:class:`~repro.storage.buffer.BufferPool`, stepped in deterministic
rounds on one thread, with a simulated per-frame budget that sheds an
over-budget session's next query to the root LoD.  ``run_serve``
reports JSON that is a pure function of its arguments, so CI can diff
two runs byte-for-byte.
"""

from repro.serving.pooled import PooledNodeStore
from repro.serving.scheduler import SessionScheduler
from repro.serving.service import run_serve
from repro.serving.session import ServingSession

__all__ = [
    "PooledNodeStore",
    "ServingSession",
    "SessionScheduler",
    "run_serve",
]
