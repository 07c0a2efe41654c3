"""Matching-as-a-service: a concurrent multi-tenant serving tier.

This package turns the library's query-compilation layer
(:class:`~repro.core.session.MatchSession`) into a long-running service:
named resident data graphs, per-tenant session pools, admission control
with per-request deadlines and bounded-queue backpressure, coalescing of
identical in-flight queries, and a thread-per-connection JSON-lines
front-end — all observable through ``serve.*`` counters in the
:mod:`repro.obs` currency.

Layering::

    MatchServer   (one blocking thread per connection; server.py)
        │  MatchService.match, on the thread that read the request
    MatchService  (admission, coalescing, deadlines; service.py)
        │  one per (tenant, graph)
    MatchSession  (plan/prep caches; core/session.py — thread-safe)
        │
    engine + kernels

Start one from the command line with ``repro serve`` (see
:mod:`repro.cli`), or embed :class:`MatchService` directly for
in-process serving — the concurrency test suite under
``tests/concurrency/`` exercises it that way, on a
:class:`FakeClock`, with no sockets and no sleeps.
"""

from repro.errors import (
    DeadlineExceededError,
    QueueFullError,
    ServeError,
    ServiceClosedError,
    UnknownGraphError,
)
from repro.serve.clock import Clock, FakeClock, SystemClock
from repro.serve.server import MatchServer
from repro.serve.service import MatchService, ServeResponse

__all__ = [
    "MatchService",
    "MatchServer",
    "ServeResponse",
    "Clock",
    "SystemClock",
    "FakeClock",
    "ServeError",
    "UnknownGraphError",
    "QueueFullError",
    "DeadlineExceededError",
    "ServiceClosedError",
]
