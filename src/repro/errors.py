"""Exception hierarchy for the subgraph-matching study framework.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch framework failures without masking programming errors (``TypeError``,
``KeyError`` and friends propagate unchanged).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class GraphFormatError(ReproError):
    """A graph file or edge list is malformed."""


class InvalidGraphError(ReproError):
    """A graph violates a structural requirement (e.g. self loop, bad label)."""


class InvalidQueryError(ReproError):
    """A query graph is unusable (disconnected, too small, too large)."""


class ConfigurationError(ReproError):
    """An algorithm was composed from incompatible or unknown components."""


class BudgetExceeded(ReproError):
    """Internal signal: a per-query time budget expired during enumeration.

    The enumeration engine catches this and reports the query as unsolved;
    it never escapes the public API. The VF2 and brute-force oracles
    (:mod:`repro.baselines`) take no budget and never raise it.
    """


class ServeError(ReproError):
    """Base class for serving-tier (:mod:`repro.serve`) failures."""


class UnknownGraphError(ServeError):
    """A request named a resident graph the service does not hold."""


class QueueFullError(ServeError):
    """Admission rejected a request because the pending queue is full.

    This is backpressure, not failure: the caller should retry later or
    shed load. ``submit`` raises it immediately instead of blocking.
    """


class DeadlineExceededError(ServeError):
    """Admission rejected a request whose budget was already spent."""


class ServiceClosedError(ServeError):
    """A request arrived after the service shut down."""
