"""One request: every entry point checks its options the same way.

Every public way to run a query builds one
:class:`~repro.core.plan.MatchRequest`, so a malformed option raises the
same typed error wherever it comes in — a wrong type or range
:class:`~repro.errors.GraphFormatError`, a name nothing is registered
under :class:`~repro.errors.ConfigurationError` — and never a raw
``TypeError`` from inside the engine. The signature table pins what each
entry point accepts and defaults to, so moving the defaults behind the
request cannot change them.
"""

import inspect
import json

import pytest

import repro
from repro import errors
from repro.core import MatchSession
from repro.core.plan import DEFAULT_MATCH_LIMIT, DEFAULT_STORE_LIMIT, MatchRequest
from repro.graph import Graph, erdos_renyi_graph
from repro.serve import MatchServer, MatchService
from repro.serve.protocol import graph_to_payload
from repro.utils.kernels import BitsetKernel

DATA = erdos_renyi_graph(40, 4.0, 3, seed=5)
QUERY = Graph(labels=[0, 1, 2], edges=[(0, 1), (1, 2)])

#: (option, malformed value, the error every entry point must raise)
MALFORMED = [
    ("match_limit", "ten", errors.GraphFormatError),
    ("match_limit", -1, errors.GraphFormatError),
    ("store_limit", -1, errors.GraphFormatError),
    ("store_limit", "x", errors.GraphFormatError),
    ("algorithm", "NOPE", errors.ConfigurationError),
    ("kernel", "nope", errors.ConfigurationError),
    # A kernel is a registry name; a backend enters through register_kernel.
    ("kernel", BitsetKernel(), errors.GraphFormatError),
]


def _service_call(method):
    def call(**option):
        with MatchService(workers=1) as service:
            service.add_graph("default", DATA)
            outcome = getattr(service, method)(QUERY, **option)
            return outcome.result() if method == "submit" else outcome
    return call


def _wire_match(**option):
    with MatchService(workers=1) as service:
        service.add_graph("default", DATA)
        reply = MatchServer(service, port=0)._dispatch(
            json.dumps({"op": "match", "query": graph_to_payload(QUERY), **option})
        )
    assert not reply["ok"], reply
    raise getattr(errors, reply["code"])(reply["error"])


#: (name, call taking one option as a keyword, options it accepts; ``None``:
#: all). The wire takes only what JSON carries, so no backend instance.
ENTRY_POINTS = [
    ("repro.match", lambda **o: repro.match(QUERY, DATA, **o), None),
    ("MatchSession.match", lambda **o: MatchSession(DATA).match(QUERY, **o), None),
    ("MatchSession.count_matches",
     lambda **o: MatchSession(DATA).count_matches(QUERY, **o), None),
    ("MatchSession.has_match", lambda **o: MatchSession(DATA).has_match(QUERY, **o),
     {"algorithm", "kernel"}),
    ("MatchSession.match_many",
     lambda **o: MatchSession(DATA).match_many([QUERY], **o), None),
    ("MatchService.match", _service_call("match"), None),
    ("MatchService.submit", _service_call("submit"), None),
    ("wire match", _wire_match, None),
]

CASES = [
    pytest.param(call, option, value, error, id=f"{name}-{option}={value!r}")
    for name, call, accepts in ENTRY_POINTS
    for option, value, error in MALFORMED
    if accepts is None or option in accepts
    if name != "wire match" or isinstance(value, (str, int))
]


@pytest.mark.parametrize("call, option, value, error", CASES)
def test_a_malformed_option_raises_the_services_error(call, option, value, error):
    with pytest.raises(error):
        call(**{option: value})


def test_the_request_keys_the_plan_not_the_caps():
    a = MatchRequest("GQL", "rows", match_limit=5, store_limit=0)
    b = MatchRequest("GQL", "rows", match_limit=None, store_limit=3, time_limit=1.0)
    assert a.key == b.key == ("GQL", "rows")
    assert MatchRequest().key == ("recommended", None)
    assert (MatchRequest().match_limit, MatchRequest().store_limit) == (
        DEFAULT_MATCH_LIMIT, DEFAULT_STORE_LIMIT
    )


_SESSION_CALL = [
    ("algorithm", None), ("match_limit", 100_000), ("time_limit", None),
    ("store_limit", 10_000), ("validate", True), ("kernel", None),
    ("cancel", None), ("n_workers", None),
]

#: Every public entry point: (callable, [(parameter, default or EMPTY)]).
EMPTY = inspect.Parameter.empty
SIGNATURES = [
    (repro.match, [
        ("query", EMPTY), ("data", EMPTY), ("algorithm", "recommended"),
        ("match_limit", 100_000), ("time_limit", None), ("store_limit", 10_000),
        ("validate", True), ("kernel", None), ("cancel", None), ("n_workers", None),
    ]),
    (repro.count_matches, [
        ("query", EMPTY), ("data", EMPTY), ("algorithm", "recommended"),
        ("match_limit", None), ("time_limit", None), ("kernel", None),
        ("store_limit", 0), ("validate", True), ("n_workers", None),
    ]),
    (repro.has_match, [
        ("query", EMPTY), ("data", EMPTY), ("algorithm", "recommended"),
        ("time_limit", None), ("kernel", None), ("store_limit", 0),
        ("validate", True), ("n_workers", None),
    ]),
    (MatchSession.__init__, [
        ("self", EMPTY), ("data", EMPTY), ("algorithm", "recommended"),
        ("kernel", None), ("prep_cache_size", 64), ("n_workers", None),
    ]),
    (MatchSession.match, [("self", EMPTY), ("query", EMPTY), *_SESSION_CALL]),
    (MatchSession.match_many, [("self", EMPTY), ("queries", EMPTY), *_SESSION_CALL]),
    (MatchSession.count_matches, [
        ("self", EMPTY), ("query", EMPTY), ("algorithm", None),
        ("match_limit", None), ("time_limit", None), ("store_limit", 0),
        ("validate", True), ("kernel", None), ("cancel", None), ("n_workers", None),
    ]),
    (MatchSession.has_match, [
        ("self", EMPTY), ("query", EMPTY), ("algorithm", None), ("time_limit", None),
        ("validate", True), ("kernel", None), ("cancel", None), ("n_workers", None),
    ]),
    (MatchService.__init__, [
        ("self", EMPTY), ("workers", 4), ("max_queue_depth", 64),
        ("default_budget", None), ("coalesce", True), ("algorithm", "recommended"),
        ("clock", None), ("n_workers", None),
    ]),
    (MatchService.submit, [("self", EMPTY), ("query", EMPTY), ("options", EMPTY)]),
    (MatchService.match, [("self", EMPTY), ("query", EMPTY), ("options", EMPTY)]),
    # The options submit and match accept by keyword, and their defaults.
    (MatchService._admit, [
        ("self", EMPTY), ("query", EMPTY), ("graph", "default"), ("tenant", "public"),
        ("algorithm", None), ("kernel", None), ("match_limit", 100_000),
        ("store_limit", 10_000), ("budget", None), ("validate", True),
    ]),
]


@pytest.mark.parametrize(
    "function, expected", SIGNATURES, ids=[f.__qualname__ for f, _ in SIGNATURES]
)
def test_public_signatures_are_pinned(function, expected):
    parameters = inspect.signature(function).parameters.values()
    assert [(p.name, p.default) for p in parameters] == expected
