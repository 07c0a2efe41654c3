"""The threaded front end and caller-runs ``MatchService.match``, over sockets.

What the thread-per-connection server must keep true that asyncio and the
pool used to give it for free: an over-long line gets a typed reply and
costs only its own connection, ``stop()`` is prompt and leaves no thread
behind, and the service's bounds — ``workers``, ``max_queue_depth``,
queued expiry, coalescing — hold when the execution runs on the thread
that read the request. Executions are parked on an injected hook inside
``session.match``, so every scenario is driven to its exact state and
nothing here depends on how long a query takes.
"""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

from repro.graph import erdos_renyi_graph, extract_query
from repro.obs import Tracer, tracing
from repro.serve import FakeClock, MatchServer, MatchService
from repro.serve.protocol import graph_to_payload
from repro.serve.server import _MAX_LINE_BYTES


@pytest.fixture(scope="module")
def data():
    return erdos_renyi_graph(120, 6.0, 4, seed=55)


@pytest.fixture(scope="module")
def queries(data):
    return [extract_query(data, 5, seed=seed) for seed in (9, 10)]


class Client:
    """One blocking JSON-lines connection."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        self.reader = self.sock.makefile("rb")

    def send(self, payload):
        self.sock.sendall((json.dumps(payload) + "\n").encode())

    def receive(self):
        line = self.reader.readline()
        assert line, "server closed the connection"
        return json.loads(line)

    def rpc(self, payload):
        self.send(payload)
        return self.receive()

    def close(self):
        self.reader.close()
        self.sock.close()


def match_request(query, **fields):
    return {"op": "match", "graph": "g", "query": graph_to_payload(query), **fields}


def wait_until(condition, what):
    deadline = time.monotonic() + 30
    while not condition():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.005)


class Harness:
    """A served service whose executions park inside ``session.match``."""

    def __init__(self, data, **service_kwargs):
        self.service = MatchService(**service_kwargs)
        self.service.add_graph("g", data)
        self.server = MatchServer(self.service, port=0)
        self.server.start()
        self.gate = threading.Event()
        self.entered = 0
        self.inside = 0
        self.inside_peak = 0
        self._lock = threading.Lock()
        session = self.service.session_for("public", "g")
        inner = session.match

        def parked_match(*args, **kwargs):
            with self._lock:
                self.entered += 1
                self.inside += 1
                self.inside_peak = max(self.inside_peak, self.inside)
            try:
                assert self.gate.wait(timeout=60)
                return inner(*args, **kwargs)
            finally:
                with self._lock:
                    self.inside -= 1

        session.match = parked_match
        self.clients = []

    def connect(self):
        self.clients.append(Client(self.server.port))
        return self.clients[-1]

    def counter(self, name):
        return self.service.stats()["counters"].get(name, 0)

    def close(self):
        self.gate.set()
        for client in self.clients:
            client.close()
        self.server.stop()
        self.service.close()


@pytest.fixture
def harness(data):
    made = []

    def make(**service_kwargs):
        made.append(Harness(data, **service_kwargs))
        return made[-1]

    yield make
    for h in made:
        h.close()


@pytest.fixture
def served(data):
    """A started server over a plain two-worker service."""
    service = MatchService(workers=2)
    service.add_graph("g", data)
    server = MatchServer(service, port=0)
    server.start()
    yield service, server
    server.stop()
    service.close()


class TestOversizedLine:
    def test_typed_error_then_close_and_others_keep_answering(self, served):
        _, server = served
        bystander = Client(server.port)
        assert bystander.rpc({"op": "ping"})["pong"]
        hog = Client(server.port)
        hog.sock.sendall(b"x" * (17 * 1024 * 1024) + b"\n")
        reply = hog.receive()
        assert reply["ok"] is False
        assert reply["code"] == "GraphFormatError"
        assert str(_MAX_LINE_BYTES) in reply["error"]
        assert hog.reader.readline() == b""  # one reply, then closed
        hog.close()
        assert bystander.rpc({"op": "ping"})["pong"]
        fresh = Client(server.port)
        assert fresh.rpc({"op": "ping"})["pong"]
        fresh.close()
        bystander.close()


class TestLifecycle:
    def test_stop_is_prompt_and_leaves_no_thread(self, served):
        service, server = served
        idle = [Client(server.port) for _ in range(3)]
        assert all(c.rpc({"op": "ping"})["pong"] for c in idle)
        began = time.monotonic()
        server.stop()
        assert time.monotonic() - began < 1.0
        service.close()
        # Open connections were shut down, not abandoned...
        assert all(c.reader.readline() == b"" for c in idle)
        for c in idle:
            c.close()
        # ...the listening socket is gone...
        with pytest.raises(OSError):
            socket.create_connection(("127.0.0.1", server.port), timeout=5)
        # ...and so is every thread the server or the service started.
        names = [t.name for t in threading.enumerate()]
        assert not [n for n in names if n.startswith("repro-serve")], names
        server.stop()  # idempotent


class TestCallerRunsBounds:
    def test_workers_bound_counts_caller_run_executions(self, harness, queries):
        h = harness(workers=1)
        first, second = h.connect(), h.connect()
        first.send(match_request(queries[0], id=1))
        wait_until(lambda: h.entered == 1, "the first execution to start")
        second.send(match_request(queries[1], id=2))
        wait_until(
            lambda: h.service.stats()["pending"] == 2, "the second admission"
        )
        time.sleep(0.2)  # a second execution would have started by now
        assert (h.entered, h.inside_peak) == (1, 1)
        h.gate.set()
        assert first.receive()["ok"] and second.receive()["ok"]
        assert h.inside_peak == 1
        assert h.counter("serve.executed") == 2
        assert h.service.stats()["queue_depth_peak"] >= 2

    def test_identical_query_on_a_second_socket_rides_the_caller_run_leader(
        self, harness, queries
    ):
        h = harness(workers=2)
        leader, follower = h.connect(), h.connect()
        request = match_request(queries[0], include_embeddings=True)
        leader.send(request)
        wait_until(lambda: h.entered == 1, "the leader to start executing")
        follower.send(request)
        wait_until(lambda: h.counter("serve.coalesced") == 1, "the follower")
        h.gate.set()
        led, rode = leader.receive(), follower.receive()
        assert led["ok"] and rode["ok"]
        assert (led["coalesced"], rode["coalesced"]) == (False, True)
        assert led["embeddings"] == rode["embeddings"]
        assert led["num_matches"] == rode["num_matches"] > 0
        assert h.entered == 1
        assert h.counter("serve.executed") == 1

    def test_queue_full_is_answered_while_a_caller_run_execution_holds_the_slot(
        self, harness, queries
    ):
        h = harness(workers=1, max_queue_depth=1)
        holder, bounced = h.connect(), h.connect()
        holder.send(match_request(queries[0]))
        wait_until(lambda: h.entered == 1, "the holder to start executing")
        reply = bounced.rpc(match_request(queries[1]))
        assert reply["ok"] is False and reply["code"] == "QueueFullError"
        assert h.counter("serve.rejected_queue_full") == 1
        h.gate.set()
        assert holder.receive()["ok"]
        # The slot is free again the moment the holder's reply is out.
        assert bounced.rpc(match_request(queries[1]))["ok"]

    def test_budget_spent_waiting_for_a_slot_expires_without_enumeration(
        self, data, queries
    ):
        # No sockets: the lone match() caller below is the connection
        # thread's stand-in, and time is a FakeClock.
        clock = FakeClock()
        service = MatchService(workers=1, clock=clock)
        service.add_graph("g", data)
        gate, running = threading.Event(), threading.Event()
        session = service.session_for("public", "g")
        inner, calls = session.match, []

        def parked_match(*args, **kwargs):
            calls.append(args[0])
            running.set()
            assert gate.wait(timeout=60)
            return inner(*args, **kwargs)

        session.match = parked_match
        try:
            blocker = service.submit(queries[0], graph="g")  # holds the slot
            assert running.wait(timeout=30)
            answer = []
            victim = threading.Thread(
                target=lambda: answer.append(
                    service.match(queries[1], graph="g", budget=1.0)
                )
            )
            victim.start()  # alone in match(): runs on its own thread
            wait_until(lambda: service.stats()["pending"] == 2, "the victim")
            clock.advance(2.0)
            gate.set()
            victim.join(timeout=30)
            assert not victim.is_alive()
            assert blocker.result(timeout=30).status == "ok"
        finally:
            gate.set()
            service.close()
        assert answer[0].status == "expired" and answer[0].result is None
        assert calls == [queries[0]]  # no engine touched for the victim
        counters = service.metrics.counters
        assert counters["serve.executed"] == 1
        assert counters["serve.expired"] == 1


class TestOneTracePerRequest:
    def test_execute_span_descends_from_the_request_span(self, served, queries):
        _, server = served
        tracer = Tracer()
        handle = server._handle_connection

        def traced_connection(conn):
            with tracing(tracer):  # the tracer is per thread: install it here
                handle(conn)

        server._handle_connection = traced_connection  # looked up per accept
        client = Client(server.port)
        assert client.rpc(match_request(queries[0]))["ok"]
        client.close()
        server.stop()  # joins the connection thread: its spans are all in
        by_id = {s.span_id: s for s in tracer.spans}
        (execute,) = [s for s in tracer.spans if s.name == "serve.execute"]
        lineage, at = [], execute
        while at.parent is not None:
            at = by_id[at.parent]
            lineage.append(at.name)
        assert "serve.request" in lineage
