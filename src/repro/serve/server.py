"""Thread-per-connection front end for :class:`~repro.serve.service.MatchService`.

A request runs on the thread that read it. One daemon thread per
connection reads a line, dispatches it and ``sendall``s the reply; a
``match`` goes through :meth:`MatchService.match`, which runs a lone
caller's execution on the caller's thread — no event loop, no hand-off to
a pool, no wake-up back. Every client the repository ships holds one
connection and waits for each reply (``benchmarks/e2e/README.md``), so a
thread per connection costs a handful of threads, each blocked in
``recv`` between requests. A slow query occupies its own connection's
thread only — pings on another connection keep answering — and the
service's ``workers`` bound, queue depth and coalescing hold across
connections as they do across :meth:`MatchService.submit` callers.

A ``match`` request goes parse → check the query payload → look the
checked payload up in the table of decoded queries → (first sight only)
build the :class:`~repro.graph.graph.Graph` → ``match``, which validates
a query it has not seen pass, checks the options and admits. Everything
before admission is a pure function of the payload, so a repeated query
is the *same object* as last time: its validation is skipped and its
memoized hash answers the coalescing and prep-cache probes.

Admission failures (queue full, spent budget, unknown graph, invalid
query, malformed option) raise synchronously in ``match``; the handler
answers them with the exception class name as ``code``, which is how a
client tells backpressure (retry later) from a bad request (don't). A
request line over 16 MB gets one ``GraphFormatError`` line, then its
connection is closed.

Usage::

    service = MatchService(workers=4)
    service.add_graph("default", data)
    MatchServer(service, host="127.0.0.1", port=7437).serve_forever()

Tests bind ``port=0`` and read the chosen port from
:attr:`MatchServer.port` after :meth:`MatchServer.start`.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Any, Dict, Optional

from repro.core.plan import LRUCache
from repro.errors import GraphFormatError
from repro.graph.graph import Graph
from repro.obs import span
from repro.serve import protocol
from repro.serve.service import MatchService

__all__ = ["MatchServer"]

#: Generous per-line cap: a request line holds at most a small query
#: graph (or an ``add_graph`` payload), never a data graph of real size.
_MAX_LINE_BYTES = 16 * 1024 * 1024

#: How many decoded queries the server keeps, one table for every tenant:
#: four sessions' worth of the default prepared-query capacity (64), so a
#: query its session still holds stays decoded too.
_INTERN_CAPACITY = 256

#: Largest query kept, as ``len(labels) + len(edges)`` of its payload:
#: 32 vertices, the paper's largest query sets, with every possible edge.
#: Up to here decoding costs about what matching does; past it the payload
#: decodes on every arrival, so 256 hostile 16 MB lines pin nothing.
_INTERN_MAX_SIZE = 32 + 32 * 31 // 2

#: How long :meth:`MatchServer.stop` waits for connection threads in all.
_STOP_JOIN_SECONDS = 0.5


class MatchServer:
    """A JSON-lines TCP server over one :class:`MatchService`."""

    def __init__(
        self,
        service: MatchService,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._listener: Optional[socket.socket] = None
        self._acceptor: Optional[threading.Thread] = None
        # Open connections and their threads, for stop() to shut down.
        self._connections: Dict[socket.socket, threading.Thread] = {}
        self._lock = threading.Lock()
        # Checked payload -> the Graph built from it, which match() has
        # accepted once. Shared by every connection thread under the
        # LRUCache's own lock: two threads that miss on the same payload
        # both build and validate it, and the last put wins.
        self._queries = LRUCache(_INTERN_CAPACITY)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Bind and start accepting; resolves :attr:`port` when 0."""
        self._listener = socket.create_server((self.host, self.port))
        self.port = self._listener.getsockname()[1]
        self._acceptor = threading.Thread(
            target=self._accept_loop, args=(self._listener,),
            name="repro-serve-accept", daemon=True,
        )
        self._acceptor.start()

    def stop(self) -> None:
        """Stop accepting, close the listening socket and every open
        connection; a thread mid-request exits when its request ends."""
        listener, self._listener = self._listener, None
        if listener is None:
            return
        try:
            listener.shutdown(socket.SHUT_RDWR)  # wakes the blocked accept()
        except OSError:
            pass
        listener.close()
        self._acceptor.join()  # after which nothing is added below
        with self._lock:
            connections = dict(self._connections)
        for conn in connections:
            try:
                conn.shutdown(socket.SHUT_RDWR)  # its readline() sees EOF
            except OSError:
                pass
        deadline = time.monotonic() + _STOP_JOIN_SECONDS
        for thread in connections.values():
            thread.join(max(0.0, deadline - time.monotonic()))

    def serve_forever(self) -> None:
        """Start (if needed) and serve until :meth:`stop` or an interrupt."""
        if self._listener is None:
            self.start()
        self._acceptor.join()

    def _accept_loop(self, listener: socket.socket) -> None:
        while True:
            try:
                conn, _ = listener.accept()
            except OSError:
                if self._listener is None:  # stop() shut the listener down
                    return
                time.sleep(0.05)  # out of descriptors, or the peer gave up
                continue
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            thread = threading.Thread(
                target=self._handle_connection, args=(conn,),
                name="repro-serve-conn", daemon=True,
            )
            with self._lock:
                self._connections[conn] = thread
            thread.start()

    # ------------------------------------------------------------------
    # Per-connection loop
    # ------------------------------------------------------------------

    def _handle_connection(self, conn: socket.socket) -> None:
        try:
            with conn, conn.makefile("rb") as reader:
                while True:
                    line = reader.readline(_MAX_LINE_BYTES + 1)
                    if len(line) > _MAX_LINE_BYTES:
                        # Read the rest out (in pieces, keeping none) so
                        # the reply is not lost to a reset, then hang up.
                        while line and not line.endswith(b"\n"):
                            line = reader.readline(1 << 20)
                        payload = protocol.error_response(GraphFormatError(
                            f"request line exceeds {_MAX_LINE_BYTES} bytes"
                        ))
                        conn.sendall(protocol.encode_response(payload))
                        break
                    if not line:
                        break
                    text = line.decode("utf-8", errors="replace").strip()
                    if text:
                        payload = self._dispatch(text)
                        conn.sendall(protocol.encode_response(payload))
        except OSError:  # the peer went away, or stop() shut us down
            pass
        finally:
            with self._lock:
                self._connections.pop(conn, None)

    def _dispatch(self, text: str) -> Dict[str, Any]:
        request_id: Any = None
        try:
            request = protocol.parse_request(text)
            request_id = request.get("id")
            op = request["op"]
            with span("serve.request", op=op):
                if op == "ping":
                    return self._ok(request_id, pong=True)
                if op == "graphs":
                    return self._ok(request_id, graphs=self.service.graphs())
                if op == "stats":
                    stats = self.service.stats()
                    stats["interned"] = len(self._queries)
                    return self._ok(request_id, stats=stats)
                if op == "add_graph":
                    return self._handle_add_graph(request, request_id)
                if op == "mutate":
                    return self._handle_mutate(request, request_id)
                return self._handle_match(request, request_id)
        except Exception as exc:  # a ReproError, or a bug: answer either
            return protocol.error_response(exc, request_id)

    @staticmethod
    def _ok(request_id: Any, **fields: Any) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"ok": True}
        payload.update(fields)
        if request_id is not None:
            payload["id"] = request_id
        return payload

    def _handle_add_graph(
        self, request: Dict[str, Any], request_id: Any
    ) -> Dict[str, Any]:
        name = request.get("name")
        if not isinstance(name, str) or not name:
            raise GraphFormatError("add_graph needs a non-empty 'name'")
        graph = protocol.graph_from_payload(request.get("graph"))
        self.service.add_graph(name, graph, dynamic=bool(request.get("dynamic")))
        return self._ok(
            request_id,
            name=name,
            num_vertices=graph.num_vertices,
            num_edges=graph.num_edges,
        )

    def _handle_mutate(
        self, request: Dict[str, Any], request_id: Any
    ) -> Dict[str, Any]:
        mutations = request.get("mutations")
        if not isinstance(mutations, list):
            raise GraphFormatError("mutate needs a 'mutations' list")
        outcome = self.service.mutate(request.get("graph", "default"), mutations)
        return self._ok(
            request_id,
            graph=outcome.graph,
            epoch=outcome.epoch,
            added_edges=len(outcome.delta.added_edges),
            removed_edges=len(outcome.delta.removed_edges),
            added_vertices=len(outcome.delta.added_vertices),
        )

    def _handle_match(
        self, request: Dict[str, Any], request_id: Any
    ) -> Dict[str, Any]:
        labels, pairs = protocol.check_graph_payload(request.get("query"))
        slot = query = None
        if len(labels) + len(pairs) > _INTERN_MAX_SIZE:
            self.service.count("serve.interned_skipped")
        else:
            slot = (tuple(labels), tuple(pairs))
            query = self._queries.get(slot)
            self.service.count(
                "serve.interned_misses" if query is None else "serve.interned_hits"
            )
        known = query is not None
        if not known:
            query = Graph(labels=labels, edges=pairs)
        budget = request.get("budget_ms")
        if isinstance(budget, (int, float)):
            budget /= 1000.0  # anything else is for match to reject
        options: Dict[str, Any] = {
            "graph": request.get("graph", "default"),
            "tenant": request.get("tenant", "public"),
            "budget": budget,
            "validate": not known,
        }
        for key in ("algorithm", "kernel"):
            if request.get(key) is not None:
                options[key] = request[key]
        for key in ("match_limit", "store_limit"):
            if key in request:
                options[key] = request[key]
        response = self.service.match(query, **options)
        if slot is not None and not known:
            # Answered, so it passed validate_query: invalid queries are
            # never kept and are rejected (and counted) on every arrival.
            self._queries.put(slot, query)
        return protocol.match_response(
            response,
            request_id,
            include_embeddings=bool(request.get("include_embeddings")),
        )
