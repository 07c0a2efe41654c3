"""Asyncio front-end for :class:`~repro.serve.service.MatchService`.

The split of labor: asyncio owns the sockets (accept, read lines, write
lines — thousands of idle connections are cheap), the service's thread
pool owns the CPU-bound matching. The bridge is
``asyncio.wrap_future`` over the ``concurrent.futures.Future`` that
``MatchService.submit`` returns, so the event loop never blocks on an
enumeration — slow queries on one connection do not stall pings on
another.

A ``match`` request goes parse → check the query payload → look the
checked payload up in the table of decoded queries → (first sight only)
build the :class:`~repro.graph.graph.Graph` → ``submit``, which validates
a query it has not seen pass, checks the options and admits. A resident
service is asked the same few query shapes over and over, and everything
before admission is a pure function of the payload: a repeated query is
the *same object* as last time, so its validation is skipped and its
memoized hash and fingerprint answer the coalescing, plan-cache and
prep-cache probes.

Admission failures (queue full, spent budget, unknown graph, invalid
query, malformed option) raise synchronously in ``submit``; the handler
converts them to error payloads with the exception class name as
``code``, which is how a remote client distinguishes backpressure (retry
later) from a bad request (don't).

Usage::

    service = MatchService(workers=4)
    service.add_graph("default", data)
    server = MatchServer(service, host="127.0.0.1", port=7437)
    asyncio.run(server.serve_forever())

Tests bind ``port=0`` and read the chosen port from
:attr:`MatchServer.port` after :meth:`MatchServer.start`.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, Optional

from repro.core.plan import LRUCache
from repro.errors import GraphFormatError, ReproError
from repro.graph.graph import Graph
from repro.obs import span
from repro.serve import protocol
from repro.serve.service import MatchService

__all__ = ["MatchServer"]

#: Generous per-line cap: a request line holds at most a small query
#: graph (or an ``add_graph`` payload), never a data graph of real size.
_MAX_LINE_BYTES = 16 * 1024 * 1024

#: How many decoded queries the server keeps: the plan cache's default
#: capacity — a query whose plan was evicted has no claim on staying
#: decoded.
_INTERN_CAPACITY = 256

#: Largest query kept, as ``len(labels) + len(edges)`` of its payload:
#: 32 vertices, the paper's largest query sets, with every possible edge.
#: Up to here decoding costs about what matching does; past it the payload
#: decodes on every arrival, so 256 hostile 16 MB lines pin nothing.
_INTERN_MAX_SIZE = 32 + 32 * 31 // 2


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
        self._server: Optional[asyncio.AbstractServer] = None
        # Checked payload -> the Graph built from it, which submit() has
        # accepted once. Read and written only between awaits of
        # _handle_match, i.e. on the event-loop thread: a lookup and its
        # insert never interleave with another connection's.
        self._queries = LRUCache(_INTERN_CAPACITY)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting; resolves :attr:`port` when 0."""
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.host,
            port=self.port,
            limit=_MAX_LINE_BYTES,
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Stop accepting and close the listening socket."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def serve_forever(self) -> None:
        """Start (if needed) and serve until cancelled."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    # ------------------------------------------------------------------
    # Per-connection loop
    # ------------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ConnectionError, asyncio.LimitOverrunError):
                    break
                if not line:
                    break
                text = line.decode("utf-8", errors="replace").strip()
                if not text:
                    continue
                payload = await self._dispatch(text)
                writer.write(protocol.encode_response(payload))
                try:
                    await writer.drain()
                except ConnectionError:
                    break
        finally:
            # Fire-and-forget close: awaiting wait_closed() here would be
            # cancelled (and raise) when the loop tears down mid-handler.
            try:
                writer.close()
            except (ConnectionError, OSError):
                pass

    async def _dispatch(self, text: str) -> Dict[str, Any]:
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
                    return await self._handle_mutate(request, request_id)
                return await self._handle_match(request, request_id)
        except ReproError as exc:
            return protocol.error_response(exc, request_id)
        except Exception as exc:  # keep the connection alive on bugs too
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

    async def _handle_mutate(
        self, request: Dict[str, Any], request_id: Any
    ) -> Dict[str, Any]:
        mutations = request.get("mutations")
        if not isinstance(mutations, list):
            raise GraphFormatError("mutate needs a 'mutations' list")
        # The apply + session fan-out is CPU work (snapshot rebuild,
        # subscription re-enumeration) — keep it off the event loop.
        outcome = await asyncio.to_thread(
            self.service.mutate, request.get("graph", "default"), mutations
        )
        return self._ok(
            request_id,
            graph=outcome.graph,
            epoch=outcome.epoch,
            added_edges=len(outcome.delta.added_edges),
            removed_edges=len(outcome.delta.removed_edges),
            added_vertices=len(outcome.delta.added_vertices),
        )

    async def _handle_match(
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
            budget /= 1000.0  # anything else is for submit to reject
        submit_kwargs: Dict[str, Any] = {
            "graph": request.get("graph", "default"),
            "tenant": request.get("tenant", "public"),
            "budget": budget,
            "validate": not known,
        }
        for key in ("algorithm", "kernel"):
            if request.get(key) is not None:
                submit_kwargs[key] = request[key]
        if "match_limit" in request:
            submit_kwargs["match_limit"] = request["match_limit"]
        if "store_limit" in request:
            submit_kwargs["store_limit"] = request["store_limit"]
        future = self.service.submit(query, **submit_kwargs)
        if slot is not None and not known:
            # Admitted, so it passed validate_query: invalid queries are
            # never kept and are rejected (and counted) on every arrival.
            self._queries.put(slot, query)
        response = await asyncio.wrap_future(future)
        return protocol.match_response(
            response,
            request_id,
            include_embeddings=bool(request.get("include_embeddings")),
        )
