"""Serving-tier throughput: MatchService under a duplicate-heavy load.

The workload models the regime the serving tier exists for: several
tenants' client threads hammering one resident data graph with a small
pool of query patterns, so at any instant many in-flight requests are
*identical*. With coalescing on, the service runs each distinct in-flight
query once and fans the result out to every waiter; with coalescing off,
every request pays its own enumeration. The benchmark measures sustained
QPS and p50/p99 response latency in both modes and reports the effective
QPS speedup — the acceptance bar is >= 2x on this duplicate-heavy shape.

Clients call ``service.match`` directly (no sockets), as the server's
connection threads do: the benchmark isolates the
admission/coalescing/execution machinery, not TCP framing. ``match`` runs
a lone caller's execution on the caller's thread and hands the rest to
the pool, so clients overlap — and coalesce — only while executions
outlast the interpreter's 5 ms switch interval; scale a smoke run down in
requests, not below ``--vertices 800 --match-limit 30000``. A barrier
lines all client threads up before the clock starts so the burst
actually overlaps.

Run directly (``python benchmarks/bench_server.py``) to append the
``coalescing_on`` and ``coalescing_off`` records to
``benchmarks/results/server.jsonl``. Flags scale the workload down for CI
smoke runs (``--vertices 800 --clients 4 --requests 8 --match-limit
30000``).
"""

from __future__ import annotations

import argparse
import sys
import threading
import time
from pathlib import Path

if __name__ == "__main__":  # standalone run: make src/ importable
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.graph.generators import rmat_graph
from repro.graph.query_gen import extract_query
from repro.serve import MatchService

import records

#: Defaults sized so enumeration dominates per-request cost (coalescing
#: then saves real work even when plan/prep caches are warm) while the
#: whole benchmark stays well under a minute.
DEFAULT_VERTICES = 1_500
DEFAULT_TENANTS = 3
DEFAULT_CLIENTS = 8
DEFAULT_WORKERS = 2
DEFAULT_DISTINCT = 2
DEFAULT_REQUESTS = 30
DEFAULT_QUERY_SIZE = 8
DEFAULT_MATCH_LIMIT = 30_000
DEFAULT_ALGORITHM = "GQL-opt"


def build_workload(vertices: int, distinct: int, query_size: int):
    """A resident data graph plus the distinct query pool."""
    data = rmat_graph(vertices, 10.0, 8, seed=11, clustering=0.15)
    pool = [
        extract_query(data, query_size, seed=seed) for seed in range(distinct)
    ]
    return data, pool


def run_mode(
    data,
    pool,
    coalesce: bool,
    tenants: int,
    clients: int,
    workers: int,
    requests_per_client: int,
    match_limit: int,
    algorithm: str,
):
    """One timed run; returns (seconds, latencies, counts, counters)."""
    service = MatchService(
        workers=workers,
        max_queue_depth=clients * requests_per_client + 1,
        coalesce=coalesce,
        algorithm=algorithm,
    )
    service.add_graph("bench", data)
    # Warm every tenant's plan/prep caches outside the timed region, so
    # both modes measure steady-state serving (enumeration + dispatch),
    # not first-touch compilation.
    for tenant in range(tenants):
        for query in pool:
            service.match(
                query,
                graph="bench",
                tenant=f"tenant-{tenant}",
                match_limit=1,
                store_limit=0,
            )
    warm_counters = dict(service.metrics.counters)

    barrier = threading.Barrier(clients + 1)
    latencies = [[] for _ in range(clients)]
    counts = [[] for _ in range(clients)]
    errors = []

    def client(cid: int) -> None:
        tenant = f"tenant-{cid % tenants}"
        barrier.wait()
        try:
            for i in range(requests_per_client):
                # Clients cycle the same small pool in phase: at any
                # instant most in-flight requests are duplicates.
                query = pool[i % len(pool)]
                start = time.perf_counter()
                response = service.match(
                    query,
                    graph="bench",
                    tenant=tenant,
                    match_limit=match_limit,
                    store_limit=0,
                )
                latencies[cid].append(time.perf_counter() - start)
                counts[cid].append(response.result.num_matches)
        except Exception as exc:  # surfaced after join
            errors.append(exc)

    threads = [
        threading.Thread(target=client, args=(cid,), daemon=True)
        for cid in range(clients)
    ]
    for t in threads:
        t.start()
    barrier.wait()
    start = time.perf_counter()
    for t in threads:
        t.join()
    seconds = time.perf_counter() - start
    service.close()
    if errors:
        raise errors[0]

    # Report only the timed burst: subtract the warm-up's counters.
    counters = {
        name: value - warm_counters.get(name, 0)
        for name, value in service.metrics.counters.items()
        if value - warm_counters.get(name, 0)
    }
    flat = sorted(x for per_client in latencies for x in per_client)
    return seconds, flat, counts, counters


def _percentile(sorted_values, q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(round(q * (len(sorted_values) - 1))))
    return sorted_values[index]


def run_server_benchmark(
    vertices: int = DEFAULT_VERTICES,
    tenants: int = DEFAULT_TENANTS,
    clients: int = DEFAULT_CLIENTS,
    workers: int = DEFAULT_WORKERS,
    distinct: int = DEFAULT_DISTINCT,
    requests_per_client: int = DEFAULT_REQUESTS,
    query_size: int = DEFAULT_QUERY_SIZE,
    match_limit: int = DEFAULT_MATCH_LIMIT,
    algorithm: str = DEFAULT_ALGORITHM,
) -> list:
    """Run both modes on one workload; returns one record per mode.

    The ``coalescing_on`` record also carries the cross-mode facts: its
    effective-QPS speedup over the uncoalesced run and whether both
    modes returned the same match count for every request.
    """
    data, pool = build_workload(vertices, distinct, query_size)
    total = clients * requests_per_client
    key = {
        "vertices": vertices, "tenants": tenants, "clients": clients,
        "workers": workers, "distinct": distinct,
        "requests_per_client": requests_per_client,
        "query_size": query_size, "match_limit": match_limit,
        "algorithm": algorithm,
    }

    by_mode = {}
    mode_counts = {}
    for name, coalesce in (("coalescing_on", True), ("coalescing_off", False)):
        seconds, latencies, counts, counters = run_mode(
            data,
            pool,
            coalesce,
            tenants=tenants,
            clients=clients,
            workers=workers,
            requests_per_client=requests_per_client,
            match_limit=match_limit,
            algorithm=algorithm,
        )
        metrics = {
            "seconds_total": seconds,
            "qps": total / seconds,
            "p50_ms": _percentile(latencies, 0.50) * 1000.0,
            "p99_ms": _percentile(latencies, 0.99) * 1000.0,
        }
        counters = dict(counters, total_requests=total)
        by_mode[name] = records.record("server", name, key, metrics, counters)
        mode_counts[name] = counts

    on, off = by_mode["coalescing_on"], by_mode["coalescing_off"]
    on["metrics"]["speedup_effective_qps"] = (
        on["metrics"]["qps"] / off["metrics"]["qps"]
    )
    on["counters"]["results_agree"] = int(
        mode_counts["coalescing_on"] == mode_counts["coalescing_off"]
    )
    return [on, off]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--vertices", type=int, default=DEFAULT_VERTICES)
    parser.add_argument("--tenants", type=int, default=DEFAULT_TENANTS)
    parser.add_argument("--clients", type=int, default=DEFAULT_CLIENTS)
    parser.add_argument("--workers", type=int, default=DEFAULT_WORKERS)
    parser.add_argument("--distinct", type=int, default=DEFAULT_DISTINCT)
    parser.add_argument(
        "--requests", type=int, default=DEFAULT_REQUESTS,
        dest="requests_per_client", help="requests per client thread",
    )
    parser.add_argument("--query-size", type=int, default=DEFAULT_QUERY_SIZE)
    parser.add_argument("--match-limit", type=int, default=DEFAULT_MATCH_LIMIT)
    parser.add_argument("--algorithm", default=DEFAULT_ALGORITHM)
    return records.main("server", run_server_benchmark, parser, argv)


if __name__ == "__main__":
    sys.exit(main())
