"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``match``          — run one algorithm on a query/data pair of graph files
* ``compare``        — run several presets on one pair and print a leaderboard
* ``convert``        — convert between the ``.graph`` text and ``.rgf`` binary formats
* ``generate``       — write a synthetic data graph (RMAT or Erdős–Rényi)
* ``extract-query``  — extract a random-walk query from a data graph
* ``datasets``       — list (or materialize) the paper's dataset stand-ins
* ``algorithms``     — list the available presets
* ``fuzz``           — differential fuzzing with planted ground truth
* ``serve``          — run the JSON-lines matching server over resident graphs
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from repro.core import MatchSession, algorithm_components, available_algorithms, match
from repro.core.plan import DEFAULT_MATCH_LIMIT
from repro.errors import ReproError
from repro.glasgow import glasgow_match
from repro.graph import (
    erdos_renyi_graph,
    extract_query,
    load_graph,
    rmat_graph,
    save_graph,
)
from repro.obs import Tracer, tracing
from repro.study import DATASETS, format_table, load_dataset
from repro.utils.kernels import available_kernels

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="In-memory subgraph matching (SIGMOD'20 study framework)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # The request flags `match` and `compare` share; their values are
    # checked where they become a MatchRequest.
    request = argparse.ArgumentParser(add_help=False)
    request.add_argument("--match-limit", type=int, default=DEFAULT_MATCH_LIMIT)
    request.add_argument("--time-limit", type=float, default=None)
    request.add_argument(
        "--kernel", "-k", choices=available_kernels(), default=None,
        help="intersection backend for the Algorithm 5 hot path "
        "(default: auto, rows when they fit, numpy otherwise)",
    )

    p_match = sub.add_parser(
        "match", parents=[request], help="match a query against a data graph"
    )
    p_match.add_argument("--query", "-q", required=True, help=".graph file")
    p_match.add_argument("--data", "-d", required=True, help=".graph file")
    p_match.add_argument(
        "--algorithm", "-a", default="recommended",
        help="preset name, 'GLW' for Glasgow, or 'recommended'",
    )
    p_match.add_argument(
        "--workers", "-w", type=int, default=None,
        help="intra-query worker processes for eligible plans "
        "(default: $REPRO_WORKERS, else sequential; results identical)",
    )
    p_match.add_argument(
        "--show", type=int, default=3, help="embeddings to print"
    )
    p_match.add_argument(
        "--trace", metavar="OUT.JSONL", default=None,
        help="write a span trace of the run as JSONL "
        "(schema: repro.trace/v1; see docs/architecture.md)",
    )
    p_match.add_argument(
        "--metrics-out", metavar="OUT.JSON", default=None,
        help="write the run's cross-layer counters as JSON",
    )

    p_compare = sub.add_parser(
        "compare", parents=[request],
        help="run several presets on one query/data pair",
    )
    p_compare.add_argument("--query", "-q", required=True)
    p_compare.add_argument("--data", "-d", required=True)
    p_compare.add_argument(
        "--algorithms",
        "-a",
        nargs="+",
        default=["GQLfs", "RIfs", "CECI", "DP", "QSI", "GLW"],
    )

    p_convert = sub.add_parser(
        "convert",
        help="convert a graph between the .graph text and .rgf binary "
        "formats (an .rgf data graph then opens memmap-backed in O(header))",
    )
    p_convert.add_argument(
        "--input", "-i", required=True,
        help="source graph (.graph text or .rgf binary, sniffed by magic)",
    )
    p_convert.add_argument(
        "--output", "-o", required=True,
        help="destination; an .rgf suffix writes the binary format, "
        "anything else the text format",
    )
    p_convert.add_argument(
        "--validate", action="store_true",
        help="re-open the written file and verify segment checksums and "
        "CSR invariants",
    )

    p_generate = sub.add_parser("generate", help="write a synthetic data graph")
    p_generate.add_argument("--model", choices=["rmat", "er"], default="rmat")
    p_generate.add_argument("--vertices", "-n", type=int, required=True)
    p_generate.add_argument("--degree", type=float, default=8.0)
    p_generate.add_argument("--labels", type=int, default=16)
    p_generate.add_argument("--seed", type=int, default=0)
    p_generate.add_argument("--clustering", type=float, default=0.0)
    p_generate.add_argument("--output", "-o", required=True)

    p_extract = sub.add_parser(
        "extract-query", help="extract a random-walk query from a data graph"
    )
    p_extract.add_argument("--data", "-d", required=True)
    p_extract.add_argument("--size", "-s", type=int, required=True)
    p_extract.add_argument(
        "--density", choices=["dense", "sparse"], default=None
    )
    p_extract.add_argument("--seed", type=int, default=0)
    p_extract.add_argument("--output", "-o", required=True)

    p_datasets = sub.add_parser(
        "datasets", help="list or materialize the Table 3 stand-ins"
    )
    p_datasets.add_argument(
        "--build", metavar="KEY", default=None,
        help="build this stand-in and write it to --output",
    )
    p_datasets.add_argument("--output", "-o", default=None)

    sub.add_parser("algorithms", help="list the available presets")

    p_fuzz = sub.add_parser(
        "fuzz",
        help="differential fuzzing: planted-embedding cases across all "
        "presets, kernels, sessions and oracles",
    )
    p_fuzz.add_argument(
        "--cases", type=int, default=200,
        help="number of planted cases to generate (default 200)",
    )
    p_fuzz.add_argument("--seed", type=int, default=0)
    p_fuzz.add_argument(
        "--max-seconds", type=float, default=None,
        help="wall-clock box for the whole run (default unbounded)",
    )
    p_fuzz.add_argument(
        "--corpus-dir", default=None,
        help="directory for shrunk JSON repro files (and --replay input)",
    )
    p_fuzz.add_argument(
        "--replay", action="store_true",
        help="replay the repro files in --corpus-dir instead of fuzzing",
    )
    p_fuzz.add_argument(
        "--no-shrink", action="store_true",
        help="write repro files without minimizing them first",
    )
    p_fuzz.add_argument(
        "--max-failures", type=int, default=10,
        help="stop after this many divergent cases (default 10)",
    )
    p_fuzz.add_argument(
        "--mutate", action="store_true",
        help="also run the mutation axis: seeded mutation scripts with "
        "the mutate-then-match differential after every batch",
    )

    p_serve = sub.add_parser(
        "serve",
        help="serve resident graphs over a JSON-lines TCP protocol "
        "(multi-tenant sessions, coalescing, deadlines, backpressure)",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=7437,
        help="TCP port (0 picks a free one and prints it)",
    )
    p_serve.add_argument(
        "--graph", "-g", action="append", default=[], metavar="NAME=PATH",
        help="resident graph to load at startup (repeatable); "
        "a bare PATH is served as 'default'",
    )
    p_serve.add_argument(
        "--workers", type=int, default=4,
        help="matching worker threads (default 4)",
    )
    p_serve.add_argument(
        "--queue-depth", type=int, default=64,
        help="max pending executions before backpressure (default 64)",
    )
    p_serve.add_argument(
        "--default-budget-ms", type=float, default=None,
        help="budget applied to requests that bring none (default none)",
    )
    p_serve.add_argument(
        "--no-coalesce", action="store_true",
        help="disable sharing one execution among identical in-flight "
        "requests",
    )
    p_serve.add_argument(
        "--algorithm", "-a", default="recommended",
        help="service-wide default preset (requests may override)",
    )
    p_serve.add_argument(
        "--query-workers", type=int, default=None,
        help="intra-query worker processes per eligible match "
        "(default: $REPRO_WORKERS, else sequential)",
    )
    return parser


def _cmd_match(args: argparse.Namespace) -> int:
    query = load_graph(args.query)
    data = load_graph(args.data)
    tracer = Tracer() if args.trace else None

    def run():
        if args.algorithm == "GLW":
            return glasgow_match(
                query, data,
                match_limit=args.match_limit, time_limit=args.time_limit,
            )
        return match(
            query, data,
            algorithm=args.algorithm,
            match_limit=args.match_limit, time_limit=args.time_limit,
            kernel=args.kernel, n_workers=args.workers,
        )

    if tracer is not None:
        with tracing(tracer):
            result = run()
    else:
        result = run()
    status = "solved" if result.solved else "UNSOLVED (time limit)"
    print(f"algorithm     : {result.algorithm}")
    if getattr(result, "kernel", None) is not None:
        print(f"kernel        : {result.kernel}")
    print(f"status        : {status}")
    print(f"matches       : {result.num_matches}")
    print(f"preprocessing : {result.preprocessing_ms:.3f} ms")
    print(f"enumeration   : {result.enumeration_ms:.3f} ms")
    for mapping in result.mappings[: args.show]:
        print(f"  match: {mapping}")
    if tracer is not None:
        count = tracer.write_jsonl(args.trace)
        print(f"trace         : {count} spans -> {args.trace}")
    if args.metrics_out:
        metrics = getattr(result, "metrics", None)
        payload = metrics.to_dict() if metrics is not None else {}
        with open(args.metrics_out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        print(f"metrics       : {args.metrics_out}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    query = load_graph(args.query)
    data = load_graph(args.data)
    # One session serves every preset: the data graph and kernel indexes
    # are resident once, and only the per-preset pipeline re-runs.
    session = MatchSession(data, kernel=args.kernel, prep_cache_size=0)
    rows = []
    for name in args.algorithms:
        if name == "GLW":
            result = glasgow_match(
                query, data,
                match_limit=args.match_limit, time_limit=args.time_limit,
                store_limit=0,
            )
        else:
            result = session.match(
                query,
                algorithm=name,
                match_limit=args.match_limit, time_limit=args.time_limit,
                store_limit=0,
            )
        rows.append(
            [
                name,
                result.num_matches,
                round(result.preprocessing_ms, 3),
                round(result.enumeration_ms, 3),
                round(result.total_ms, 3),
                "yes" if result.solved else "NO",
            ]
        )
    rows.sort(key=lambda r: r[4])
    print(
        format_table(
            ["algorithm", "matches", "prep ms", "enum ms", "total ms", "solved"],
            rows,
        )
    )
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    graph = load_graph(args.input)
    save_graph(graph, args.output)
    if args.validate:
        from pathlib import Path

        from repro.graph.store import MmapStore

        if Path(args.output).suffix == ".rgf":
            store = MmapStore(args.output, validate=True)
            print(f"validated {store!r}: checksums and CSR invariants ok")
            store.close()
        else:
            reread = load_graph(args.output)
            if reread != graph:
                print("error: text round-trip mismatch", file=sys.stderr)
                return 1
            print(f"validated {args.output}: text round-trip identical")
    print(f"wrote {graph} to {args.output}")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.model == "rmat":
        graph = rmat_graph(
            args.vertices, args.degree, args.labels,
            seed=args.seed, clustering=args.clustering,
        )
    else:
        graph = erdos_renyi_graph(
            args.vertices, args.degree, args.labels, seed=args.seed
        )
    save_graph(graph, args.output)
    print(f"wrote {graph} to {args.output}")
    return 0


def _cmd_extract_query(args: argparse.Namespace) -> int:
    data = load_graph(args.data)
    query = extract_query(
        data, args.size, seed=args.seed, density=args.density
    )
    save_graph(query, args.output)
    print(f"wrote {query} (d(q)={query.average_degree:.2f}) to {args.output}")
    return 0


def _cmd_datasets(args: argparse.Namespace) -> int:
    if args.build is not None:
        if args.output is None:
            print("error: --build requires --output", file=sys.stderr)
            return 2
        graph = load_dataset(args.build)
        save_graph(graph, args.output)
        print(f"wrote {args.build} stand-in {graph} to {args.output}")
        return 0
    rows = []
    for spec in DATASETS.values():
        rows.append(
            [
                spec.key,
                spec.full_name,
                spec.category,
                spec.num_vertices,
                spec.avg_degree,
                spec.num_labels,
                f"{spec.paper_vertices}/{spec.paper_edges}/{spec.paper_labels}",
            ]
        )
    print(
        format_table(
            ["key", "name", "category", "|V|", "d", "|Σ|", "paper |V|/|E|/|Σ|"],
            rows,
            title="Dataset stand-ins (see DESIGN.md for the substitution rules)",
        )
    )
    return 0


def _cmd_algorithms() -> int:
    rows = []
    for name in available_algorithms():
        parts = algorithm_components(name)
        rows.append(
            [
                name,
                parts["filter"],
                parts["ordering"],
                parts["lc"],
                parts["aux"],
                parts["failing_sets"],
            ]
        )
    print(
        format_table(
            ["algorithm", "filter", "ordering", "ComputeLC", "aux", "failing sets"],
            rows,
            title="Presets (components resolved from the registry)",
        )
    )
    print("GLW (Glasgow constraint-programming solver)")
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.qa import replay_corpus, run_fuzz

    if args.replay:
        if args.corpus_dir is None:
            print("error: --replay requires --corpus-dir", file=sys.stderr)
            return 2
        results = replay_corpus(args.corpus_dir)
        if not results:
            print(f"no repro files in {args.corpus_dir}")
            return 0
        regressions = 0
        for path, reproduces in results:
            status = "REPRODUCES" if reproduces else "fixed"
            regressions += int(reproduces)
            print(f"{status:>10}  {path}")
        print(f"replayed {len(results)} repro(s), {regressions} regression(s)")
        return 1 if regressions else 0

    report = run_fuzz(
        cases=args.cases,
        seed=args.seed,
        max_seconds=args.max_seconds,
        corpus_dir=args.corpus_dir,
        shrink=not args.no_shrink,
        max_failures=args.max_failures,
        mutate=args.mutate,
    )
    print(report.summary())
    for divergence in report.divergences:
        print(f"  [{divergence.kind}] seed={divergence.seed}: "
              f"{divergence.detail}")
    for path in report.repro_files:
        print(f"  repro written: {path}")
    return 0 if report.clean else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import MatchServer, MatchService

    service = MatchService(
        workers=args.workers,
        max_queue_depth=args.queue_depth,
        default_budget=(
            args.default_budget_ms / 1000.0
            if args.default_budget_ms is not None
            else None
        ),
        coalesce=not args.no_coalesce,
        algorithm=args.algorithm,
        n_workers=args.query_workers,
    )
    for spec in args.graph:
        name, sep, path = spec.partition("=")
        if not sep:
            name, path = "default", spec
        graph = load_graph(path)
        service.add_graph(name, graph)
        print(f"resident graph {name!r}: {graph}")
    if not args.graph:
        print("no --graph given: clients must add_graph over the wire")

    server = MatchServer(service, host=args.host, port=args.port)
    server.start()
    print(f"serving on {args.host}:{server.port} "
          f"(workers={args.workers}, queue={args.queue_depth}, "
          f"coalesce={not args.no_coalesce})")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        service.close(wait=False, cancel_inflight=True)
        server.stop()
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    A library error (a malformed option, an unknown preset, a bad graph
    file, …) prints one ``error:`` line to stderr and exits 2, the status
    argparse uses for a bad command line.
    """
    args = build_parser().parse_args(argv)
    handlers = {
        "match": lambda: _cmd_match(args),
        "compare": lambda: _cmd_compare(args),
        "convert": lambda: _cmd_convert(args),
        "generate": lambda: _cmd_generate(args),
        "extract-query": lambda: _cmd_extract_query(args),
        "datasets": lambda: _cmd_datasets(args),
        "algorithms": _cmd_algorithms,
        "fuzz": lambda: _cmd_fuzz(args),
        "serve": lambda: _cmd_serve(args),
    }
    try:
        return handlers[args.command]()
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
