"""The serve benchmark behind ``repro bench-serve`` and BENCH_serve.json.

One deterministic heavy-traffic tape served on a small simulated
cluster, plus a miniature Fig. 3-style layer sweep, folded into a
single JSON document committed at the repo root (``BENCH_serve.json``).
Because the whole pipeline is simulated and seeded, the document is
reproducible bit for bit: CI regenerates it and fails on drift, which
turns service throughput/latency regressions into diffable facts.

Fields the acceptance gate reads: ``serve.throughput.queries_per_sec``,
``serve.throughput.messages_per_sec``, ``serve.latency.p50_us`` /
``p95_us`` / ``p99_us``.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.bench.scenarios import Scenario, run_scenario

__all__ = [
    "BENCH_FORMAT",
    "serve_benchmark",
]

BENCH_FORMAT = "repro-bench-serve/v1"

#: The committed benchmark's shape: small enough for a CI smoke lane,
#: big enough that batching, caching, and backpressure all engage.
DEFAULT_TAPE_QUERIES = 48
DEFAULT_SCALE = 9
DEFAULT_HOSTS = 4
#: Heavy traffic: mean inter-arrival well under one batch execution.
DEFAULT_MEAN_GAP = 1e-05

#: The miniature Fig. 3 sweep bundled into the document (app, layer).
FIG3_CELLS: Tuple[Tuple[str, str], ...] = (
    ("bfs", "lci"),
    ("bfs", "mpi-probe"),
    ("bfs", "mpi-rma"),
    ("pagerank", "lci"),
    ("pagerank", "mpi-probe"),
    ("pagerank", "mpi-rma"),
)


def serve_benchmark(
    scale: int = DEFAULT_SCALE,
    hosts: int = DEFAULT_HOSTS,
    layer: str = "lci",
    num_queries: int = DEFAULT_TAPE_QUERIES,
    tape_seed: int = 7,
    fig3_scale: int = 10,
) -> dict:
    """Build the full benchmark document (deterministic)."""
    from repro.serve import ServeConfig, ServeEngine, TapeSpec

    spec = TapeSpec(
        seed=tape_seed, num_queries=num_queries, scale=scale,
        mean_gap=DEFAULT_MEAN_GAP,
    )
    engine = ServeEngine(ServeConfig(
        scale=scale, hosts=hosts, layer=layer, max_batch=8, ppr_rounds=6,
    ))
    report = engine.run_tape(spec)
    serve_doc = {
        k: v for k, v in report.as_dict().items() if k != "results"
    }

    fig3_rows: List[dict] = []
    for app, fig3_layer in FIG3_CELLS:
        m = run_scenario(Scenario(
            app=app, graph="rmat", scale=fig3_scale, hosts=hosts,
            layer=fig3_layer, pagerank_rounds=6,
        ))
        fig3_rows.append({
            "app": app,
            "layer": fig3_layer,
            "hosts": hosts,
            "time_s": round(m.total_seconds, 9),
            "comm_s": round(m.comm_seconds, 9),
            "rounds": m.rounds,
            "messages": m.blobs_sent,
        })

    return {
        "format": BENCH_FORMAT,
        "tape": spec.as_dict(),
        "serve": serve_doc,
        "fig3": fig3_rows,
    }
