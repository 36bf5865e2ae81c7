"""The benchmark's workloads, built only from the program's public API.

Every workload derives its inputs from the ``--seed`` argument alone:
the graph seed and the query-tape seed are separate streams of one
``numpy.random.SeedSequence`` rooted at it.  One repetition (:meth:`rep`)
goes from the workload spec to assembled answers; :meth:`verify` checks
one repetition's answers against independent references, untimed.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra

from repro.apps import Bfs, KCore, PageRank
from repro.apps.bfs import INF
from repro.bench.scenarios import cached_graph
from repro.engine import BspEngine, EngineConfig
from repro.engine.bsp import symmetrize
from repro.graph import make_graph
from repro.graph.partition import make_partition
from repro.mpi.presets import MPI_PRESETS
from repro.obs import CommStatsContext
from repro.serve import MultiSourcePageRank, Query, ServeConfig, ServeEngine
from tracing import serve_hooks

GRAPH_STREAM, TAPE_STREAM = 1, 2

#: PageRank answers are float sums taken in a different order than the
#: sequential reference's, so they match to this tolerance, not bitwise.
RANK_RTOL, RANK_ATOL = 1e-9, 1e-15


def derive_seed(seed: int, stream: int) -> int:
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


@dataclass
class Outcome:
    """What one repetition produced."""

    #: ``(key, answer vector)``: key is the comm layer of a cell or the
    #: qid of a served query.
    answers: list
    #: Every deterministic scalar of the repetition (RunMetrics rows,
    #: per-query status/latency); two same-seed runs must match exactly.
    signature: list
    #: Simulated seconds by comm layer (``RunMetrics.total_seconds``).
    sim_by_layer: dict
    attempted: int
    #: Queries rejected by admission control or failed by the service.
    bad: int
    edges: int
    replication: float
    #: ``RunMetrics`` of every engine run (serve: traced repetition only).
    runs: list = field(default_factory=list)
    #: CommStatsContext totals per engine run (traced repetition only).
    comm: list = field(default_factory=list)
    serve: Optional[dict] = None


def _run_signature(m) -> tuple:
    return (m.row(), m.total_seconds, tuple(m.compute_per_round),
            tuple(m.comm_per_round), sorted(m.layer_counters.items()))


class Cells:
    """One graph, generated and partitioned once, answered by one engine
    per comm layer (the paper's layer comparison)."""

    #: The span whose host time the simulated events are divided by.
    sim_span = "engine.run"

    def __init__(self, seed: int, family: str, scale: int, hosts: int,
                 layers, app: str):
        self.graph_seed = derive_seed(seed, GRAPH_STREAM)
        self.family, self.scale, self.hosts = family, scale, hosts
        self.layers, self.app = tuple(layers), app
        self._inputs = None

    def make_app(self, graph):
        if self.app == "bfs":
            # The paper-style source: the vertex with the most out-edges.
            return Bfs(source=int(np.argmax(np.diff(graph.indptr))))
        return PageRank(max_rounds=20, tol=0.0)  # fixed 20 rounds

    def rep(self, spans, profile=None, traced=False,
            reuse=False) -> Outcome:
        cells = []
        with spans.span("rep"):
            with spans.span("setup"):
                if reuse:
                    graph, part = self._inputs
                else:
                    self._inputs = None
                    with spans.span("graph.generate"):
                        graph = make_graph(self.family, self.scale,
                                           seed=self.graph_seed)
                    spans.checkpoint()
                    with spans.span("graph.partition"):
                        part = make_partition(graph, self.hosts, "cvc")
                    self._inputs = (graph, part)
                    spans.checkpoint()
                for layer in self.layers:
                    comm = CommStatsContext() if traced else None
                    kwargs = {}
                    if layer.startswith("mpi"):
                        kwargs["mpi_config"] = MPI_PRESETS["intelmpi"]
                    config = EngineConfig(
                        num_hosts=self.hosts, layer=layer, layer_kwargs=kwargs,
                        profile=profile, commstats=comm,
                    )
                    with spans.span("engine.build"):
                        eng = BspEngine(graph, self.make_app(graph), config,
                                        partition=part)
                    cells.append((layer, eng, comm))
            spans.checkpoint()
            results = []
            with spans.span("answer"):
                for layer, eng, _comm in cells:
                    with spans.span("engine.run"):
                        m = eng.run()
                    with spans.span("engine.assemble"):
                        results.append((layer, m, eng.assemble_global()))
                    spans.checkpoint()
        return Outcome(
            answers=[(layer, a) for layer, _m, a in results],
            signature=[_run_signature(m) for _l, m, _a in results],
            sim_by_layer={layer: m.total_seconds for layer, m, _a in results},
            attempted=len(results),
            bad=0,
            edges=graph.num_edges,
            replication=part.replication_factor(),
            runs=[m for _l, m, _a in results],
            comm=[c.comm_doc()["totals"] for _l, _e, c in cells if c],
        )

    def verify(self, out: Outcome) -> List[str]:
        graph = self._inputs[0]
        ref = self.make_app(graph).reference(graph)
        bad = []
        for layer, got in out.answers:
            if self.app == "bfs":
                ok = got.dtype == ref.dtype and np.array_equal(got, ref)
            else:
                ok = np.allclose(got, ref, rtol=RANK_RTOL, atol=RANK_ATOL)
            if not ok:
                bad.append(f"{self.app}/{layer}: answer differs from reference")
        return bad


def _matrix(graph):
    """The weighted graph as a SciPy sparse matrix (edges are unique)."""
    return csr_matrix((graph.edge_data.astype(np.float64), graph.indices,
                       graph.indptr), shape=(graph.num_nodes, graph.num_nodes))


#: The service's default kind mix.  The counts per tape are fixed and
#: evenly interleaved, so a seed changes which sources are asked, not
#: how much of each kind of work a tape holds or in what order.
TAPE_MIX = (("bfs", 0.40), ("sssp", 0.25), ("ppr", 0.25), ("kcore", 0.10))


class ServeTape:
    """A seeded query tape served on one resident graph.

    Open loop: query ``i`` arrives at ``(i + 1) * gap`` simulated seconds
    whatever the service is doing.  Sources are drawn from the graph's
    largest strongly connected component: a traversal from any of them
    reaches the same core, so a seed changes which vertices are asked
    about, not how much work their queries carry.
    """

    #: Each drain builds, runs and assembles one engine per batch.
    sim_span = "serve.drain"

    def __init__(self, seed: int, scale: int, hosts: int, queries: int,
                 gap: float):
        self.config = ServeConfig(graph="rmat", scale=scale, hosts=hosts,
                                  layer="lci",
                                  seed=derive_seed(seed, GRAPH_STREAM))
        self.graph_key = ("rmat", scale, self.config.seed, True)
        self.graph = cached_graph(*self.graph_key)
        rng = np.random.default_rng(derive_seed(seed, TAPE_STREAM))
        slots = sorted(
            ((i + 0.5) / count, kind)
            for kind, weight in TAPE_MIX
            for count in [round(weight * queries)]
            for i in range(count)
        )
        _count, label = connected_components(_matrix(self.graph),
                                             connection="strong")
        core = np.flatnonzero(label == np.bincount(label).argmax())
        sources = rng.choice(core, len(slots))
        ks = rng.choice((2, 3), len(slots))
        self.tape = [
            Query(qid=i, kind=kind, source=int(sources[i]),
                  arrival=round((i + 1) * gap, 9), k=int(ks[i]))
            for i, (_slot, kind) in enumerate(slots)
        ]

    def rep(self, spans, profile=None, traced=False,
            reuse=False) -> Outcome:
        runs = []
        hooks = serve_hooks(spans, runs) if traced else nullcontext()
        with hooks, spans.span("rep"):
            with spans.span("setup"):
                if not reuse:
                    cached_graph.cache_clear()
                    with spans.span("graph.generate"):
                        cached_graph(*self.graph_key)
                with spans.span("serve.build"):
                    svc = ServeEngine(self.config, profile=profile,
                                      commstats=traced)
            spans.checkpoint()
            half = len(self.tape) // 2
            with spans.span("answer"):
                with spans.span("serve.drain"):
                    first = svc.drain(self.tape[:half])
                spans.checkpoint()
                with spans.span("serve.bump"):
                    svc.bump_graph_version()
                with spans.span("serve.drain"):
                    second = svc.drain(self.tape[half:])
        results = first.results + second.results
        ok = [r for r in results if r.status == "ok"]
        batches = second.batches  # the service's whole batch log
        return Outcome(
            answers=[(r.query.qid, r.answer) for r in ok],
            signature=[
                (r.query.qid, r.status, r.latency, r.cache_hit, r.batch_id,
                 r.graph_version)
                for r in results
            ] + [second.clock, second.exec_seconds, second.messages],
            sim_by_layer={"lci": second.exec_seconds},
            attempted=len(results),
            bad=len(results) - len(ok),
            edges=svc.graph.num_edges,
            replication=svc.partition.replication_factor(),
            runs=runs,
            comm=[b["comm"] for b in batches if "comm" in b],
            serve={
                "latencies": [r.latency for r in ok],
                "hit_rate": second.cache_stats["hit_rate"],
                "batches": len(batches),
                "mean_size": (sum(b["size"] for b in batches) / len(batches)
                              if batches else 0.0),
                "rejected": sum(r.status == "rejected" for r in results),
            },
        )

    def verify(self, out: Outcome) -> List[str]:
        """Each served answer against its single-source reference.

        BFS levels and SSSP distances come from SciPy's compiled
        Dijkstra, an oracle independent of the program; PPR and k-core
        use the programs' own sequential references.
        """
        g = self.graph
        queries = {q.qid: q for q in self.tape}
        by_kind = {}
        for qid, _ans in out.answers:
            q = queries[qid]
            by_kind.setdefault(q.kind, set()).add(q.k if q.kind == "kcore"
                                                  else q.source)
        refs = {}
        matrix = _matrix(g)
        for kind in ("bfs", "sssp"):
            sources = sorted(by_kind.get(kind, ()))
            if sources:
                dist = dijkstra(matrix, indices=sources,
                                unweighted=kind == "bfs")
                dist = np.where(np.isinf(dist), INF, dist).astype(np.int64)
                for s, row in zip(sources, dist):
                    refs[kind, s] = row
        sources = sorted(by_kind.get("ppr", ()))
        if sources:
            ranks = MultiSourcePageRank(
                sources, rounds=self.config.ppr_rounds,
                damping=self.config.ppr_damping,
            ).reference(g)
            for col, s in enumerate(sources):
                refs["ppr", s] = ranks[:, col]
        if by_kind.get("kcore"):
            sym = symmetrize(g)
            for k in by_kind["kcore"]:
                refs["kcore", k] = KCore(k=k).reference(sym)
        bad = []
        for qid, got in out.answers:
            q = queries[qid]
            want = refs[q.kind, q.k if q.kind == "kcore" else q.source]
            if q.kind == "ppr":
                ok = np.allclose(got, want, rtol=RANK_RTOL, atol=RANK_ATOL)
            else:
                ok = got.dtype == want.dtype and np.array_equal(got, want)
            if not ok:
                bad.append(f"query {qid} ({q.kind}): answer differs")
        return bad


WORKLOADS = {
    "cold-scenario": lambda seed: Cells(
        seed, "rmat", 17, 64, ("lci",), "bfs"),
    "layer-sweep": lambda seed: Cells(
        seed, "kron", 16, 32, ("lci", "mpi-probe", "mpi-rma"), "pagerank"),
    "serve-tape": lambda seed: ServeTape(
        seed, scale=12, hosts=8, queries=100, gap=5e-5),
}
