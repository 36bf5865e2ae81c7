"""The BSP vertex-program engine over the simulated cluster.

One simulated process per host executes rounds of:

1. **compute** — the program's operator over local edges from active
   sources (real NumPy updates; time charged from the machine model's
   per-node/per-edge costs, divided across the host's compute threads —
   one core is reserved for the dedicated communication thread, as in
   Fig. 2);
2. **reduce sync** — gather updated mirror values per master host
   (pack cost charged, parallelized), send through the communication
   layer, scatter arriving buffers *as they arrive*;
3. **post-reduce** — master-side round step (PageRank's damping update);
4. **broadcast sync** — same shape, masters to mirrors (skipped entirely
   when the partition makes it unnecessary — Abelian's partition-aware
   optimization, automatic for Gemini's edge-cut);
5. **termination** — an allreduce of the program's quiescence metric,
   identical cost across layers.

The engine measures per-round compute and non-overlapped communication
time per host, layer buffer footprints, and total execution time with
setup (e.g. RMA window creation) excluded — matching how the paper
reports its numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Dict, List, Optional

import numpy as np

from repro.comm.collective import AllReducer, SimBarrier
from repro.comm.layer_base import CommLayer, make_layers
from repro.comm.serialization import pack_cost, pack_updates, unpack_cost
from repro.engine.metrics import RunMetrics
from repro.engine.vertex_program import VertexProgram
from repro.graph.csr import CsrGraph
from repro.graph.partition import make_partition
from repro.graph.partition.proxies import Partition
from repro.netapi.nic import Fabric
from repro.sanitize.runtime import SanitizerContext, resolve_mode
from repro.sim.engine import Environment
from repro.sim.instruments import Instruments
from repro.sim.machine import MachineModel, stampede2

__all__ = ["EngineConfig", "BspEngine", "symmetrize"]


def symmetrize(graph: CsrGraph) -> CsrGraph:
    """Add reverse edges (used for cc, which is undirected semantics)."""
    src, dst = graph.edges()
    all_src = np.concatenate([src, dst])
    all_dst = np.concatenate([dst, src])
    edge_data = None
    if graph.edge_data is not None:
        edge_data = np.concatenate([graph.edge_data, graph.edge_data])
    return CsrGraph.from_edges(
        all_src, all_dst, graph.num_nodes, edge_data=edge_data, dedup=True,
        name=graph.name + ".sym",
    )


@dataclass
class EngineConfig:
    """How to run: cluster size, machine, partitioning, comm layer."""

    num_hosts: int = 4
    machine: MachineModel = dc_field(default_factory=stampede2)
    #: "cvc" (Abelian) or "edge-cut" (Gemini).
    policy: str = "cvc"
    #: "lci", "mpi-probe", or "mpi-rma".
    layer: str = "lci"
    #: Extra kwargs for the layer factory (mpi_config=, lci_config=,
    #: inline_sends=, buffered=, ...).
    layer_kwargs: Dict = dc_field(default_factory=dict)
    #: Engine-level round cap (safety; programs may stop earlier).
    max_rounds: int = 10_000
    #: Event-count safety valve for the simulation run.
    max_events: Optional[int] = 200_000_000
    #: Multiplier on compute-phase cost.  The paper's inputs carry
    #: ~10^4x more edges per host than the harness's reduced-scale
    #: graphs; the Fig. 6 breakdown uses this to restore a realistic
    #: compute/communication ratio.  Communication is unaffected, so
    #: layer comparisons never depend on it.
    work_scale: float = 1.0
    # The instruments.  The engine builds one
    # :class:`~repro.sim.instruments.Instruments` record from the six
    # fields below before any layer exists, and every component reads
    # it once at construction.  ``None`` leaves an instrument out.
    # Apart from the fault plan, all are pure observation: a run with
    # any of them attached is bit-identical to a plain one.
    #: :class:`repro.sim.trace.Tracer`: per-round compute/sync spans for
    #: chrome://tracing.
    tracer: Optional[object] = None
    #: A :class:`repro.faults.FaultPlan` or the name of one
    #: (``repro.faults.NAMED_PLANS``).
    fault_plan: Optional[object] = None
    #: Protocol sanitizers: ``"warn"`` (accumulate, surface in metrics),
    #: ``"raise"`` (structured SanitizerError at the violation point),
    #: ``"off"`` (force-disable), or ``None`` to consult the
    #: ``REPRO_SANITIZE`` environment variable — the only place the
    #: environment is read, at engine construction, so the simulation
    #: modules themselves stay environment-independent (lint rule D104).
    sanitize: Optional[str] = None
    #: :class:`repro.obs.ObsContext`: message-lifecycle tracing and
    #: queue probes.
    obs: Optional[object] = None
    #: :class:`repro.obs.profile.ProfileContext`: host-side wall-clock
    #: regions and deterministic work counters.
    profile: Optional[object] = None
    #: :class:`repro.obs.commstats.CommStatsContext`: per-(src, dst,
    #: kind/phase) traffic matrices and size histograms.
    commstats: Optional[object] = None


class BspEngine:
    """Runs one vertex program on one partitioned graph.

    ``partition`` lets a long-lived caller (the serve layer) keep one
    partitioned graph *resident* and amortize the partitioning cost over
    many executions: when given, ``graph`` must already be in the form
    the program needs (symmetrized for ``needs_symmetric`` apps) and
    must be the graph the partition was built from — the engine skips
    both the symmetrize step and :func:`make_partition`.
    """

    def __init__(self, graph: CsrGraph, app: VertexProgram,
                 config: EngineConfig, partition: Optional[Partition] = None):
        self.app = app
        self.config = config
        if partition is None and app.needs_symmetric:
            graph = symmetrize(graph)
        if app.needs_weights and graph.edge_data is None:
            raise ValueError(
                f"{app.name} needs edge weights; generate the graph with "
                "weights=True"
            )
        self.graph = graph
        if partition is not None:
            if partition.num_hosts != config.num_hosts:
                raise ValueError(
                    f"resident partition spans {partition.num_hosts} hosts "
                    f"but the engine is configured for {config.num_hosts}"
                )
            self.partition: Partition = partition
        else:
            self.partition = make_partition(
                graph, config.num_hosts, config.policy
            )
        self.env = Environment()
        self.sanitizer_ctx = None
        _san_mode = resolve_mode(config.sanitize)
        if _san_mode is not None:
            self.sanitizer_ctx = SanitizerContext(
                _san_mode, env=self.env, tracer=config.tracer
            )
        self.injector = None
        if config.fault_plan is not None:
            from repro.faults import FaultInjector, get_plan

            plan = get_plan(config.fault_plan)
            if not plan.empty:
                self.injector = FaultInjector(
                    self.env, plan, tracer=config.tracer
                )
        # The one record every component reads at construction; it
        # must exist before the fabric and the layers.
        self.instruments = Instruments(
            faults=self.injector,
            sanitizer=self.sanitizer_ctx,
            obs=config.obs,
            profiler=config.profile,
            commstats=config.commstats,
            tracer=config.tracer,
        )
        self.fabric = Fabric(self.env, config.num_hosts, config.machine,
                             instruments=self.instruments)
        # Contexts that keep run-level state bind the environment and
        # fabric here, before the layers register their own probes.
        if config.obs is not None:
            config.obs.install(self.env, self.fabric)
        if config.commstats is not None:
            config.commstats.install(self.env, self.fabric,
                                     layer=config.layer)
        self.profiler = config.profile
        # Engine work totals are plain instance ints bumped on the hot
        # path and folded into the counter registry by a deferred source
        # at snapshot time — the same never-touch-the-registry-per-op
        # pattern the NIC and matching queues use.
        self._t_host_rounds = 0
        self._t_blobs = 0
        self._t_blob_bytes = 0
        self._t_updates = 0
        self._t_scattered = 0
        # [cum_seconds, calls] cells for the fully timed per-phase leaf
        # regions, folded into the region tree by a deferred leaf
        # source.  The per-blob pack/apply calls are the profiler's
        # sampled leaf regions instead.
        self._r_compute = [0.0, 0]
        self._r_gather = [0.0, 0]
        self._r_scatter = [0.0, 0]
        self._pack = pack_updates
        self._apply_reduce = app.apply_reduce
        self._apply_bcast = app.apply_bcast
        if self.profiler is not None:
            self.profiler.install(self.env, self.fabric)
            self.profiler.add_source(self._profile_counts)
            self.profiler.add_leaf_source(self._profile_regions)
            leaf = self.profiler.sampled_leaf
            self._pack = leaf("comm.serialization.pack", pack_updates,
                              parent="sim.engine.run;engine.bsp.gather")
            scatter = "sim.engine.run;engine.bsp.scatter"
            self._apply_reduce = leaf("engine.bsp.apply", app.apply_reduce,
                                      parent=scatter)
            self._apply_bcast = leaf("engine.bsp.apply", app.apply_bcast,
                                     parent=scatter)
        self.layers: List[CommLayer] = make_layers(
            config.layer, self.env, self.fabric, config.machine,
            **config.layer_kwargs,
        )
        self.barrier = SimBarrier(self.env, config.num_hosts, config.machine)
        self.allreducer = AllReducer(self.env, config.num_hosts, config.machine)
        self.states: List[Dict[str, np.ndarray]] = [None] * config.num_hosts
        self._compute_rounds: List[List[float]] = [
            [] for _ in range(config.num_hosts)
        ]
        self._comm_rounds: List[List[float]] = [
            [] for _ in range(config.num_hosts)
        ]
        self._rounds_done = [0] * config.num_hosts
        self._start_times = [0.0] * config.num_hosts
        self._end_times = [0.0] * config.num_hosts
        self._payload_bytes = [0] * config.num_hosts
        self._updates_shipped = [0] * config.num_hosts
        # Cache per-host pair lists once (they are static).
        p = self.partition
        self._reduce_out = [p.reduce_out(h) for h in range(config.num_hosts)]
        self._reduce_in = [p.reduce_in(h) for h in range(config.num_hosts)]
        self._bcast_out = [p.bcast_out(h) for h in range(config.num_hosts)]
        self._bcast_in = [p.bcast_in(h) for h in range(config.num_hosts)]
        self._has_reduce = bool(p.reduce_pairs)
        self._has_bcast = bool(p.bcast_pairs)
        # Per-(host, pattern) sync-phase geometry (peer lists, id arrays),
        # computed lazily on the first round and reused every round after.
        self._sync_cache = {}
        self.tracer = self.instruments.tracer
        if self.tracer is not None and self.tracer.env is None:
            self.tracer.env = self.env

    def _profile_counts(self):
        """Deferred profiler source: engine-level work totals.

        Reported as running totals so repeated flushes are idempotent;
        values are identical to what per-phase registry increments would
        have produced, without the hot-path dict/format traffic.
        """
        lname = self.config.layer
        return (
            ("engine.host_rounds", self._t_host_rounds),
            (f"comm.{lname}.blobs", self._t_blobs),
            (f"comm.{lname}.bytes", self._t_blob_bytes),
            ("engine.updates_shipped", self._t_updates),
            ("engine.blobs_scattered", self._t_scattered),
        )

    def _profile_regions(self):
        """Deferred leaf-region source: per-round timing cells.

        All of these regions run synchronously inside the event loop
        (no yields between their clock reads), so their nesting is known
        statically and the whole subtree can be folded in at snapshot
        time instead of paying enter/exit stack traffic per phase.
        """
        return (
            ("sim.engine.run", "engine.bsp.compute",
             self._r_compute[0], self._r_compute[1]),
            ("sim.engine.run", "engine.bsp.gather",
             self._r_gather[0], self._r_gather[1]),
            ("sim.engine.run", "engine.bsp.scatter",
             self._r_scatter[0], self._r_scatter[1]),
        )

    # ------------------------------------------------------------------
    @property
    def compute_threads(self) -> int:
        """Compute threads per host: one core feeds the comm machinery."""
        return max(1, self.config.machine.cpu.cores - 1)

    def run(self) -> RunMetrics:
        procs = [
            self.env.process(self._host_proc(h), name=f"host-{h}")
            for h in range(self.config.num_hosts)
        ]
        self.env.run(max_events=self.config.max_events)
        for p in procs:
            if not p.triggered:
                if self.injector is not None:
                    from repro.faults import LostCompletionError

                    raise LostCompletionError(
                        f"{p.name} never finished under fault plan "
                        f"{self.injector.plan.name or 'custom'!r}: a lost "
                        f"completion hung the "
                        f"{self.config.layer} layer "
                        f"(faults injected: {self.injector.counts()})"
                    )
                raise RuntimeError(f"{p.name} never finished (deadlock?)")
            if not p.ok:
                raise p._value
        return self._metrics()

    # ------------------------------------------------------------------
    def _host_proc(self, h: int):
        env = self.env
        app = self.app
        cpu = self.config.machine.cpu
        lg = self.partition.local(h)
        layer = self.layers[h]
        threads = self.compute_threads

        state = app.init_state(lg, self.graph)
        self.states[h] = state
        patterns = []
        if self._has_reduce:
            patterns.append("reduce")
        if self._has_bcast:
            patterns.append("bcast")
        yield from layer.setup(
            reduce_pairs=self.partition.reduce_pairs,
            bcast_pairs=self.partition.bcast_pairs,
            field_bytes=app.field_bytes,
            patterns=tuple(patterns),
        )
        yield from self.barrier.arrive()
        self._start_times[h] = env.now

        active = app.initial_active(lg, state)
        dirty_reduce = np.zeros(lg.num_local, dtype=bool)
        dirty_bcast = np.zeros(lg.num_local, dtype=bool)
        max_rounds = min(
            self.config.max_rounds,
            app.max_rounds if app.max_rounds is not None else 10**9,
        )

        tracer = self.tracer
        prof = self.profiler
        rnd = 0
        while True:
            # ---------------- compute phase ----------------
            t0 = env.now
            if prof is not None:
                r_compute = self._r_compute
                pt0 = prof.clock()
                try:
                    res = app.compute(lg, state, active)
                finally:
                    r_compute[0] += prof.clock() - pt0
                    r_compute[1] += 1
                self._t_host_rounds += 1
            else:
                res = app.compute(lg, state, active)
            compute_cost = (
                res.work_nodes * cpu.per_node_cost
                + res.work_edges * cpu.per_edge_cost
            ) * self.config.work_scale / threads
            if compute_cost > 0:
                yield env.charged_timeout(compute_cost, actor=h)
            self._compute_rounds[h].append(env.now - t0)
            t_comm = env.now
            if tracer is not None:
                tracer.record(
                    h, "compute", f"round {rnd}", t0, env.now,
                    edges=res.work_edges, nodes=res.work_nodes,
                )

            upd = res.updated
            if len(upd):
                dirty_reduce[upd[upd >= lg.num_masters]] = True
                if app.label_is_broadcast_field:
                    dirty_bcast[upd[upd < lg.num_masters]] = True

            # ---------------- reduce sync ----------------
            if self._has_reduce:
                yield from self._sync_phase(
                    h, lg, layer, state, (rnd, "reduce"),
                    out_pairs=self._reduce_out[h],
                    in_pairs=self._reduce_in[h],
                    dirty=dirty_reduce,
                    is_reduce=True,
                    dirty_bcast=dirty_bcast,
                )

            # ---------------- post-reduce (master step) ----------------
            extra = app.post_reduce(lg, state)
            if len(extra):
                dirty_bcast[extra] = True
            if app.reduce_op == "add" and lg.num_masters:
                # The damping update touches every master once.
                yield env.charged_timeout(
                    lg.num_masters * cpu.per_node_cost / threads, actor=h
                )

            # ---------------- broadcast sync ----------------
            if self._has_bcast:
                yield from self._sync_phase(
                    h, lg, layer, state, (rnd, "bcast"),
                    out_pairs=self._bcast_out[h],
                    in_pairs=self._bcast_in[h],
                    dirty=dirty_bcast,
                    is_reduce=False,
                )

            # ---------------- termination ----------------
            active = app.next_active(lg, state)
            metric = app.local_quiescent_metric(lg, state, active)
            t_ar = env.now
            total = yield from self.allreducer.allreduce_sum(h, metric)
            # Globally agreed activity level: programs may use it to pick
            # a traversal direction (Gemini's push/pull switching) — every
            # host sees the same value, so decisions stay consistent.
            state["_global_active"] = total
            self._comm_rounds[h].append(env.now - t_comm)
            if tracer is not None:
                tracer.record(h, "allreduce", f"round {rnd}", t_ar, env.now)
            rnd += 1
            if total == 0 or rnd >= max_rounds:
                break

        self._rounds_done[h] = rnd
        self._end_times[h] = env.now
        # Everyone reaches this point together (the allreduce barrier),
        # so shutting down helper threads here is race-free.
        layer.shutdown()

    # ------------------------------------------------------------------
    def _sync_phase(
        self, h, lg, layer, state, phase, out_pairs, in_pairs, dirty,
        is_reduce, dirty_bcast=None,
    ):
        """One gather-communicate-scatter pattern instance."""
        env = self.env
        app = self.app
        cpu = self.config.machine.cpu
        threads = self.compute_threads

        # Phase geometry is static across rounds: peer hosts and the
        # sender/receiver id arrays per sync pair only depend on the
        # partition.  Resolve it once per (host, pattern).
        cache = self._sync_cache.get((h, is_reduce))
        if cache is None:
            if is_reduce:
                # sender ships mirror_ids, receiver applies at master_ids
                out = [(sp.master_host, sp.mirror_ids, sp) for sp in out_pairs]
                in_map = {sp.mirror_host: sp.master_ids for sp in in_pairs}
                in_hosts = [sp.mirror_host for sp in in_pairs]
            else:
                out = [(sp.mirror_host, sp.master_ids, sp) for sp in out_pairs]
                in_map = {sp.master_host: sp.mirror_ids for sp in in_pairs}
                in_hosts = [sp.master_host for sp in in_pairs]
            out_hosts = [dst for dst, _ids, _sp in out]
            cache = (out, out_hosts, in_hosts, in_map)
            self._sync_cache[(h, is_reduce)] = cache
        out, out_hosts, in_hosts, in_map = cache
        if is_reduce:
            get_values = app.reduce_values
            apply_values = self._apply_reduce
        else:
            get_values = app.bcast_values
            apply_values = self._apply_bcast
        yield from layer.phase_begin(phase, out_hosts, in_hosts)

        # Gather: pack each pair's dirty subset (parallel across threads).
        prof = self.profiler
        if prof is not None:
            pclock = prof.clock
            g0 = pclock()
        pack = self._pack
        blobs = []
        gather_cost = 0.0
        for dst, ids_mine, sp in out:
            positions = np.where(dirty[ids_mine])[0].astype(np.int64)
            values = get_values(state, ids_mine[positions])
            blob = pack(positions, values, len(sp), app.field_bytes, phase)
            blobs.append((dst, blob, ids_mine))
            gather_cost += pack_cost(cpu, len(positions), blob.nbytes)
            self._payload_bytes[h] += blob.nbytes
            self._updates_shipped[h] += len(positions)
        if prof is not None:
            r_gather = self._r_gather
            r_gather[0] += pclock() - g0
            r_gather[1] += 1
            blob_bytes = 0
            blob_updates = 0
            for _dst, blob, _ids in blobs:
                blob_bytes += blob.nbytes
                blob_updates += len(blob.positions)
            self._t_blobs += len(blobs)
            self._t_blob_bytes += blob_bytes
            self._t_updates += blob_updates
        if gather_cost > 0:
            yield env.charged_timeout(gather_cost / threads, actor=h)

        if layer.parallel_send and len(blobs) > 1:
            # Compute threads initiate sends concurrently (up to the
            # host's thread count; partner counts never exceed it here).
            sends = [
                env.process(layer.send(dst, blob), name=f"send-{h}-{dst}")
                for dst, blob, _ids in blobs
            ]
            yield env.all_of(sends)
        else:
            for dst, blob, _ids in blobs:
                yield from layer.send(dst, blob)
        if is_reduce:
            for _dst, blob, ids_mine in blobs:
                if len(blob.positions):
                    app.reset_after_reduce_send(
                        state, ids_mine[blob.positions]
                    )
        for _dst, ids_mine, _sp in out:
            dirty[ids_mine] = False
        yield from layer.flush(phase)

        # Scatter arrivals as they come (arbitrary order).  Programs with
        # ``ordered_scatter`` defer the *application* of values until the
        # phase's last blob arrived and then apply in source-host order —
        # costs are still charged at arrival time, so the schedule (and
        # every timing metric) is identical; only the floating-point
        # reduction order becomes canonical.
        pending = set(in_hosts)
        cold = cpu.cold_read_factor if layer.receive_buffer_cold else 1.0
        deferred = [] if app.ordered_scatter else None
        while pending:
            batch = yield from layer.collect_some(phase, pending)
            scatter_cost = 0.0
            if prof is not None:
                s0 = pclock()
            for src, blob in batch:
                ids = in_map[src][blob.positions]
                if deferred is not None:
                    deferred.append((src, blob, ids))
                else:
                    if len(ids):
                        changed = apply_values(state, ids, blob.values)
                        if is_reduce and app.label_is_broadcast_field and dirty_bcast is not None:
                            dirty_bcast[ids[changed]] = True
                    layer.consume(blob)
                scatter_cost += unpack_cost(cpu, len(ids), blob.nbytes) * cold
            if prof is not None:
                r_scatter = self._r_scatter
                r_scatter[0] += pclock() - s0
                r_scatter[1] += 1
                self._t_scattered += len(batch)
            if scatter_cost > 0:
                yield env.charged_timeout(scatter_cost / threads, actor=h)
        if deferred is not None:
            deferred.sort(key=lambda item: item[0])
            if prof is not None:
                s0 = pclock()
            for _src, blob, ids in deferred:
                if len(ids):
                    changed = apply_values(state, ids, blob.values)
                    if is_reduce and app.label_is_broadcast_field and dirty_bcast is not None:
                        dirty_bcast[ids[changed]] = True
                layer.consume(blob)
            if prof is not None:
                r_scatter = self._r_scatter
                r_scatter[0] += pclock() - s0
                r_scatter[1] += 1
        yield from layer.phase_end(phase)

    # ------------------------------------------------------------------
    def _metrics(self) -> RunMetrics:
        cfg = self.config
        rounds = max(self._rounds_done)
        compute_per_round = [
            max(
                self._compute_rounds[h][r]
                for h in range(cfg.num_hosts)
                if r < len(self._compute_rounds[h])
            )
            for r in range(rounds)
        ]
        comm_per_round = [
            max(
                self._comm_rounds[h][r]
                for h in range(cfg.num_hosts)
                if r < len(self._comm_rounds[h])
            )
            for r in range(rounds)
        ]
        m = RunMetrics(
            app=self.app.name,
            graph=self.graph.name,
            layer=cfg.layer,
            num_hosts=cfg.num_hosts,
            policy=cfg.policy,
            total_seconds=max(self._end_times) - min(self._start_times),
            setup_seconds=max(
                getattr(l, "setup_seconds", 0.0) for l in self.layers
            ),
            rounds=rounds,
            compute_per_round=compute_per_round,
            comm_per_round=comm_per_round,
            footprint_per_host=[l.footprint.peak for l in self.layers],
            blobs_sent=sum(
                l.stats.counter_value("blobs_sent")
                + l.stats.counter_value("puts")
                for l in self.layers
            ),
            payload_bytes_sent=sum(self._payload_bytes),
            updates_shipped=sum(self._updates_shipped),
        )
        counters: Dict[str, int] = {}
        for l in self.layers:
            registries = [l.stats]
            for attr in ("rt", "ep"):  # LCI runtime / MPI endpoint
                sub = getattr(l, attr, None)
                if sub is not None:
                    registries.append(sub.stats)
            for reg in registries:
                for name, value in reg.counter_values().items():
                    counters[name] = counters.get(name, 0) + int(value)
        m.layer_counters = counters
        if self.injector is not None:
            m.fault_counts = self.injector.counts()
        if self.sanitizer_ctx is not None:
            m.sanitizer_mode = self.sanitizer_ctx.mode
            m.sanitizer_violations = self.sanitizer_ctx.as_dicts()
        return m

    # ------------------------------------------------------------------
    def assemble_global(self) -> np.ndarray:
        """Collect the canonical per-node result from all masters.

        Shape ``(num_nodes,)`` for scalar-label programs; multi-source
        programs (label matrices) yield ``(num_nodes, K)`` — one column
        per batched query.
        """
        n = self.graph.num_nodes
        sample = self.app.extract_masters(
            self.partition.local(0), self.states[0]
        )
        out = np.zeros((n,) + sample.shape[1:], dtype=sample.dtype)
        for h in range(self.config.num_hosts):
            lg = self.partition.local(h)
            vals = self.app.extract_masters(lg, self.states[h])
            out[lg.global_ids[: lg.num_masters]] = vals
        return out
