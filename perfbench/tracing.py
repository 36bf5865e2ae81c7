"""Benchmark-side spans, the traced serve hooks, and per-layer metrics.

Spans are recorded by the benchmark around its own calls into the
program (``make_graph``, ``make_partition``, ``BspEngine(...)``,
``.run()``, ``.assemble_global()``, ``ServeEngine.drain()`` ...).  They
are kept in memory as ``[name, start, end, parent]`` records and written
out once the run has ended.  Inside ``BspEngine.run`` the per-layer
numbers come from the program's own public observers,
:class:`repro.obs.ProfileContext` (region times, work counters) and
:class:`repro.obs.CommStatsContext` (traffic totals).
"""

from __future__ import annotations

import json
import os
import statistics
import time
from contextlib import contextmanager

clock = time.perf_counter

#: Host times are reported at the speed of a reference host, one on
#: which the speed probe's loop takes this many seconds.
REFERENCE_PROBE_S = 0.020
PROBE_LOOPS = 3


class Spans:
    """In-memory span log of one repetition.

    A log made with ``probe=True`` probes the host's speed at every
    :meth:`checkpoint`.  Shared hosts change speed by a third from one
    second to the next as their neighbours come and go, so a span's host
    time says as much about the host as about the program.  A probe
    times a fixed pure-Python loop ``PROBE_LOOPS`` times (a ``probe``
    span holding one ``probe.loop`` span each, about 60 ms in all);
    :func:`speed_intervals` turns the probes into the scale by which
    the host time between two of them is converted to the reference
    host.  The loop touches nothing of the program, so a change to the
    program moves only what is scaled, never the scale.
    """

    def __init__(self, label: str, probe: bool = False):
        self.label = label
        self.probe = probe
        #: ``[name, start, end, parent_index]`` (parent -1 for a root).
        self.records = []
        self._stack = []

    def checkpoint(self) -> None:
        """Probe the host's speed here, if this log probes."""
        if not self.probe:
            return
        with self.span("probe"):
            for _ in range(PROBE_LOOPS):
                with self.span("probe.loop"):
                    acc = 0
                    for i in range(200_000):
                        acc += i * i % 7

    @contextmanager
    def span(self, name: str):
        rec = [name, clock(), None, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.records))
        self.records.append(rec)
        try:
            yield
        finally:
            self._stack.pop()
            rec[2] = clock()

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(e - s for n, s, e, _p in self.records if n == name)

    def scaled_total(self, name: str, intervals: list,
                     scaled: bool = True) -> float:
        """Summed duration of every span called ``name``, probes left
        out, each stretch of it between two probes multiplied by that
        stretch's scale (see :func:`speed_intervals`) when ``scaled``."""
        total = 0.0
        for n, s, e, _p in self.records:
            if n == name:
                for lo, hi, k in intervals:
                    if hi > s and lo < e:
                        total += (min(hi, e) - max(lo, s)) * (k if scaled
                                                              else 1.0)
        return total

    def durations(self, name: str) -> list:
        return [e - s for n, s, e, _p in self.records if n == name]

    def self_times(self) -> list:
        """Each span's duration minus the time its child spans cover."""
        children = [[] for _ in self.records]
        for i, (_n, _s, _e, parent) in enumerate(self.records):
            if parent >= 0:
                children[parent].append(i)
        out = []
        for i, (_n, start, end, _p) in enumerate(self.records):
            covered, reach = 0.0, start
            for c in sorted(children[i], key=lambda c: self.records[c][1]):
                lo = max(self.records[c][1], reach)
                hi = min(self.records[c][2], end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append(end - start - covered)
        return out

    def as_dicts(self, t0: float) -> list:
        return [
            {"name": n, "start_s": s - t0, "end_s": e - t0, "parent": p,
             "self_s": own}
            for (n, s, e, p), own in zip(self.records, self.self_times())
        ]


def speed_intervals(logs: list) -> list:
    """``(start, end, scale)`` of every stretch between two consecutive
    probes of ``logs``, which share one clock.  The scale is
    ``REFERENCE_PROBE_S`` over the mean of the two probes' median loop
    times."""
    probes = []
    for log in logs:
        loops = {}
        for n, s, e, parent in log.records:
            if n == "probe.loop":
                loops.setdefault(parent, []).append(e - s)
        probes += [(log.records[i][1], log.records[i][2],
                    statistics.median(times)) for i, times in loops.items()]
    probes.sort()
    return [(a_end, b_start, 2 * REFERENCE_PROBE_S / (a + b))
            for (_s, a_end, a), (b_start, _e, b) in zip(probes, probes[1:])]


def write_trace(path: str, meta: dict, reps: list, t0: float,
                profile) -> None:
    """Write every repetition's spans, and the last profiled repetition's
    regions and work counters, as JSON."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    doc = {
        "meta": meta,
        "reps": [{"label": sp.label, "spans": sp.as_dicts(t0)} for sp in reps],
        "regions": profile.regions.rows(),
        "counters": profile.counters_dict(),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


@contextmanager
def serve_hooks(spans: Spans, runs: list):
    """Span the calls :class:`ServeEngine` makes per batch (traced run only).

    The service builds one ``BspEngine`` per batch inside ``drain()``;
    its module-level references to ``build_engine``, ``symmetrize`` and
    ``make_partition`` are wrapped for the duration of the traced
    repetition and restored afterwards.  Every ``RunMetrics`` a batch
    produces is appended to ``runs``.
    """
    import repro.serve.engine as se

    orig = (se.build_engine, se.symmetrize, se.make_partition)

    def build_engine(*args, **kwargs):
        with spans.span("engine.build"):
            eng = orig[0](*args, **kwargs)
        run, assemble = eng.run, eng.assemble_global

        def timed_run():
            with spans.span("engine.run"):
                m = run()
            runs.append(m)
            return m

        def timed_assemble():
            with spans.span("engine.assemble"):
                return assemble()

        eng.run, eng.assemble_global = timed_run, timed_assemble
        return eng

    def symmetrize(graph):
        with spans.span("graph.symmetrize"):
            return orig[1](graph)

    def make_partition(*args, **kwargs):
        with spans.span("graph.partition"):
            return orig[2](*args, **kwargs)

    se.build_engine, se.symmetrize, se.make_partition = (
        build_engine, symmetrize, make_partition)
    try:
        yield
    finally:
        se.build_engine, se.symmetrize, se.make_partition = orig


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _pct(values, q) -> float:
    from repro.obs.latency import percentile_nearest_rank

    return percentile_nearest_rank(values, q) if values else 0.0


def layer_metrics(spans: Spans, outcome, profile) -> dict:
    """Per-layer numbers of one traced repetition, by name."""
    profile.flush()
    cum, own = {}, {}
    for row in profile.regions.rows():
        cum[row["name"]] = cum.get(row["name"], 0.0) + row["cum_s"]
        own[row["name"]] = own.get(row["name"], 0.0) + row["self_s"]
    ctr = profile.counters.as_dict()
    blobs = sum(v for k, v in ctr.items()
                if k.startswith("comm.") and k.endswith(".blobs"))
    runs = outcome.runs
    comm = outcome.comm
    payload = sum(c["blob_bytes"] for c in comm)
    wire = sum(c["wire_bytes"] for c in comm)
    run_ms = [d * 1e3 for d in spans.durations("engine.run")]
    sv = outcome.serve or {}
    return {
        "graph.generate_s": (spans.total("graph.generate"), "s"),
        "graph.symmetrize_s": (spans.total("graph.symmetrize"), "s"),
        "graph.edges": (outcome.edges, "count"),
        "graph.partition_s": (spans.total("graph.partition"), "s"),
        "graph.partition.replication": (outcome.replication, "ratio"),
        "engine.build_s": (spans.total("engine.build"), "s"),
        "engine.run_s": (spans.total("engine.run"), "s"),
        "engine.assemble_s": (spans.total("engine.assemble"), "s"),
        "engine.bsp.compute_s": (cum.get("engine.bsp.compute", 0.0), "s"),
        "engine.bsp.gather_s": (cum.get("engine.bsp.gather", 0.0), "s"),
        "engine.bsp.scatter_s": (cum.get("engine.bsp.scatter", 0.0), "s"),
        "engine.bsp.apply_s": (cum.get("engine.bsp.apply", 0.0), "s"),
        "engine.updates_shipped": (ctr.get("engine.updates_shipped", 0), "count"),
        "engine.host_rounds": (ctr.get("engine.host_rounds", 0), "count"),
        "engine.sim_compute_s": (sum(m.compute_seconds for m in runs), "s"),
        "engine.sim_comm_s": (sum(m.comm_seconds for m in runs), "s"),
        "sim.engine.run.self_s": (own.get("sim.engine.run", 0.0), "s"),
        "sim.unattributed_frac": (
            _ratio(own.get("sim.engine.run", 0.0),
                   cum.get("sim.engine.run", 0.0)), "ratio"),
        "sim.events_fired": (ctr.get("sim.events_fired", 0), "count"),
        "sim.heap_ops": (ctr.get("sim.heap_ops", 0), "count"),
        "netapi.nic.inject_s": (cum.get("netapi.nic.inject", 0.0), "s"),
        "netapi.nic.deliver_s": (cum.get("netapi.nic.deliver", 0.0), "s"),
        "netapi.pkts_injected": (ctr.get("netapi.pkts_injected", 0), "count"),
        "netapi.bytes_injected": (ctr.get("netapi.bytes_injected", 0), "B"),
        "comm.serialization.pack_s": (
            cum.get("comm.serialization.pack", 0.0), "s"),
        "comm.blobs": (blobs, "count"),
        "comm.payload_bytes": (payload, "B"),
        "comm.wire_bytes": (wire, "B"),
        "comm.payload_ratio": (_ratio(payload, wire), "ratio"),
        "comm.footprint_mb": (
            max((m.max_footprint for m in runs), default=0) / 2**20, "MiB"),
        "mpi.matching.walk_s": (
            cum.get("mpi.matching.posted_walk", 0.0)
            + cum.get("mpi.matching.unexpected_walk", 0.0), "s"),
        "mpi.match_probes": (ctr.get("mpi.match_probes", 0), "count"),
        "mpi.unexpected_enqueued": (
            ctr.get("mpi.unexpected_enqueued", 0), "count"),
        "mpi.probes_per_msg": (
            _ratio(ctr.get("mpi.match_probes", 0),
                   ctr.get("comm.mpi-probe.blobs", 0)), "ratio"),
        "lci.server.progress_s": (cum.get("lci.server.progress", 0.0), "s"),
        "lci.pool_acquires": (ctr.get("lci.pool_acquires", 0), "count"),
        "lci.server_pkts": (ctr.get("lci.server_pkts", 0), "count"),
        "serve.cache.hit_rate": (sv.get("hit_rate", 0.0), "ratio"),
        "serve.batch.mean_size": (sv.get("mean_size", 0.0), "queries"),
        "serve.batches": (sv.get("batches", 0), "count"),
        "serve.rejected": (sv.get("rejected", 0), "count"),
        "serve.batch_run_p50_ms": (_pct(run_ms, 50) if sv else 0.0, "ms"),
        "serve.batch_run_p90_ms": (_pct(run_ms, 90) if sv else 0.0, "ms"),
        "serve.sim_p50_us": (_pct(sv.get("latencies", []), 50) * 1e6, "us"),
        "serve.sim_p90_us": (_pct(sv.get("latencies", []), 90) * 1e6, "us"),
        "serve.latency_samples": (len(sv.get("latencies", [])), "count"),
        **{
            f"sim_time_s.{layer}": (outcome.sim_by_layer.get(layer, 0.0), "s")
            for layer in ("lci", "mpi-probe", "mpi-rma")
        },
    }
