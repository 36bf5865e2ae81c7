"""The simulator-core benchmark behind ``repro bench-core`` / BENCH_core.json.

A curated set of canonical scenarios run under the host-side profiler
(:mod:`repro.obs.profile`), folded into one JSON document committed at
the repo root.  Each scenario contributes two blocks:

* ``sim`` — **deterministic**: simulated seconds, rounds, message and
  update volumes, event counts, the full work-counter dictionary, its
  fingerprint, and the communication-observatory totals (wire/blob
  volume, eager/rendezvous byte split + comm fingerprint, from an extra
  untimed run that also pins the observatory's bit-identity contract).
  Pure functions of the scenario, so CI regenerates them and fails on
  drift (exactly the ``BENCH_serve.json`` contract); this is the repo's
  comm-volume oracle.  Any perf refactor that changes these changed
  *behaviour*, not just speed.
* ``wall`` — **informational**: host wall-clock for the engine run
  (min over repeats), events/sec, simulated messages/sec.  Machine-
  dependent, so the drift check (:func:`repro.gate.diff` after
  :func:`strip_wall`) ignores it; the committed values are the
  *trajectory* later perf PRs show their delta against.

:func:`measure_overhead` times profiler-off vs profiler-on back to back
(min-of-N, interleaved so machine drift cancels); CI bounds the
overhead below 5%.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.bench.scenarios import Scenario, build_engine
from repro.obs.commstats import CommStatsContext
from repro.obs.profile import ProfileContext, cpu_now, wall_now

__all__ = [
    "BENCH_CORE_FORMAT",
    "CANONICAL_SCENARIOS",
    "core_benchmark",
    "strip_wall",
    "trajectory_point",
    "with_trajectory",
    "compare_core_perf",
    "OVERHEAD_SCENARIO",
    "measure_overhead",
]

BENCH_CORE_FORMAT = "repro-bench-core/v1"

#: The perf trajectory's canonical scenarios: every comm layer, both
#: engines (Abelian cvc + Gemini edge-cut), traversal and fixed-round
#: apps — small enough for a CI lane, hot enough to exercise the event
#: loop, matching walks, pool, and serialization paths.
CANONICAL_SCENARIOS: Tuple[Scenario, ...] = (
    Scenario(app="bfs", graph="rmat", scale=10, hosts=8, layer="lci"),
    Scenario(app="pagerank", graph="kron", scale=10, hosts=8,
             layer="mpi-probe", pagerank_rounds=6),
    Scenario(app="sssp", graph="rmat", scale=9, hosts=4, layer="mpi-rma"),
    Scenario(app="bfs", graph="rmat", scale=10, hosts=8, layer="mpi-probe",
             system="gemini"),
    # The scale the ROADMAP's sweeps need: a million-node graph across
    # 128 hosts, feasible as a canonical scenario only since the
    # calendar-queue/slotted-record core (PR 9) — single-digit seconds
    # per engine run (graph generation is cached and untimed).
    Scenario(app="bfs", graph="rmat", scale=20, hosts=128, layer="lci"),
)


def core_benchmark(
    scenarios: Optional[Sequence[Scenario]] = None, repeats: int = 2
) -> dict:
    """Build the benchmark document.

    Every repeat runs under a fresh :class:`ProfileContext`; the
    deterministic block comes from the first run and the remaining
    repeats must reproduce its counter fingerprint exactly (a failed
    reproduction is a determinism bug, reported loudly).  Wall numbers
    take the min over repeats — the least-noise estimator for a
    single-machine trajectory.
    """
    if scenarios is None:
        scenarios = CANONICAL_SCENARIOS
    rows: List[dict] = []
    for sc in scenarios:
        build_engine(sc)  # warm the graph/partition caches untimed
        walls: List[float] = []
        first_ctx = None
        first_metrics = None
        for _ in range(max(1, repeats)):
            ctx = ProfileContext()
            engine = build_engine(sc, profile=ctx)
            t0 = wall_now()
            metrics = engine.run()
            walls.append(wall_now() - t0)
            ctx.flush()  # fold the deferred per-component sources in
            if first_ctx is None:
                first_ctx, first_metrics = ctx, metrics
            elif ctx.counters.fingerprint() != first_ctx.counters.fingerprint():
                raise AssertionError(
                    f"{sc.label()}: counter fingerprint not reproducible "
                    f"({ctx.counters.fingerprint()} != "
                    f"{first_ctx.counters.fingerprint()})"
                )
        counters = first_ctx.counters
        # One extra *untimed* run under the comm observatory: keeps the
        # committed wall trajectory comparable (the timed repeats stay
        # hook-free) while pinning both the traffic fingerprint and the
        # bit-identity contract — a commstats run must reproduce the
        # plain run's RunMetrics exactly.
        comm_ctx = CommStatsContext()
        comm_metrics = build_engine(sc, commstats=comm_ctx).run()
        if comm_metrics.row() != first_metrics.row():
            raise AssertionError(
                f"{sc.label()}: RunMetrics changed under commstats — "
                "the observatory must be a pure observer"
            )
        comm_doc = comm_ctx.comm_doc()
        comm_totals = comm_doc["totals"]
        wall = min(walls)
        events = counters.get("sim.events_fired")
        messages = first_metrics.blobs_sent
        rows.append({
            "label": sc.label(),
            "sim": {
                "sim_seconds": round(first_metrics.total_seconds, 9),
                "rounds": first_metrics.rounds,
                "messages": messages,
                "payload_bytes": first_metrics.payload_bytes_sent,
                "updates": first_metrics.updates_shipped,
                "events_fired": events,
                "events_scheduled": counters.get("sim.events_scheduled"),
                "counters": counters.as_dict(),
                "fingerprint": counters.fingerprint(),
                "comm": {
                    "wire_msgs": comm_totals["wire_msgs"],
                    "wire_bytes": comm_totals["wire_bytes"],
                    "blob_msgs": comm_totals["blob_msgs"],
                    "blob_bytes": comm_totals["blob_bytes"],
                    "eager_bytes": comm_totals["eager_bytes"],
                    "rendezvous_bytes": comm_totals["rendezvous_bytes"],
                    "fingerprint": comm_doc["fingerprint"],
                },
            },
            "wall": {
                "wall_seconds": round(wall, 6),
                "events_per_sec": round(events / wall, 1) if wall > 0 else 0.0,
                "sim_msgs_per_sec": (
                    round(messages / wall, 1) if wall > 0 else 0.0
                ),
            },
        })
    return {"format": BENCH_CORE_FORMAT, "scenarios": rows}


def strip_wall(doc):
    """A copy of ``doc`` with every ``"wall"`` subtree removed.

    Wall-clock is machine noise; the drift check compares only what a
    correct simulator must reproduce anywhere.  The ``trajectory`` list
    (historical wall points, see :func:`with_trajectory`) is wall data
    too and is stripped for the same reason.
    """
    if isinstance(doc, dict):
        return {
            k: strip_wall(v)
            for k, v in sorted(doc.items())
            if k not in ("wall", "trajectory")
        }
    if isinstance(doc, list):
        return [strip_wall(v) for v in doc]
    return doc


def trajectory_point(doc: dict, note: str = "") -> dict:
    """One perf-trajectory entry: this doc's wall numbers, by scenario."""
    return {
        "note": note,
        "events_per_sec": {
            row["label"]: row["wall"]["events_per_sec"]
            for row in doc["scenarios"]
        },
    }


def with_trajectory(doc: dict, old: Optional[dict],
                    note: Optional[str]) -> dict:
    """``doc`` plus a perf-trajectory list carried forward from ``old``.

    The trajectory is an append-only history of wall numbers: each
    regeneration of the committed file keeps the previous file's points,
    and adds one for the fresh measurement when ``note`` is given.  An
    ``old`` file that predates the trajectory format contributes its own
    walls as the first point, so the before/after of the first perf PR
    both survive.
    """
    points: List[dict] = []
    if old is not None:
        points.extend(old.get("trajectory", ()))
        if not points and "scenarios" in old:
            points.append(trajectory_point(old, note="(previous)"))
    if note is not None:
        points.append(trajectory_point(doc, note=note))
    return {**doc, "trajectory": points}


def compare_core_perf(
    fresh: dict, old: dict
) -> Tuple[List[str], List[str], dict]:
    """Per-scenario perf deltas of ``fresh`` vs an older benchmark doc.

    Returns ``(lines, errors, deltas)``: human-readable events/sec and
    sim-msgs/sec delta lines for every scenario present in both docs,
    hard errors for any sim-fingerprint mismatch (a perf comparison
    between behaviourally different runs is meaningless) or scenario
    missing from the fresh doc, and a ``{label: events/sec % change}``
    map for regression gating.
    """
    lines: List[str] = []
    errors: List[str] = []
    deltas: dict = {}
    fresh_rows = {row["label"]: row for row in fresh["scenarios"]}
    old_rows = {row["label"]: row for row in old["scenarios"]}
    for label, old_row in old_rows.items():
        row = fresh_rows.get(label)
        if row is None:
            errors.append(f"{label}: missing from fresh benchmark")
            continue
        if row["sim"]["fingerprint"] != old_row["sim"]["fingerprint"]:
            errors.append(
                f"{label}: sim fingerprint {row['sim']['fingerprint']} != "
                f"{old_row['sim']['fingerprint']} — behaviour changed, "
                "perf delta not comparable"
            )
            continue
        for metric, name in (
            ("events_per_sec", "events/s"),
            ("sim_msgs_per_sec", "sim-msgs/s"),
        ):
            was = old_row["wall"][metric]
            now = row["wall"][metric]
            pct = 100.0 * (now / was - 1.0) if was else float("inf")
            lines.append(
                f"{label}: {name} {was:,.1f} -> {now:,.1f} ({pct:+.1f}%)"
            )
            if metric == "events_per_sec":
                deltas[label] = pct
    for label in fresh_rows:
        if label not in old_rows:
            lines.append(f"{label}: new scenario (no old measurement)")
    return lines, errors, deltas


#: Default scenario for :func:`measure_overhead`.  Deliberately larger
#: than the trajectory scenarios: region pairs scale with *messages*
#: while wall-clock scales with total simulated work, so a realistic
#: working-set size is the regime the <5% overhead claim is about —
#: tiny graphs overstate the relative cost of the hooks.  The round
#: count is doubled past convergence-ish territory to stretch each
#: measured run well past the clock/scheduler noise floor of small
#: VMs; per-round hook density is unchanged by the extra rounds.
OVERHEAD_SCENARIO = Scenario(
    app="pagerank", graph="kron", scale=15, hosts=8, layer="mpi-probe",
    pagerank_rounds=40,
)


def measure_overhead(
    sc: Optional[Scenario] = None, repeats: int = 20
) -> dict:
    """Profiler-on vs profiler-off cost: median of blocked CPU ratios.

    Returns ``{"scenario", "wall_off", "wall_on", "overhead_pct"}``
    (the ``wall_*`` fields are best-of-N *CPU* seconds; the key names
    are part of the CLI/CI surface and predate the clock change).

    Measuring a low-single-digit overhead on a small shared VM is a
    statistics problem: a naive wall-clock A/B swings by double digits
    for identical code.  Three layers make the estimate stable:

    * **CPU time, not wall-clock.**  The simulator is single-threaded,
      so the profiler's overhead is exactly the extra CPU its hooks
      burn.  ``process_time`` is immune to hypervisor steal, the
      largest wall-clock noise source.  It still sees frequency
      scaling — the host drifts through multi-second "speed eras"
      where the same work costs visibly different CPU seconds.
    * **Tight interleaving, ratio of block sums.**  ``repeats``
      off/on pairs run back-to-back with the order alternating every
      pair.  Because one run is far shorter than a speed era, any era
      overlaps both sides nearly equally, and the ratio of summed
      times inside a block of consecutive pairs cancels it; the
      even-length blocks also balance the two orderings, cancelling
      position bias.
    * **Median across blocks.**  The pairs are split into five
      contiguous blocks and the reported overhead is the median of
      the per-block ratios, so a burst of interference corrupting one
      stretch of the sequence cannot move the estimate.

    The garbage collector is parked during each timed run (with a
    collect beforehand so both sides start from the same heap state):
    a cycle collection landing in one side of a pair is the single
    biggest per-run disturbance on an otherwise idle machine.
    """
    import gc

    if sc is None:
        sc = OVERHEAD_SCENARIO
    build_engine(sc).run()  # warm graph cache, allocator, code paths
    repeats = max(1, repeats)
    offs: List[float] = []
    ons: List[float] = []
    for i in range(repeats):
        pair = {}
        order = [False, True]
        if i % 2:
            order.reverse()
        for profiled in order:
            engine = build_engine(
                sc, profile=ProfileContext() if profiled else None
            )
            gc.collect()
            gc.disable()
            try:
                t0 = cpu_now()
                engine.run()
                pair[profiled] = cpu_now() - t0
            finally:
                gc.enable()
        offs.append(pair[False])
        ons.append(pair[True])
    nblocks = min(5, repeats)
    ratios: List[float] = []
    for b in range(nblocks):
        lo = b * repeats // nblocks
        hi = (b + 1) * repeats // nblocks
        ratios.append(sum(ons[lo:hi]) / sum(offs[lo:hi]))
    ratios.sort()
    mid = len(ratios) // 2
    if len(ratios) % 2:
        median = ratios[mid]
    else:
        median = 0.5 * (ratios[mid - 1] + ratios[mid])
    return {
        "scenario": sc.label(),
        "wall_off": round(min(offs), 6),
        "wall_on": round(min(ons), 6),
        "overhead_pct": round(100.0 * (median - 1.0), 2),
    }
