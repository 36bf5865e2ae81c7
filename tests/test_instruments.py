"""Every combination of the pure-observation instruments leaves a run alone.

A run's optional contexts travel in one
:class:`~repro.sim.instruments.Instruments` record, read once by every
component at construction.  The five that only observe (sanitizers in
warn mode, obs, the profiler, commstats and the Chrome tracer) may ride
along in any combination.  For every subset of them, on each comm layer
and on one Gemini scenario, this module pins that:

* the run's metrics equal the plain run's, bit for bit;
* the commstats matrices telescope to the run totals;
* the profiler's per-packet and per-walk call counts do not depend on
  what else is attached.
"""

import itertools
from dataclasses import replace

import pytest

from repro.bench.scenarios import Scenario, build_engine
from repro.obs import CommStatsContext, ObsContext, ProfileContext
from repro.sim.instruments import NO_INSTRUMENTS, Instruments
from repro.sim.trace import Tracer

SCENARIOS = {
    layer: Scenario(app="bfs", graph="rmat", scale=8, hosts=8, layer=layer)
    for layer in ("lci", "mpi-probe", "mpi-rma")
}
SCENARIOS["gemini"] = Scenario(
    app="bfs", graph="rmat", scale=8, hosts=8, layer="mpi-probe",
    system="gemini",
)

INSTRUMENTS = ("sanitizer", "obs", "profiler", "commstats", "tracer")
SUBSETS = [
    frozenset(combo)
    for n in range(len(INSTRUMENTS) + 1)
    for combo in itertools.combinations(INSTRUMENTS, n)
]
#: Regions whose call counts are pure functions of the schedule.
COUNTED_REGIONS = (
    "netapi.nic.inject",
    "netapi.nic.deliver",
    "mpi.matching.posted_walk",
    "mpi.matching.unexpected_walk",
)


def signature(m):
    """Everything deterministic a run reports, for exact comparison."""
    return (
        m.row(), m.total_seconds, m.setup_seconds, m.compute_per_round,
        m.comm_per_round, m.footprint_per_host, m.blobs_sent,
        m.payload_bytes_sent, m.updates_shipped, m.layer_counters,
    )


def run_with(sc, subset):
    """Run ``sc`` with the instruments in ``subset``; the sanitizer is
    pinned on or off so ``REPRO_SANITIZE`` cannot leak into the plain
    run."""
    ctx = {
        "obs": ObsContext() if "obs" in subset else None,
        "profiler": ProfileContext() if "profiler" in subset else None,
        "commstats": CommStatsContext() if "commstats" in subset else None,
        "tracer": Tracer() if "tracer" in subset else None,
    }
    sc = replace(sc, sanitize="warn" if "sanitizer" in subset else "off")
    eng = build_engine(sc, tracer=ctx["tracer"], obs=ctx["obs"],
                       profile=ctx["profiler"], commstats=ctx["commstats"])
    return eng, eng.run(), ctx


@pytest.fixture(scope="module", params=sorted(SCENARIOS))
def runs(request):
    """``(plain_metrics, [(subset, engine, metrics, contexts), ...])``."""
    sc = SCENARIOS[request.param]
    _eng, plain, _ctx = run_with(sc, frozenset())
    return plain, [(s, *run_with(sc, s)) for s in SUBSETS if s]


def test_every_subset_is_bit_identical_to_the_plain_run(runs):
    plain, observed = runs
    for subset, eng, m, _ctx in observed:
        assert signature(m) == signature(plain), sorted(subset)
        assert m.sanitizer_violations == [], sorted(subset)
        assert eng.instruments.sanitizer is eng.sanitizer_ctx
        assert (eng.sanitizer_ctx is not None) == ("sanitizer" in subset)


def test_commstats_telescopes_under_every_subset(runs):
    _plain, observed = runs
    for subset, eng, m, ctx in observed:
        if ctx["commstats"] is None:
            continue
        totals = ctx["commstats"].comm_doc()["totals"]
        assert totals["blob_msgs"] == m.blobs_sent, sorted(subset)
        assert totals["blob_bytes"] == m.payload_bytes_sent, sorted(subset)
        assert totals["wire_msgs"] == eng.fabric.total("pkts_sent")
        assert totals["wire_bytes"] == eng.fabric.total("bytes_sent")


def test_profiler_call_counts_do_not_depend_on_company(runs):
    _plain, observed = runs
    calls_seen = {}
    prints = {}
    for subset, eng, _m, ctx in observed:
        prof = ctx["profiler"]
        if prof is None:
            continue
        calls = {name: 0 for name in COUNTED_REGIONS}
        for row in prof.regions.rows():
            if row["name"] in calls:
                calls[row["name"]] += row["calls"]
        calls_seen.setdefault(tuple(sorted(calls.items())), []).append(
            sorted(subset))
        # Every injection attempt is timed, every delivery too.
        assert calls["netapi.nic.inject"] >= eng.fabric.total("pkts_sent")
        assert calls["netapi.nic.deliver"] == eng.fabric.total(
            "pkts_received")
        # The obs sampler schedules events of its own, which the sim.*
        # work counters include; nothing else may move them.
        prints.setdefault("obs" in subset, set()).add(prof.fingerprint())
    assert len(calls_seen) == 1, calls_seen
    assert all(len(p) == 1 for p in prints.values()), prints


def test_bare_fabric_starts_with_the_shared_empty_record():
    from repro.netapi.nic import Fabric
    from repro.sim.engine import Environment
    from repro.sim.machine import stampede2

    env = Environment()
    assert env.instruments is NO_INSTRUMENTS
    fabric = Fabric(env, 2, stampede2())
    assert fabric.instruments is NO_INSTRUMENTS
    assert NO_INSTRUMENTS == Instruments()
    with pytest.raises(AttributeError):
        NO_INSTRUMENTS.obs = ObsContext()
