"""Tests for repro.obs.profile and the bench-core harness.

The load-bearing guarantees pinned here:

* installing a :class:`ProfileContext` leaves ``RunMetrics``
  bit-identical across every comm layer and both engines (pure
  observation — the CI bench leg re-asserts this);
* the work-counter fingerprint is a pure function of the scenario:
  repeat runs reproduce it exactly, and the deferred-source
  :meth:`~repro.obs.ProfileContext.flush` is idempotent;
* the region tree's self/cumulative arithmetic is exact under an
  injectable clock;
* exports (JSON profile document, collapsed stacks) pass their
  validators;
* ``BENCH_core.json`` drift checking ignores wall-clock blocks but
  catches any deterministic change.
"""

import json

import pytest

from repro.bench.core_bench import (
    OVERHEAD_SCENARIO,
    core_benchmark,
    measure_overhead,
    strip_wall,
)
from repro.bench.scenarios import Scenario, build_engine
from repro.cli import main
from repro.gate import GateError, canonical_json, diff, load
from repro.obs import (
    CounterRegistry,
    ProfileContext,
    RegionProfiler,
    validate_collapsed,
    validate_profile_doc,
)
from repro.obs.profile import LEAF_SAMPLE_STRIDE

LAYERS = ("lci", "mpi-probe", "mpi-rma")


def bfs8(layer: str, system: str = "abelian") -> Scenario:
    return Scenario(
        app="bfs", graph="rmat", scale=8, hosts=4, layer=layer,
        system=system,
    )


class FakeClock:
    """Deterministic clock: every read advances by ``step``."""

    def __init__(self, step=1.0):
        self.t = 0.0
        self.step = step

    def __call__(self):
        self.t += self.step
        return self.t


# ---------------------------------------------------------------------------
# RegionProfiler arithmetic
# ---------------------------------------------------------------------------

def test_region_nesting_self_and_cum():
    clock = FakeClock()
    prof = RegionProfiler(clock=clock)
    prof.enter("outer")          # t=1
    prof.enter("inner")          # t=2
    prof.exit()                  # t=3: inner cum = 1
    prof.exit()                  # t=4: outer cum = 3
    rows = {r["path"]: r for r in prof.rows()}
    assert rows["outer"]["cum_s"] == 3.0
    assert rows["outer"]["self_s"] == 2.0  # 3 minus inner's 1
    assert rows["outer;inner"]["cum_s"] == 1.0
    assert rows["outer;inner"]["self_s"] == 1.0
    assert rows["outer"]["calls"] == 1
    assert rows["outer;inner"]["depth"] == 1
    assert prof.depth == 0


def test_sampled_leaf_counts_every_call_and_times_a_sample():
    ctx = ProfileContext(clock=FakeClock())
    timed = ctx.sampled_leaf("hot", lambda x, y=0: x + y, parent="a;b")
    calls = 2 * LEAF_SAMPLE_STRIDE + 3
    assert [timed(i, y=1) for i in range(calls)] == [
        i + 1 for i in range(calls)
    ]
    rows = {r["path"]: r for r in ctx.regions.rows()}
    hot = rows["a;b;hot"]
    assert hot["calls"] == calls
    # Two calls read the clock (one tick each, scaled up by the stride).
    assert hot["cum_s"] == 2.0 * LEAF_SAMPLE_STRIDE


def test_sampled_leaf_that_never_fired_adds_no_region():
    ctx = ProfileContext(clock=FakeClock())
    ctx.sampled_leaf("idle", lambda: None)
    assert ctx.regions.rows() == []


def test_region_context_manager_and_repeat_calls():
    clock = FakeClock()
    prof = RegionProfiler(clock=clock)
    for _ in range(3):
        with prof.region("r"):
            pass
    (row,) = prof.rows()
    assert row["calls"] == 3
    assert row["cum_s"] == 3.0  # one tick per with-block


def test_default_clock_is_monotonic_wall():
    prof = RegionProfiler()
    prof.enter("a")
    prof.exit()
    (row,) = prof.rows()
    assert row["cum_s"] >= 0.0


# ---------------------------------------------------------------------------
# CounterRegistry
# ---------------------------------------------------------------------------

def test_counter_fingerprint_order_independent():
    a, b = CounterRegistry(), CounterRegistry()
    a.inc("x", 2)
    a.inc("y", 5)
    b.inc("y", 5)
    b.inc("x")
    b.inc("x")
    assert a.fingerprint() == b.fingerprint()
    assert a.as_dict() == {"x": 2, "y": 5}


def test_counter_fingerprint_changes_with_values():
    a = CounterRegistry()
    a.inc("x")
    fp = a.fingerprint()
    a.inc("x")
    assert a.fingerprint() != fp


def test_counter_set_is_idempotent_landing_pad():
    c = CounterRegistry()
    c.set("n", 7)
    c.set("n", 7)
    assert c.get("n") == 7
    c.set("n", 9)
    assert c.get("n") == 9


def test_flush_idempotent_and_lazy():
    ctx = ProfileContext()
    total = {"v": 0}

    def source():
        return (("layer.ops", total["v"]),)

    ctx.add_source(source)
    total["v"] = 4
    assert ctx.counters.get("layer.ops") == 0  # not flushed yet
    ctx.flush()
    ctx.flush()
    assert ctx.counters.get("layer.ops") == 4
    total["v"] = 6
    assert ctx.counters_dict()["layer.ops"] == 6  # snapshot paths flush


def test_flush_skips_zero_totals():
    ctx = ProfileContext()
    ctx.add_source(lambda: (("never.happened", 0),))
    assert "never.happened" not in ctx.counters_dict()


# ---------------------------------------------------------------------------
# Bit-identity and determinism on real engine runs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("layer", LAYERS)
def test_profiler_on_is_bit_identical(layer):
    plain = build_engine(bfs8(layer)).run()
    traced = build_engine(bfs8(layer), profile=ProfileContext()).run()
    assert plain.row() == traced.row()


def test_profiler_on_is_bit_identical_gemini():
    sc = bfs8("mpi-probe", system="gemini")
    plain = build_engine(sc).run()
    traced = build_engine(sc, profile=ProfileContext()).run()
    assert plain.row() == traced.row()


@pytest.mark.parametrize("layer", LAYERS)
def test_fingerprint_reproducible_across_repeats(layer):
    fps = set()
    for _ in range(2):
        ctx = ProfileContext()
        build_engine(bfs8(layer), profile=ctx).run()
        fps.add(ctx.fingerprint())
    assert len(fps) == 1


def test_counters_cover_every_layer_prefix():
    ctx = ProfileContext()
    build_engine(bfs8("lci"), profile=ctx).run()
    prefixes = {name.split(".", 1)[0] for name in ctx.counters_dict()}
    for expected in ("sim", "netapi", "lci", "comm", "engine"):
        assert expected in prefixes, prefixes
    ctx = ProfileContext()
    build_engine(bfs8("mpi-probe"), profile=ctx).run()
    assert "mpi" in {n.split(".", 1)[0] for n in ctx.counters_dict()}


def test_regions_cover_the_hot_paths():
    ctx = ProfileContext()
    build_engine(bfs8("lci"), profile=ctx).run()
    paths = {r["name"] for r in ctx.regions.rows()}
    for expected in (
        "sim.engine.run", "netapi.nic.inject", "netapi.nic.deliver",
        "lci.server.progress", "comm.serialization.pack",
        "engine.bsp.scatter",
    ):
        assert expected in paths, sorted(paths)


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def run_ctx():
    ctx = ProfileContext()
    build_engine(bfs8("lci"), profile=ctx).run()
    return ctx


def test_profile_doc_validates(run_ctx):
    doc = run_ctx.report_dict(meta={"scenario": "bfs8"})
    assert validate_profile_doc(doc) == []
    assert doc["meta"]["scenario"] == "bfs8"


def test_profile_doc_validator_catches_corruption(run_ctx):
    doc = run_ctx.report_dict()
    doc["fingerprint"] = "nope"
    assert validate_profile_doc(doc)
    doc2 = run_ctx.report_dict()
    doc2["regions"][0]["self_s"] = -1.0
    assert validate_profile_doc(doc2)


def test_collapsed_export_validates(run_ctx):
    text = run_ctx.to_collapsed()
    assert validate_collapsed(text) == []
    assert "netapi.nic.inject" in text


def test_collapsed_validator_catches_corruption():
    assert validate_collapsed("bad stack line\n")
    assert validate_collapsed("a;b 1\na;b 2\n")  # duplicate stack
    assert validate_collapsed("a;b 1")  # missing trailing newline


def test_save_json_and_collapsed(tmp_path, run_ctx):
    jpath = tmp_path / "prof.json"
    cpath = tmp_path / "prof.folded"
    run_ctx.save_json(str(jpath), meta={"k": "v"})
    run_ctx.save_collapsed(str(cpath))
    with open(jpath) as fh:
        assert validate_profile_doc(json.load(fh)) == []
    assert validate_collapsed(cpath.read_text()) == []


def test_format_top_and_counters(run_ctx):
    top = run_ctx.format_top(5)
    assert "region" in top and "self%" in top
    table = run_ctx.format_counters()
    assert "fingerprint" in table


# ---------------------------------------------------------------------------
# bench-core harness
# ---------------------------------------------------------------------------

TINY = (Scenario(app="bfs", graph="rmat", scale=7, hosts=2, layer="lci"),)


def check_core(doc: dict, path) -> list:
    """The bench-core drift check: the gate's diff, wall blocks stripped."""
    return diff(strip_wall(doc), strip_wall(load(path)))


def test_core_benchmark_shape_and_check(tmp_path):
    doc = core_benchmark(TINY, repeats=2)
    (row,) = doc["scenarios"]
    assert row["sim"]["fingerprint"]
    assert row["sim"]["events_fired"] > 0
    assert row["wall"]["wall_seconds"] > 0
    comm = row["sim"]["comm"]
    assert comm["eager_bytes"] + comm["rendezvous_bytes"] <= \
        comm["wire_bytes"]

    path = tmp_path / "BENCH_core.json"
    path.write_text(canonical_json(doc))

    # Wall-clock drift must be invisible to the check...
    doc2 = core_benchmark(TINY, repeats=1)
    doc2["scenarios"][0]["wall"]["wall_seconds"] = 999.0
    assert check_core(doc2, path) == []

    # ...while any deterministic drift is loud, the comm block's traffic
    # fingerprint and eager/rendezvous split included.
    for block, field, value in (
        ("sim", "fingerprint", "0" * 16),
        ("comm", "fingerprint", "0" * 16),
        ("comm", "eager_bytes", comm["eager_bytes"] + 1),
        ("comm", "rendezvous_bytes", comm["rendezvous_bytes"] + 1),
    ):
        committed = json.loads(canonical_json(doc))
        sim = committed["scenarios"][0]["sim"]
        (sim if block == "sim" else sim["comm"])[field] = value
        path.write_text(canonical_json(committed))
        diffs = check_core(doc, path)
        assert len(diffs) == 1 and field in diffs[0], diffs


def test_check_against_missing_file(tmp_path):
    with pytest.raises(GateError, match="cannot read"):
        load(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    for text in ("{not json", "[1, 2]"):
        bad.write_text(text)
        with pytest.raises(GateError, match="cannot read"):
            load(bad)


def test_strip_wall_removes_every_wall_subtree():
    doc = {"a": [{"wall": {"x": 1}, "sim": {"y": 2, "wall": 0}}], "wall": 3}
    stripped = strip_wall(doc)
    assert stripped == {"a": [{"sim": {"y": 2}}]}  # at every depth


def test_measure_overhead_shape():
    out = measure_overhead(TINY[0], repeats=1)
    assert set(out) == {"scenario", "wall_off", "wall_on", "overhead_pct"}
    assert out["wall_off"] > 0 and out["wall_on"] > 0


def test_overhead_scenario_is_well_formed():
    assert OVERHEAD_SCENARIO.layer in ("lci", "mpi-probe", "mpi-rma")


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_profile(tmp_path, capsys):
    jpath = str(tmp_path / "p.json")
    cpath = str(tmp_path / "p.folded")
    rc = main([
        "profile", "--app", "bfs", "--graph", "rmat", "--scale", "8",
        "--hosts", "4", "--layer", "lci", "--top", "5",
        "--json", jpath, "--collapsed", cpath,
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "region" in out and "fingerprint" in out
    with open(jpath) as fh:
        assert validate_profile_doc(json.load(fh)) == []
    with open(cpath) as fh:
        assert validate_collapsed(fh.read()) == []


def test_cli_bench_core_roundtrip(tmp_path, capsys, monkeypatch):
    import repro.bench.core_bench as cb
    monkeypatch.setattr(cb, "CANONICAL_SCENARIOS", TINY)
    path = str(tmp_path / "BENCH_core.json")
    assert main(["bench-core", "--out", path, "--repeats", "1"]) == 0
    capsys.readouterr()
    assert main(["bench-core", "--check", path, "--repeats", "1"]) == 0
    assert "match" in capsys.readouterr().out

    # A committed comm-volume change is drift: exit 1, naming the field.
    committed = load(path)
    committed["scenarios"][0]["sim"]["comm"]["eager_bytes"] += 1
    with open(path, "w") as fh:
        fh.write(canonical_json(committed))
    assert main(["bench-core", "--check", path, "--repeats", "1"]) == 1
    assert "scenarios[0].sim.comm.eager_bytes" in capsys.readouterr().err


def test_cli_bench_core_out_keeps_trajectory(tmp_path, capsys, monkeypatch):
    """``--out`` without a note (the command the drift message suggests)
    carries the committed perf trajectory forward instead of erasing it."""
    import repro.bench.core_bench as cb
    monkeypatch.setattr(cb, "CANONICAL_SCENARIOS", TINY)
    path = tmp_path / "BENCH_core.json"
    assert main(["bench-core", "--out", str(path), "--repeats", "1",
                 "--trajectory-note", "first"]) == 0
    assert [p["note"] for p in load(path)["trajectory"]] == ["first"]
    assert main(["bench-core", "--out", str(path), "--repeats", "1"]) == 0
    assert [p["note"] for p in load(path)["trajectory"]] == ["first"]
    assert main(["bench-core", "--out", str(path), "--repeats", "1",
                 "--trajectory-note", "second"]) == 0
    assert [p["note"] for p in load(path)["trajectory"]] == [
        "first", "second"]
    capsys.readouterr()
