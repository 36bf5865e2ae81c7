"""Tests for repro.obs.commstats: the communication-pattern observatory.

The load-bearing guarantees pinned here:

* attaching a :class:`CommStatsContext` leaves ``RunMetrics``
  bit-identical for every comm layer (pure observation), alone and
  combined with lifecycle tracing;
* the traffic matrices *telescope*: wire totals equal the fabric's
  always-on ``pkts_sent``/``bytes_sent`` counters exactly, blob totals
  equal ``RunMetrics.blobs_sent``/``payload_bytes_sent`` exactly;
* identical runs produce byte-identical comm-docs (the fingerprint
  ``BENCH_core.json`` pins per canonical scenario), and an injected
  volume change moves the fingerprint;
* every exporter's output is accepted by its validator, including on
  empty/degenerate runs.
"""

import json

import pytest

from repro.bench.scenarios import Scenario, build_engine
from repro.obs import (
    CommStatsContext,
    ObsContext,
    analyze_comm,
    comm_doc_to_csv,
    comm_fingerprint,
    comm_prometheus_lines,
    format_comm_report,
    render_heatmap,
    timeline_comm_doc,
    to_prometheus,
    validate_comm_doc,
    validate_prometheus,
)
from repro.gate import canonical_json

LAYERS = ("lci", "mpi-probe", "mpi-rma")


def bfs8(layer: str) -> Scenario:
    return Scenario(app="bfs", graph="rmat", scale=8, hosts=8, layer=layer)


@pytest.fixture(scope="module")
def observed_runs():
    """{layer: (plain_metrics, observed_metrics, ctx, fabric)} cache."""
    out = {}
    for layer in LAYERS:
        sc = bfs8(layer)
        plain = build_engine(sc).run()
        ctx = CommStatsContext()
        eng = build_engine(sc, commstats=ctx)
        observed = eng.run()
        out[layer] = (plain, observed, ctx, eng.fabric)
    return out


# ----------------------------------------------------------------------
# Pure observation + telescoping
# ----------------------------------------------------------------------
@pytest.mark.parametrize("layer", LAYERS)
def test_commstats_leaves_run_metrics_bit_identical(observed_runs, layer):
    plain, observed, _ctx, _fab = observed_runs[layer]
    assert observed.total_seconds == plain.total_seconds
    assert observed.row() == plain.row()


@pytest.mark.parametrize("layer", LAYERS)
def test_commstats_with_obs_still_bit_identical(layer):
    sc = bfs8(layer)
    plain = build_engine(sc).run()
    both = build_engine(sc, obs=ObsContext(), commstats=CommStatsContext())
    assert both.run().row() == plain.row()


@pytest.mark.parametrize("layer", LAYERS)
def test_wire_matrix_telescopes_to_fabric_counters(observed_runs, layer):
    _plain, _observed, ctx, fabric = observed_runs[layer]
    totals = ctx.comm_doc()["totals"]
    assert totals["wire_msgs"] == fabric.total("pkts_sent")
    assert totals["wire_bytes"] == fabric.total("bytes_sent")
    assert totals["dropped_msgs"] == 0


@pytest.mark.parametrize("layer", LAYERS)
def test_blob_matrix_telescopes_to_run_metrics(observed_runs, layer):
    _plain, observed, ctx, _fab = observed_runs[layer]
    totals = ctx.comm_doc()["totals"]
    assert totals["blob_msgs"] == observed.blobs_sent
    assert totals["blob_bytes"] == observed.payload_bytes_sent


def test_section_totals_equal_matrix_cell_sums(observed_runs):
    doc = observed_runs["lci"][2].comm_doc()
    for section in ("wire", "blobs"):
        for block in doc[section].values():
            cells = block["matrix"].values()
            assert block["msgs"] == sum(c[0] for c in cells)
            assert block["bytes"] == sum(c[1] for c in cells)


def test_rendezvous_segmentation_on_rma(observed_runs):
    doc = observed_runs["mpi-rma"][2].comm_doc()
    phases = analyze_comm(doc)["phases"]
    assert phases["eager"]["bytes"] > 0       # control traffic
    assert phases["rendezvous"]["bytes"] > 0  # RDMA payload
    kinds = set(doc["wire"])
    assert "RDMA" in kinds and "EGR" in kinds


# ----------------------------------------------------------------------
# Determinism + fingerprints
# ----------------------------------------------------------------------
def test_comm_doc_byte_identical_across_repeats():
    sc = bfs8("lci")
    docs = []
    for _ in range(2):
        ctx = CommStatsContext()
        build_engine(sc, commstats=ctx).run()
        docs.append(canonical_json(ctx.comm_doc()))
    assert docs[0] == docs[1]


def test_fingerprint_ignores_meta_but_not_traffic(observed_runs):
    doc = json.loads(canonical_json(observed_runs["lci"][2].comm_doc()))
    fp = doc["fingerprint"]
    relabeled = dict(doc, meta=dict(doc["meta"], scenario="renamed"))
    assert comm_fingerprint(relabeled) == fp
    tampered = json.loads(json.dumps(doc))
    first = sorted(tampered["wire"])[0]
    link = sorted(tampered["wire"][first]["matrix"])[0]
    tampered["wire"][first]["matrix"][link][1] += 1
    assert comm_fingerprint(tampered) != fp


# ----------------------------------------------------------------------
# Validator + baseline gate
# ----------------------------------------------------------------------
@pytest.mark.parametrize("layer", LAYERS)
def test_validator_accepts_produced_docs(observed_runs, layer):
    assert validate_comm_doc(observed_runs[layer][2].comm_doc()) == []


def test_validator_rejects_tampering(observed_runs):
    doc = json.loads(canonical_json(observed_runs["lci"][2].comm_doc()))

    bad = json.loads(json.dumps(doc))
    bad["totals"]["wire_bytes"] += 1
    assert validate_comm_doc(bad)

    bad = json.loads(json.dumps(doc))
    first = sorted(bad["wire"])[0]
    bad["wire"][first]["matrix"]["0>999"] = [1, 1]
    assert validate_comm_doc(bad)

    # A consistent volume edit still trips the fingerprint recompute.
    bad = json.loads(json.dumps(doc))
    first = sorted(bad["wire"])[0]
    link = sorted(bad["wire"][first]["matrix"])[0]
    bad["wire"][first]["matrix"][link][1] += 8
    bad["wire"][first]["bytes"] += 8
    bad["totals"]["wire_bytes"] += 8
    assert any("fingerprint" in e for e in validate_comm_doc(bad))


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------
def test_csv_heatmap_report_smoke(observed_runs):
    doc = observed_runs["lci"][2].comm_doc()
    csv = comm_doc_to_csv(doc)
    assert csv.splitlines()[0] == "section,kind,src,dst,msgs,bytes"
    assert len(csv.splitlines()) > 1
    heat = render_heatmap(doc)
    assert "src\\dst heatmap" in heat
    report = format_comm_report(doc)
    assert "fingerprint: " + doc["fingerprint"] in report
    assert "hotspot links" in report


def test_comm_prometheus_merges_and_validates(observed_runs, tmp_path):
    from repro.obs import save_prometheus

    sc = bfs8("lci")
    obs = ObsContext()
    ctx = CommStatsContext()
    build_engine(sc, obs=obs, commstats=ctx).run()
    path = tmp_path / "run.prom"
    save_prometheus(str(path), obs.as_timeline(), comm=ctx.comm_doc())
    text = path.read_text()
    assert validate_prometheus(text) == []
    assert "repro_comm_messages_total" in text
    assert "repro_comm_bytes_total" in text


def test_timeline_comm_doc_matches_blob_matrix(observed_runs):
    sc = bfs8("lci")
    obs = ObsContext()
    ctx = CommStatsContext()
    build_engine(sc, obs=obs, commstats=ctx).run()
    from_timeline = timeline_comm_doc(obs.as_timeline())
    direct = ctx.comm_doc()
    assert validate_comm_doc(from_timeline) == []
    assert from_timeline["totals"]["blob_msgs"] == \
        direct["totals"]["blob_msgs"]
    assert from_timeline["totals"]["blob_bytes"] == \
        direct["totals"]["blob_bytes"]
    assert from_timeline["blobs"] == direct["blobs"]


# ----------------------------------------------------------------------
# Degenerate runs: no traffic at all
# ----------------------------------------------------------------------
def test_empty_context_exports_validate():
    doc = CommStatsContext().comm_doc()
    assert validate_comm_doc(doc) == []
    assert doc["totals"]["wire_msgs"] == 0
    assert "(no traffic)" in render_heatmap(doc)
    lines = comm_prometheus_lines(doc)
    text = "\n".join(lines) + "\n"
    assert validate_prometheus(text) == []
    # Registered families survive an empty run as explicit zeros.
    assert "repro_comm_messages_total 0" in lines
    assert "repro_comm_bytes_total 0" in lines


def test_single_host_run_exports_validate(tmp_path):
    """hosts=1: nothing ever crosses the wire, exporters still work."""
    from repro.obs import save_prometheus

    sc = Scenario(app="bfs", graph="rmat", scale=6, hosts=1, layer="lci")
    obs = ObsContext()
    ctx = CommStatsContext()
    build_engine(sc, obs=obs, commstats=ctx).run()
    doc = ctx.comm_doc()
    assert validate_comm_doc(doc) == []
    assert doc["totals"]["wire_msgs"] == 0
    path = tmp_path / "solo.prom"
    save_prometheus(str(path), obs.as_timeline(), comm=doc)
    text = path.read_text()
    assert validate_prometheus(text) == []
    assert "repro_comm_messages_total 0" in text


def test_prometheus_zero_message_timeline_keeps_counter_families():
    empty = {"meta": {}, "events": [], "stalls": [], "samples": []}
    text = to_prometheus(empty)
    assert validate_prometheus(text) == []
    for family in ("repro_obs_stage_seconds_total",
                   "repro_obs_messages_total",
                   "repro_obs_stall_seconds_total"):
        assert f"# TYPE {family} counter" in text
        assert f"\n{family} 0\n" in "\n" + text


# ----------------------------------------------------------------------
# Analyzer
# ----------------------------------------------------------------------
def test_analyzer_shapes_and_bounds(observed_runs):
    doc = observed_runs["mpi-probe"][2].comm_doc()
    a = analyze_comm(doc)
    imb = a["imbalance"]
    assert imb["out_max_over_mean"] >= 1.0
    assert 0.0 <= imb["out_gini"] < 1.0
    assert a["hotspots"]
    top = a["hotspots"][0]
    assert top["bytes"] >= a["hotspots"][-1]["bytes"]
    assert 0.0 < top["share"] <= 1.0
    assert len(a["per_host"]["out_bytes"]) == doc["meta"]["hosts"]
    assert sum(a["per_host"]["out_bytes"]) == doc["totals"]["wire_bytes"]


def test_round_timeline_covers_all_blob_traffic(observed_runs):
    doc = observed_runs["lci"][2].comm_doc()
    rounds = analyze_comm(doc)["rounds"]
    assert rounds
    assert sum(r["bytes"] for r in rounds) == doc["totals"]["blob_bytes"]


# ----------------------------------------------------------------------
# Integration: chaos, serve, explain
# ----------------------------------------------------------------------
def test_chaos_comm_attributes_fault_traffic():
    from repro.faults.harness import run_chaos

    sc = Scenario(app="pagerank", graph="rmat", scale=8, hosts=4,
                  layer="lci", pagerank_rounds=3)
    rep = run_chaos(sc, "drop-5pct", commstats=True)
    c = rep.comm
    assert c["dropped_msgs"] > 0
    # Retransmissions are extra wire volume over the fault-free run.
    assert c["faulted_bytes"] > c["baseline_bytes"]
    assert c["delta_bytes"] == c["faulted_bytes"] - c["baseline_bytes"]
    assert c["baseline_fingerprint"] != c["faulted_fingerprint"]
    # The flag must not perturb either run.
    plain = run_chaos(sc, "drop-5pct")
    assert plain.comm == {}
    assert plain.baseline_seconds == rep.baseline_seconds
    assert plain.faulted_seconds == rep.faulted_seconds


def test_serve_report_carries_per_batch_comm():
    from repro.serve import ServeConfig, ServeEngine, TapeSpec, generate_tape

    cfg = ServeConfig(graph="rmat", scale=8, hosts=4, layer="lci")
    queries = generate_tape(TapeSpec(num_queries=8, seed=3, scale=8))
    doc = ServeEngine(cfg, commstats=True).drain(list(queries)).as_dict()
    comm = doc["comm"]
    assert comm["batches"]
    assert comm["wire_bytes"] == \
        sum(b["wire_bytes"] for b in comm["batches"])
    for b in comm["batches"]:
        assert len(b["fingerprint"]) == 16
    # Off by default, and the rest of the report must not move.
    plain = ServeEngine(cfg).drain(list(queries)).as_dict()
    assert "comm" not in plain
    stripped = {k: v for k, v in doc.items() if k != "comm"}
    assert json.dumps(stripped, sort_keys=True) == \
        json.dumps(plain, sort_keys=True)


def test_explain_report_has_latency_percentiles_and_comm_section():
    from repro.obs import explain_report

    sc = bfs8("mpi-probe")
    obs = ObsContext()
    build_engine(sc, obs=obs).run()
    timeline = obs.as_timeline()
    report = explain_report(timeline)
    assert "message latency: p50=" in report
    comm_report = format_comm_report(timeline_comm_doc(timeline))
    assert "communication patterns" in comm_report


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
def test_cli_run_comm_and_commstats(tmp_path, capsys, monkeypatch):
    from repro.cli import main

    monkeypatch.chdir(tmp_path)
    rc = main(["run", "--app", "bfs", "--graph", "rmat", "--scale", "8",
               "--hosts", "4", "--layer", "lci", "--comm", "comm.json"])
    assert rc == 0
    doc = json.loads((tmp_path / "comm.json").read_text())
    assert validate_comm_doc(doc) == []
    out = capsys.readouterr().out
    assert doc["fingerprint"] in out

    # The single-run commstats exports all land (atomically) and agree
    # with the run's comm-doc.
    rc = main(["commstats", "--app", "bfs", "--scale", "8", "--hosts", "4",
               "--layer", "lci", "--json", "c.json", "--csv", "c.csv",
               "--heatmap", "h.txt", "--prom", "c.prom"])
    assert rc == 0
    assert doc["fingerprint"] in capsys.readouterr().out
    assert json.loads((tmp_path / "c.json").read_text())["fingerprint"] == \
        doc["fingerprint"]
    assert (tmp_path / "c.csv").read_text().startswith("section,kind,")
    assert "heatmap" in (tmp_path / "h.txt").read_text()
    assert validate_prometheus((tmp_path / "c.prom").read_text()) == []
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "c.csv", "c.json", "c.prom", "comm.json", "h.txt"]
