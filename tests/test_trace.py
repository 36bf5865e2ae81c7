"""Tests for the execution tracer and its engine integration."""

import json
import os

import pytest

from repro.apps import Bfs
from repro.engine import BspEngine, EngineConfig
from repro.graph.generators import rmat
from repro.sim.engine import Environment
from repro.sim.trace import Span, Tracer


def test_span_duration():
    s = Span(0, "main", "compute", "round 0", 1.0, 3.5)
    assert s.duration == 2.5


def test_begin_end_uses_env_clock():
    env = Environment()
    tr = Tracer(env)
    log = []

    def proc(env):
        h = tr.begin(0, "work", "step", actor="t0", round=1)
        yield env.timeout(2.0)
        span = tr.end(h, items=5)
        log.append(span)

    env.process(proc(env))
    env.run()
    (span,) = log
    assert span.start == 0.0 and span.end == 2.0
    assert span.args == {"round": 1, "items": 5}
    assert tr.spans == [span]


def test_disabled_tracer_records_nothing():
    env = Environment()
    tr = Tracer(env, enabled=False)
    assert tr.begin(0, "c", "n") is None
    tr.record(0, "c", "n", 0, 1)
    tr.instant(0, "n", 0)
    assert len(tr) == 0


def test_begin_without_env_raises():
    tr = Tracer()
    with pytest.raises(ValueError):
        tr.begin(0, "c", "n")


def test_filtering_and_totals():
    tr = Tracer(enabled=True)
    tr.record(0, "compute", "r0", 0.0, 1.0)
    tr.record(0, "compute", "r1", 2.0, 2.5)
    tr.record(1, "compute", "r0", 0.0, 4.0)
    tr.record(0, "comm", "r0", 1.0, 2.0)
    assert len(tr.spans_for(host=0)) == 3
    assert len(tr.spans_for(category="compute")) == 3
    assert len(tr.spans_for(host=0, category="compute")) == 2
    assert tr.total_time(0, "compute") == pytest.approx(1.5)


def test_chrome_trace_export(tmp_path):
    tr = Tracer()
    tr.record(0, "compute", "r0", 0.0, 1e-6, actor="main", edges=10)
    tr.instant(1, "barrier", 2e-6, round=0)
    path = tr.save(str(tmp_path / "trace.json"))
    with open(path) as f:
        data = json.load(f)
    events = data["traceEvents"]
    x = [e for e in events if e["ph"] == "X"]
    i = [e for e in events if e["ph"] == "i"]
    m = [e for e in events if e["ph"] == "M"]
    assert len(x) == 1 and x[0]["dur"] == pytest.approx(1.0)  # us
    assert len(i) == 1 and i[0]["name"] == "barrier"
    assert {e["pid"] for e in m} == {0, 1}


def test_metadata_rows_sorted_and_complete():
    tr = Tracer()
    tr.record(2, "compute", "r0", 0.0, 1e-6)
    tr.record(0, "compute", "r0", 0.0, 1e-6)
    tr.record(1, "compute", "r0", 0.0, 1e-6)
    m = [e for e in tr.to_chrome_trace()["traceEvents"] if e["ph"] == "M"]
    # process_name + process_sort_index per host, in ascending host order.
    hosts = [e["pid"] for e in m if e["name"] == "process_name"]
    assert hosts == [0, 1, 2]
    sort_rows = [e for e in m if e["name"] == "process_sort_index"]
    assert [e["args"]["sort_index"] for e in sort_rows] == [0, 1, 2]


def test_save_is_atomic(tmp_path):
    """save() replaces the destination in one step: a crashed or raced
    writer can never leave a truncated JSON behind."""
    tr = Tracer()
    tr.record(0, "compute", "r0", 0.0, 1e-6)
    path = tmp_path / "trace.json"
    path.write_text("stale-but-parseable-must-survive-until-replace")
    tr.save(str(path))
    with open(path) as f:
        json.load(f)  # fully written
    assert os.listdir(tmp_path) == ["trace.json"]  # no temp droppings


def test_engine_emits_spans():
    g = rmat(7, edge_factor=8, seed=3)
    tracer = Tracer()
    cfg = EngineConfig(num_hosts=4, layer="lci", tracer=tracer)
    eng = BspEngine(g, Bfs(source=0), cfg)
    metrics = eng.run()
    # One compute span per host per round, plus allreduce spans.
    comp = tracer.spans_for(category="compute")
    assert len(comp) == 4 * metrics.rounds
    assert tracer.spans_for(category="allreduce")
    # Tracer totals agree with the metrics' compute accounting.
    for h in range(4):
        assert tracer.total_time(h, "compute") == pytest.approx(
            sum(eng._compute_rounds[h]), rel=1e-9
        )
    # The trace exports cleanly.
    payload = tracer.to_chrome_trace()
    assert any(e["ph"] == "X" for e in payload["traceEvents"])
