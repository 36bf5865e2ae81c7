"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_run_command(capsys):
    rc = main([
        "run", "--app", "bfs", "--graph", "rmat", "--scale", "8",
        "--hosts", "4", "--layer", "lci",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "bfs" in out and "rounds" in out
    assert "total" in out and "comm" in out


def test_run_command_with_trace(tmp_path, capsys):
    trace = str(tmp_path / "t.json")
    rc = main([
        "run", "--app", "bfs", "--graph", "rmat", "--scale", "8",
        "--hosts", "4", "--layer", "lci", "--trace", trace,
    ])
    assert rc == 0
    with open(trace) as f:
        data = json.load(f)
    assert any(e["ph"] == "X" for e in data["traceEvents"])


def test_run_mpi_layer_on_stampede1(capsys):
    rc = main([
        "run", "--app", "cc", "--graph", "kron", "--scale", "8",
        "--hosts", "4", "--layer", "mpi-probe", "--machine", "stampede1",
        "--mpi", "mvapich2",
    ])
    assert rc == 0
    assert "cc" in capsys.readouterr().out


def test_sweep_command(capsys):
    rc = main([
        "sweep", "--app", "bfs", "--graph", "rmat", "--scale", "8",
        "--hosts", "2", "4",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    for layer in ("lci", "mpi-probe", "mpi-rma"):
        assert layer in out


def test_sweep_gemini_excludes_rma(capsys):
    rc = main([
        "sweep", "--app", "bfs", "--graph", "rmat", "--scale", "8",
        "--hosts", "2", "--system", "gemini",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "mpi-rma" not in out


def test_micro_command(capsys):
    rc = main(["micro", "--sizes", "8", "--threads", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "latency" in out and "message rate" in out
    assert "queue" in out


def test_inputs_command(capsys):
    rc = main(["inputs", "--scale", "8"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "max D_out" in out


def test_invalid_choice_rejected():
    with pytest.raises(SystemExit):
        main(["run", "--app", "nonsense"])


def _usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    return capsys.readouterr().err


def test_run_rejects_zero_hosts(capsys):
    err = _usage_error(["run", "--hosts", "0"], capsys)
    assert "--hosts" in err and "at least 1" in err


def test_run_rejects_negative_scale(capsys):
    err = _usage_error(["run", "--scale", "-1"], capsys)
    assert "--scale" in err and "at least 1" in err


def test_run_rejects_gemini_with_rma(capsys):
    err = _usage_error(
        ["run", "--system", "gemini", "--layer", "mpi-rma"], capsys)
    assert "gemini" in err and "mpi-rma" in err


# Every committed-file gate shares one exit-code contract: drift exits 1;
# a missing or malformed committed file prints ``error: cannot read ...``
# and exits 2 without a traceback (and before any benchmark runs).
GATES = {
    "bench-core --check": ["bench-core", "--check"],
    "bench-core --compare": ["bench-core", "--compare"],
    "bench-serve --check": ["bench-serve", "--check"],
    "analyze --check-baseline": ["analyze", "--check-baseline"],
}
BROKEN = {
    "missing": None,
    "not-json": "{\"format\": ",
    "not-an-object": "[1, 2, 3]",
}


@pytest.mark.parametrize("broken", sorted(BROKEN))
@pytest.mark.parametrize("gate", sorted(GATES))
def test_gate_unreadable_committed_file_exits_2(tmp_path, capsys, gate,
                                                broken):
    path = tmp_path / "committed.json"
    if BROKEN[broken] is not None:
        path.write_text(BROKEN[broken])
    assert main(GATES[gate] + [str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {path}")
    assert "Traceback" not in err


@pytest.mark.parametrize("accepted", [
    "not a list",
    [["P201", "comm/bug.py"]],
    [{"rule": "P201"}],
    [{"path": "comm/bug.py"}],
])
def test_analyze_malformed_baseline_entries_exit_2(tmp_path, capsys,
                                                   accepted):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps({"accepted": accepted}))
    empty = tmp_path / "empty.py"
    empty.write_text("")
    assert main(["analyze", str(empty), "--check-baseline",
                 str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read {path}")


def test_bench_core_compare_against_non_benchmark_exits_2(
        tmp_path, capsys, monkeypatch):
    import repro.bench.core_bench as cb
    from repro.bench.scenarios import Scenario

    monkeypatch.setattr(cb, "CANONICAL_SCENARIOS", (
        Scenario(app="bfs", graph="rmat", scale=7, hosts=2, layer="lci"),))
    path = tmp_path / "other.json"
    path.write_text(json.dumps({"format": "something-else"}))
    assert main(["bench-core", "--compare", str(path),
                 "--repeats", "1"]) == 2
    assert f"error: cannot read {path}" in capsys.readouterr().err
