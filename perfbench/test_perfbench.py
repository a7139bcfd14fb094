"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench``.

They check that the smoke mode emits every declared metric with its unit,
that each output check rejects a corrupted output, and that a wrong result
is counted as a failure rather than as a fast operation.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

import maxlinbn  # noqa: E402
import maxlinbn.cli  # noqa: E402

import bench  # noqa: E402
import checks  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402
from checks import CheckFailed  # noqa: E402


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_smoke(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


# --- declared metrics ---------------------------------------------------------


def test_declared_metrics_match_the_code():
    spec = declared()
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(spans.PER_LAYER)


@pytest.mark.parametrize("workload", bench.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_emits_every_metric(workload, trace):
    spec = declared()
    result = run_smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_sources(tmp_path):
    """In a directory holding only the benchmark, a run fails and prints nothing."""
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "learn", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


# --- inputs --------------------------------------------------------------------


def test_generators_draw_like_the_test_helpers():
    from tests import helpers

    for seed in range(5):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        d, edges = inputs.random_dag(a, 30, 0.2)
        assert maxlinbn.Dag(d, edges) == helpers.random_dag(b, 30, 0.2)
        assert inputs.random_disjoint_triple(a, 30, 3, 5) == helpers.random_disjoint_triple(b, 30, 3, 5)
        assert inputs.log_uniform(a) == helpers.log_uniform(b)


def test_inputs_depend_only_on_the_seed(tmp_path):
    one = inputs.separation_inputs(7, inputs.SMOKE, str(tmp_path))
    first = (tmp_path / "dag0.json").read_text()
    two = inputs.separation_inputs(7, inputs.SMOKE, str(tmp_path))
    assert one == two and (tmp_path / "dag0.json").read_text() == first
    assert inputs.separation_inputs(8, inputs.SMOKE, str(tmp_path))["queries"] != one["queries"]


# --- checks reject corrupted outputs ------------------------------------------


def run_cli(argv):
    import contextlib
    import io

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert maxlinbn.cli.run(argv) == 0
    return out.getvalue()


@pytest.fixture(scope="module")
def model(tmp_path_factory):
    """A small weighted DAG, its model file and a sample from it."""
    work = tmp_path_factory.mktemp("model")
    d, weights = inputs.weighted_dag(np.random.default_rng(5), 8, 0.4, 0.5, 2.0)
    path = str(work / "m.json")
    inputs.write_dag(path, d, weights, weights)
    csv = str(work / "x.csv")
    run_cli(["sample", "--model", path, "--n", "3000", "--seed", "9", "--out", csv])
    return SimpleNamespace(d=d, weights=weights, path=path, csv=csv,
                           b=checks.best_path_matrix(d, weights))


def test_best_path_matrix_matches_the_closure(model):
    assert checks.close(checks.best_path_matrix(model.d, model.weights),
                        maxlinbn.MaxLinearModel(maxlinbn.Dag(model.d, model.weights), model.weights).B)


def test_learn_check_rejects_a_flipped_edge_and_a_perturbed_entry(model):
    out = run_cli(["--json", "learn", "--samples", model.csv])
    reference = set(maxlinbn.minimal_dag(model.b)[0].edges)
    checks.check_learn(out, reference, model.b)
    obj = json.loads(out)
    edge = obj["dag"]["edges"][0]
    edge["from"], edge["to"] = edge["to"], edge["from"]
    with pytest.raises(CheckFailed, match="DAG differs"):
        checks.check_learn(json.dumps(obj), reference, model.b)
    obj = json.loads(out)
    v, u = np.argwhere(np.tril(model.b, -1) + np.triu(model.b, 1) > 0)[0]
    obj["B_check"][v][u] *= 1 + 1e-6
    with pytest.raises(CheckFailed, match="B_check"):
        checks.check_learn(json.dumps(obj), reference, model.b)


def perturbed(out: str, key: str, factor: float, find=lambda m: m > 0) -> str:
    obj = checks.parse_json_lines(out)
    m = np.asarray(obj[key])
    off = find(m) & ~np.eye(len(m), dtype=bool)
    v, u = np.argwhere(off)[0]
    obj[key][v][u] *= factor
    return json.dumps(obj)


def test_fit_checks_reject_perturbed_matrices(model):
    closure = run_cli(["--json", "closure", "--dag", model.path])
    b = checks.check_closure(closure, model.b)
    with pytest.raises(CheckFailed, match="closure output"):
        checks.check_closure(perturbed(closure, "B", 1.001), model.b)

    with open(os.path.join(os.path.dirname(model.path), "b.json"), "w") as fh:
        fh.write(closure)
    minimize = run_cli(["--json", "minimize", "--matrix", fh.name])
    checks.check_minimize(minimize, b)
    obj = json.loads(minimize)
    obj["edges"][0]["weight"] *= 1.001
    with pytest.raises(CheckFailed, match="minimal DAG"):
        checks.check_minimize(json.dumps(obj), b)

    gmle = run_cli(["--json", "estimate", "--dag", model.path, "--samples", model.csv])
    b_hat = checks.check_gmle(gmle, model.d, model.weights)
    obj = checks.parse_json_lines(gmle)
    u, v = next(iter(model.weights))
    obj["C_hat"][v - 1][u - 1] = model.weights[(u, v)] * 0.999
    with pytest.raises(CheckFailed, match="below the true weight"):
        checks.check_gmle(json.dumps(obj), model.d, model.weights)

    alt = run_cli(["--json", "estimate", "--dag", model.path, "--samples", model.csv,
                   "--estimator", "alt"])
    checks.check_alt(alt, b_hat)
    with pytest.raises(CheckFailed, match="below the GMLE closure"):
        checks.check_alt(perturbed(alt, "B_tilde", 0.5), b_hat)


def test_recursion_check_rejects_a_perturbed_sample(model):
    x = checks.read_csv(model.csv, 3000, model.d)
    z = maxlinbn.noise_matrix(maxlinbn.NoiseSpec.frechet(1.0, 9), 3000, model.d)
    checks.check_recursion(x, z, model.d, model.weights)
    x[17, 3] *= 1.0001
    with pytest.raises(CheckFailed, match="recursion"):
        checks.check_recursion(x, z, model.d, model.weights)


@pytest.fixture(scope="module")
def dag(tmp_path_factory):
    d, edges = inputs.random_dag(np.random.default_rng(2), 12, 0.3)
    path = str(tmp_path_factory.mktemp("dag") / "g.json")
    inputs.write_dag(path, d, edges)
    return SimpleNamespace(d=d, edges=edges, path=path, oracle=checks.SeparationOracle(d, edges))


def test_query_check_rejects_an_inverted_verdict(dag):
    a, b, s = {1}, {2}, {3, 4}
    out = run_cli(["--json", "query", "--dag", dag.path, "--left", "1", "--right", "2",
                   "--given", "3,4", "--method", "both"])
    expected = dag.oracle.separated(a, b, s)
    checks.check_query(out, expected)
    with pytest.raises(CheckFailed):
        checks.check_query(out, not expected)
    obj = json.loads(out)
    obj["m-separated"] = not obj["m-separated"]
    with pytest.raises(CheckFailed, match="m-separated"):
        checks.check_query(json.dumps(obj), expected)


@pytest.mark.parametrize("kind", ["local", "ordered"])
def test_statements_check_rejects_a_changed_statement(dag, kind):
    out = run_cli(["--json", "statements", "--dag", dag.path, "--kind", kind])
    expected = dag.oracle.statements(kind)
    checks.verify_statements_hold(dag.oracle, expected)
    checks.check_statements(out, expected)
    obj = json.loads(out)
    obj[0]["given"] = obj[0]["given"][1:] + [obj[0]["b"].pop()]
    with pytest.raises(CheckFailed):
        checks.check_statements(json.dumps(obj), expected)


def test_independence_oracle_matches_networkx_and_rejects_an_inverted_verdict():
    d, edges = inputs.random_dag(np.random.default_rng(4), 9, 0.35)
    oracle = checks.SeparationOracle(d, edges)
    expected = oracle.independences(3)
    assert all(h == oracle.separated({x}, {y}, s) for x, y, s, h in expected)
    stmts = maxlinbn.enumerate_independences(maxlinbn.Dag(d, edges), 3)
    checks.check_independences(stmts, expected)
    first = stmts[0]
    stmts[0] = maxlinbn.IndependenceStatement(first.a, first.b, first.given, not first.holds)
    with pytest.raises(CheckFailed, match="differ from the reference"):
        checks.check_independences(stmts, expected)


# --- a wrong result is a failure, never a fast operation -------------------------


def test_a_fast_wrong_result_counts_as_failed(monkeypatch, tmp_path, capsys):
    """``learn`` made to answer instantly with a wrong DAG: every learn call
    fails, and the operation median reads as the whole timed total."""
    empty = maxlinbn.Dag(inputs.SMOKE.learn_d, [])
    monkeypatch.setattr(maxlinbn.cli, "identify_structure", lambda x, rtol: (empty, {}))
    args = SimpleNamespace(workload="learn", seed=1, seconds=0.3, trace=0, smoke=True)
    assert bench.run(args, inputs.SMOKE, str(tmp_path)) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] // 2
    op_p50_s = next(float(ln.split()[1]) for ln in lines if ln.startswith("op_p50_s "))
    assert op_p50_s >= 0.3


def test_recorder_counts_exceptions_and_exit_codes_as_failures():
    rec = bench.Recorder(spans.Tracer())
    ok = rec.cli("query", ["--json", "glr2", "--c", "0.5", "--c-star", "0.4", "--x1", "1",
                           "--x2", "1"])
    rec.check(ok, lambda: None)
    bad_exit = rec.cli("query", ["--json", "closure", "--dag", "/nonexistent.json"])
    raised = rec.cli("query", ["--json", "glr2", "--c", "0.5", "--c-star", "0.4", "--x1", "1",
                               "--x2", "1"])
    rec.check(raised, lambda: {}["missing"])
    crashed = rec.library("independences", lambda: 1 / 0)
    rec.end_op()
    assert [c.ok for c in rec.calls()] == [True, False, False, False]
    assert "exit 1" in bad_exit.why and "KeyError" in raised.why
    assert "ZeroDivisionError" in crashed.why
    assert rec.op_seconds(False) == [rec.timed_total()]


def test_a_crash_inside_the_cli_fails_the_call(monkeypatch):
    def crash(argv):
        raise RuntimeError("boom")

    monkeypatch.setattr(maxlinbn.cli, "run", crash)
    call = bench.Recorder(spans.Tracer()).cli("query", ["--json", "query"])
    assert not call.ok and "exit 1" in call.why and "boom" in call.why


def test_trace_spans_nest_and_restore_the_originals(dag):
    original = maxlinbn.separation.d_separated
    tracer = spans.Tracer()
    with tracer.installed(), tracer.span("bench.query"):
        run_cli(["--json", "query", "--dag", dag.path, "--left", "1", "--right", "2",
                 "--method", "both"])
    assert maxlinbn.separation.d_separated is original
    assert maxlinbn.cli.d_separated is original
    names = Counter(s.name for s in tracer.spans)
    assert names["cli.run"] == 1 and names["graph.Dag"] == 2
    assert names["separation.d_separated"] == 1 and names["formats.load_dag"] == 1
    root = tracer.spans[0]
    assert all(s.root == 0 for s in tracer.spans) and root.name == "bench.query"
    assert sum(tracer.self_times()) == pytest.approx(root.duration)
