"""Tests of the benchmark's own code: self-time arithmetic, wrapper
installation and removal, each workload at a tiny size, and the failure
accounting that turns a wrong result into a failed run.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

import argparse
import io
import json
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from nlsgauge import fieldgrid, models, solver  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]

# Each workload's operations at a tiny size: a few steps, a few algebra ops.
TINY = {
    "cli-verify-n512": lambda rng, scratch: workloads.cli_ops(rng, scratch, t_end=0.02),
    "api-equiv-n4096": lambda rng, scratch: workloads.api_ops(rng, scratch, t_end=0.01),
    "classify": lambda rng, scratch: workloads.classify_ops(rng, scratch, per_kind=2),
}


def test_benchmark_json_names_the_runner_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)


def test_self_times_on_nested_spans():
    # 0: root [0, 100) with children 1 [10, 30), 2 [20, 50) overlapping 1,
    #    and 3 [90, 120) running past the root's end;
    # 4: grandchild [12, 20) under 1;  5: a second root [200, 210).
    start = [0, 10, 20, 90, 12, 200]
    end = [100, 30, 50, 120, 20, 210]
    parent = [-1, 0, 0, 0, 1, -1]
    own = spans.self_times(start, end, parent)
    # root: 100 - |[10, 50) u [90, 100)| = 100 - 50
    assert own.tolist() == [50.0, 12.0, 30.0, 30.0, 8.0, 10.0]


def test_tracer_counts_calls_and_self_time(monkeypatch):
    ticks = iter(range(0, 1000, 10))
    monkeypatch.setattr(spans.time, "perf_counter_ns", lambda: next(ticks))
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda: None)

    def body():
        inner()
        inner()

    tracer.wrap("outer", body)()
    # outer [0, 50) holds inner [10, 20) and [30, 40)
    totals = tracer.totals()
    assert totals["outer"] == (1, pytest.approx(30e-9))
    assert totals["inner"] == (2, pytest.approx(20e-9))


def _nlsgauge_bindings():
    bound = {
        (name, attr): value
        for name, mod in sys.modules.items()
        if name == "nlsgauge" or name.startswith("nlsgauge.")
        for attr, value in vars(mod).items()
    }
    bound["RhoExpr.make"] = models.RhoExpr.__dict__["make"]
    return bound


def test_wrappers_installed_where_callers_look_and_restored():
    before = _nlsgauge_bindings()
    with pytest.raises(RuntimeError):
        with spans.installed(spans.Tracer()):
            assert solver.integrate is not before[("nlsgauge.solver", "integrate")]
            # imported by name into solver and gauge: wrapped there as well
            original = before[("nlsgauge.models", "current_functional")]
            assert solver.current_functional is models.current_functional is not original
            assert models.RhoExpr.__dict__["make"] is not before["RhoExpr.make"]
            # only solver's binding of scipy's solve_banded is traced
            assert solver.solve_banded is not fieldgrid.solve_banded
            raise RuntimeError("leave the block with an error")
    after = _nlsgauge_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_workload_runs_at_tiny_size_traced(name, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    tiny = workloads.Workload(TINY[name], TINY[name], workloads.WORKLOADS[name].reference)
    rng = np.random.default_rng(0)
    tally = run.Tally()
    args = argparse.Namespace(workload=name, seed=0, seconds=0, trace=1)
    ops = tiny.round(rng, str(tmp_path))
    metrics, info = run.run_traced(args, rng, tiny, ops, str(tmp_path), tally)
    assert tally.messages == []
    assert (tally.attempted, tally.failed) == (2 * len(ops), 0)
    assert info["traced_ops"] == len(ops)
    assert list(metrics) == PER_LAYER
    assert (tmp_path / f"spans_{name}_seed0.npz").is_file()
    values = {k: v for k, (v, _) in metrics.items()}
    if name == "cli-verify-n512":
        assert values["solver.integrate.calls"] == 3.0
        assert values["solver.integrate.useful_ratio"] == pytest.approx(2 / 3)
        assert values["fieldgrid.write_field_csv.bytes"] > 0
    elif name == "api-equiv-n4096":
        assert values["solver.integrate.calls"] == 2.0
        assert values["solver.integrate.useful_ratio"] == 1.0
        assert values["fieldgrid.write_field_csv.calls"] == 0.0
    else:
        assert values["solver.integrate.calls"] == 0.0
        assert values["models.RhoExpr.make.calls"] > 0
    if name != "classify":
        assert 0 < values["solver.max_rho_discrepancy"] <= workloads.TOLERANCES["rho"]


def test_main_prints_end_to_end_metrics(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(sys, "path", list(sys.path))
    for var in run.THREAD_VARS:
        monkeypatch.setenv(var, "1")
    rc = run.main(["--workload", "classify", "--seed", "3", "--seconds", "0"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rc == 0
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] > 0
    assert list(last["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in last["metrics"].values())
    record = json.loads((tmp_path / "BENCH_classify_seed3_trace0.json").read_text())
    assert record["provenance"]["seed"] == 3
    assert record["provenance"]["threads"]["OMP_NUM_THREADS"] == "1"


def test_main_without_sources_fails_before_running(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "classify", "--seed", "0", "--seconds", "0"]) != 0
    assert capsys.readouterr().out == ""


def test_wrong_results_count_as_failures(tmp_path):
    rng = np.random.default_rng(5)
    over = SimpleNamespace(
        max_rho_discrepancy=1e-3,
        phase_relation_residual=0.0,
        current_collapse_residual=0.0,
        N_drift_original=0.0,
        N_drift_transformed=0.0,
    )
    api = workloads.api_ops(rng, t_end=0.01)[0]
    equiv = workloads._equivalence_op(rng)
    right = equiv.call()
    wrong = right + models.RhoExpr.monomial(Fraction(1, 3), 2)
    cli = workloads.cli_ops(rng, str(tmp_path), t_end=0.02)[0]
    ops = [
        workloads.Op("residual over tolerance", lambda: over, api.check),
        workloads.Op("wrong generator", lambda: wrong, equiv.check),
        workloads.Op("right generator", lambda: right, equiv.check),
        workloads.Op("cli tolerance failure", lambda: (3, str(tmp_path / "none")), cli.check),
        workloads.Op("raises", lambda: 1 / 0, equiv.check),
    ]
    tally = run.Tally()
    run.checked(ops, run.timed_calls(ops), tally)
    assert (tally.attempted, tally.failed) == (5, 4)
    assert [m.split(":")[0] for m in tally.messages] == [
        "residual over tolerance", "wrong generator", "cli tolerance failure", "raises"
    ]


def test_failed_check_makes_the_run_fail(tmp_path, monkeypatch, capsys):
    def broken(rng, scratch=""):
        return [workloads.Op("always wrong", lambda: 1, lambda v: (v, "deliberately wrong"))]

    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setitem(
        workloads.WORKLOADS, "classify",
        workloads.Workload(broken, broken, workloads.WORKLOADS["classify"].reference),
    )
    for var in run.THREAD_VARS:
        monkeypatch.setenv(var, "1")
    with redirect_stdout(io.StringIO()) as out:
        rc = run.main(["--workload", "classify", "--seed", "0", "--seconds", "0", "--trace", "1"])
    last = json.loads(out.getvalue().strip().splitlines()[-1])
    assert rc == 1
    assert last["correct"] is False and last["failed"] == last["attempted"] == 3
