import json
import math

import numpy as np
import pytest

from phmid import integrators
from phmid.graphs import Graph
from phmid.harness import (NOT_REACHED, STATUS_DIVERGED, STATUS_MAX_STEPS,
                           ExperimentConfig, RunTrace, SweepTable, export_csv,
                           k_b, run, tau_sweep)
from phmid.numerics import MaxIterationsError


def _quad_config(**kw):
    base = dict(graph_spec="cycle:6", cost_spec="quadratic:2:42",
                scheme_spec="mid:tau=10", steps=400, seed=1)
    base.update(kw)
    return ExperimentConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        _quad_config(steps=0)
    with pytest.raises(ValueError):
        _quad_config(accuracy_b=0.0)


def test_mid_run_converges_with_max_steps_status():
    trace = run(_quad_config(steps=5000))
    assert trace.status == STATUS_MAX_STEPS
    assert trace.final_error <= 1e-6
    assert len(trace.errors) == 5001
    assert k_b(trace, 1e-6) is not None


def test_euler_run_diverges_at_large_tau():
    trace = run(_quad_config(scheme_spec="euler:tau=10", steps=1000))
    assert trace.status == STATUS_DIVERGED
    assert len(trace.errors) < 1001
    assert np.all(np.isfinite(trace.errors))
    assert k_b(trace, 1e-6) is None


def test_gradient_tracking_run():
    trace = run(_quad_config(scheme_spec="gt:tau=0.02", steps=3000))
    assert trace.status == STATUS_MAX_STEPS
    assert trace.final_error <= 1e-5
    assert trace.lyapunov is None


def test_record_lyapunov_and_history():
    trace = run(_quad_config(steps=50, record_lyapunov=True))
    assert trace.lyapunov is not None
    assert trace.q_history.shape == (51, 6, 2)
    assert np.all(np.diff(trace.lyapunov) <= 1e-12)  # storage distance shrinks


def test_k_b_examples():
    assert k_b(np.array([1.0, 1e-7, 1e-8]), 1e-6) == 1
    assert k_b(np.array([1e-7, 1.0, 1e-7]), 1e-6) == 2
    assert k_b(np.array([1.0, 1.0, 1.0]), 1e-6) is None
    assert k_b(np.array([1e-8, 1e-9]), 1e-6) == 0
    with pytest.raises(ValueError):
        k_b(np.array([1.0]), 0.0)


def _k_b_oracle(errors, bound):
    for start in range(len(errors)):
        if all(e <= bound for e in errors[start:]):
            return start
    return None


def test_k_b_against_brute_force_oracle():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        length = int(rng.integers(1, 30))
        errors = 10.0 ** rng.uniform(-9, 1, size=length)
        bound = 10.0 ** rng.uniform(-8, 0)
        got = k_b(errors, bound)
        expected = _k_b_oracle(list(errors), bound)
        assert got == expected
        if got is not None:
            assert got == 0 or errors[got - 1] > bound
            assert np.all(errors[got:] <= bound)


def test_tau_sweep_shares_seed_and_reports_rows():
    cfg = _quad_config(steps=600)
    table = tau_sweep(cfg, [0.2, 2.0], ["mid", "euler"])
    assert len(table) == 4
    mid_rows = table.by_scheme("mid")
    assert [r.tau for r in mid_rows] == [0.2, 2.0]
    # same seed everywhere: initial error identical across cells
    traces = [run(cfg.replaced(scheme_spec=f"{s}:tau={t}"))
              for s, t in [("mid", 0.2), ("euler", 0.2)]]
    assert traces[0].errors[0] == traces[1].errors[0]
    with pytest.raises(ValueError):
        tau_sweep(cfg, [0.0], ["mid"])


@pytest.mark.parametrize("scheme", ["mid", "euler", "gt", "dg"])
def test_sweep_rows_equal_standalone_runs(scheme):
    # the sweep rule: each batched cell reproduces its own run exactly,
    # cells that diverge and leave the batch early included
    cfg = ExperimentConfig("cycle:10", "quadratic:3:42", "mid:tau=1",
                           steps=120, seed=7)
    table = tau_sweep(cfg, [0.05, 0.3, 2.0], [scheme])
    assert [row.tau for row in table] == [0.05, 0.3, 2.0]
    for row in table:
        trace = run(cfg.replaced(scheme_spec=f"{scheme}:tau={row.tau!r}"))
        assert row.k_b == k_b(trace, cfg.accuracy_b)
        assert row.final_error == trace.final_error
        assert row.status == trace.status
    if scheme == "euler":
        assert [row.status for row in table] == [STATUS_MAX_STEPS,
                                                 STATUS_MAX_STEPS,
                                                 STATUS_DIVERGED]


def test_sweep_raises_the_error_of_its_first_failing_cell():
    # mid at tau = 1e4 stalls in step 2 at seed 7; the sweep still raises,
    # with the error that cell's own run raises
    cfg = ExperimentConfig("cycle:10", "quadratic:3:42", "mid:tau=1",
                           steps=6, seed=7)
    with pytest.raises(MaxIterationsError) as alone:
        run(cfg.replaced(scheme_spec="mid:tau=10000.0"))
    for taus in ([1.0, 1e4], [1.0, 1e4, 1e5], [1e4, 1.0]):
        with pytest.raises(MaxIterationsError) as swept:
            tau_sweep(cfg, taus, ["mid", "euler"])
        assert str(swept.value) == str(alone.value)


def test_dg_completes_at_a_huge_tau():
    # at tau = 1e300 the I/tau blocks of the dg Jacobian are far below the
    # Laplacian's, but LAPACK still factors it
    trace = run(ExperimentConfig("cycle:10", "quadratic:3:42", "dg:tau=1e300",
                                 steps=20, seed=7))
    assert trace.status == STATUS_MAX_STEPS
    assert np.all(np.isfinite(trace.errors))


@pytest.mark.parametrize("bad", [math.inf, math.nan, 0.0, -1.0])
def test_tau_sweep_validates_the_grid_before_any_cell(monkeypatch, bad):
    calls = []
    monkeypatch.setattr(integrators, "mid_step",
                        lambda *args, **kwargs: calls.append(args))
    with pytest.raises(ValueError):
        tau_sweep(_quad_config(steps=5), [1.0, 2.0, bad], ["mid"])
    with pytest.raises(ValueError):
        tau_sweep(_quad_config(steps=5), [1.0], ["mid", "warp"])
    assert calls == []


def test_export_csv_empty_table(tmp_path):
    path = tmp_path / "empty.csv"
    export_csv(SweepTable([]), path)
    assert path.read_text() == "scheme,tau,k_b,final_error,status\n"


def test_export_csv_trace_round_trip(tmp_path):
    trace = run(_quad_config(steps=40, record_lyapunov=True))
    path = tmp_path / "trace.csv"
    export_csv(trace, path)
    first = path.read_bytes()
    export_csv(trace, path)
    assert path.read_bytes() == first  # re-export is byte identical
    lines = first.decode().strip().split("\n")
    assert lines[0] == "step,error,lyapunov,newton_max_iters,wall_ns"
    parsed = [float(row.split(",")[1]) for row in lines[1:]]
    assert np.array_equal(np.array(parsed), trace.errors)  # exact round trip


def test_run_determinism_excluding_wall_clock(tmp_path):
    # wall-clock timings are genuinely non-reproducible; everything else in
    # the trace must be byte-identical across re-runs
    cfg = _quad_config(steps=60, record_lyapunov=True)
    a, b = run(cfg), run(cfg)
    assert np.array_equal(a.errors, b.errors)
    assert np.array_equal(a.lyapunov, b.lyapunov)
    assert np.array_equal(a.newton_max_iters, b.newton_max_iters)
    assert a.status == b.status
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    export_csv(a, pa)
    export_csv(b, pb)
    strip = lambda text: [",".join(line.split(",")[:4]) for line in text.split("\n")]
    assert strip(pa.read_text()) == strip(pb.read_text())


def test_sweep_csv_fully_deterministic(tmp_path):
    cfg = _quad_config(steps=300)
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    export_csv(tau_sweep(cfg, [0.5, 5.0], ["mid", "euler"]), pa)
    export_csv(tau_sweep(cfg, [0.5, 5.0], ["mid", "euler"]), pb)
    assert pa.read_bytes() == pb.read_bytes()
    assert NOT_REACHED.encode() in pa.read_bytes() or b"," in pa.read_bytes()


def test_export_rejects_unknown_objects(tmp_path):
    with pytest.raises(TypeError):
        export_csv({"not": "a trace"}, tmp_path / "x.csv")


def test_config_from_json_with_overrides(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "graph_spec": "cycle:6", "cost_spec": "quadratic:2:42",
        "scheme_spec": "mid:tau=10", "steps": 50, "seed": 3}))
    cfg = ExperimentConfig.from_json(path, overrides={"steps": 7})
    assert cfg.steps == 7 and cfg.seed == 3
    with pytest.raises(ValueError):
        ExperimentConfig.from_json(path, overrides={"bogus": 1})


def test_run_trace_repr_and_final_error():
    trace = run(_quad_config(steps=10))
    assert "RunTrace" in repr(trace)
    assert trace.final_error == trace.errors[-1]


@pytest.mark.parametrize("scheme", ["mid:tau=10", "euler:tau=0.05", "gt:tau=0.05"])
@pytest.mark.parametrize("graph", ["cycle:10", "er:12:0.4:1"])
def test_runs_build_no_dense_graph_matrix(monkeypatch, scheme, graph):
    # mid, euler and gt exchange over the edge arrays: no N x N matrix
    # of the graph is built anywhere on their run path
    want = run(_quad_config(graph_spec=graph, scheme_spec=scheme, steps=30))

    def dense(self):
        raise AssertionError("a dense graph matrix was built")

    monkeypatch.setattr(Graph, "adjacency", dense)
    monkeypatch.setattr(Graph, "laplacian", dense)
    trace = run(_quad_config(graph_spec=graph, scheme_spec=scheme, steps=30))
    assert trace.status == STATUS_MAX_STEPS
    assert np.array_equal(trace.errors, want.errors)
