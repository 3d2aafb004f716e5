import json
import math
import warnings

import numpy as np
import pytest

from phmid import costs, graphs, integrators, numerics
from phmid.dynamics import NetworkState
from phmid.graphs import Graph
from phmid import harness
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


def _one_newton_iteration(monkeypatch):
    """Let every Newton solve iterate once.

    One Newton step solves a quadratic cost's mid step, and its
    centralized optimum, exactly, and at tau = 1 its residual lands within
    the 1e-12 tolerance. At tau >= 1e4 the residual's rounding floor lies
    above the tolerance, and only a second iteration could end the row by
    the correction test, so that cell fails in its first step.
    """
    monkeypatch.setattr(numerics, "_MAX_ITERATIONS", 1)


def test_sweep_raises_the_error_of_its_first_failing_cell(monkeypatch):
    # with one Newton iteration, mid at tau = 1e4 fails in step 1 at seed
    # 7; the sweep still raises, with the error that cell's own run raises
    _one_newton_iteration(monkeypatch)
    cfg = ExperimentConfig("cycle:10", "quadratic:3:42", "mid:tau=1",
                           steps=6, seed=7)
    with pytest.raises(MaxIterationsError) as alone:
        run(cfg.replaced(scheme_spec="mid:tau=10000.0"))
    for taus in ([1.0, 1e4], [1.0, 1e4, 1e5], [1e4, 1.0]):
        with pytest.raises(MaxIterationsError) as swept:
            tau_sweep(cfg, taus, ["mid", "euler"])
        assert str(swept.value) == str(alone.value)


@pytest.mark.parametrize("scheme", ["euler", "gt"])
def test_an_overflowing_step_ends_its_cell_as_diverged(scheme):
    # at tau = 1e308 the first step overflows to inf: the cell leaves the
    # sweep as Diverged, and the tau = 1 cell keeps its row
    cfg = ExperimentConfig("cycle:6", "quadratic:3:1", "mid:tau=1", steps=3,
                           seed=0)
    with np.errstate(over="ignore", invalid="ignore"):
        table = tau_sweep(cfg, [1.0, 1e308], [scheme])
    assert [(row.tau, row.status) for row in table] == [
        (1.0, STATUS_MAX_STEPS), (1e308, STATUS_DIVERGED)]


@pytest.mark.parametrize("cost", ["quadratic:3:42", "logistic:3:10:0.1:42:2.7"])
def test_mid_completes_at_every_step_size(cost):
    # "stable at any step size" in the solver: across 14 decades of tau
    # every cell completes its steps and none diverges
    cfg = ExperimentConfig("cycle:10", cost, "mid:tau=1", steps=20, seed=0)
    taus = np.logspace(-6, 8, 29)
    table = tau_sweep(cfg, taus, ["mid"])
    assert [row.status for row in table] == [STATUS_MAX_STEPS] * taus.size
    assert all(np.isfinite(row.final_error) for row in table)


@pytest.mark.parametrize("cost", ["quadratic:3:42", "logistic:3:10:0.1:42:2.7"])
def test_a_carrying_run_matches_one_off_exact_steps(cost):
    # a run carries each agent's inverse Jacobian from step to step and
    # starts each local solve with a chord correction; one-off steps solve
    # exactly. Both meet the same stop test, so after k steps their states
    # differ by at most the residual tolerance per step (the Jacobian's
    # eigenvalues are at least g_i >= 3 deg_i) plus rounding, which the step map
    # amplifies like tau (p+ takes tau times a difference of q+): the bound
    # is 2 k tol + 16 eps max(1, tau) |state|. Measured over 20 steps and
    # 29 taus: at most 2.9 eps max(1, tau) |state| on quadratic costs, and
    # 6.8e-14 on logistic costs, where the tolerance term dominates
    g = graphs.from_spec("cycle:10")
    ens = costs.from_spec(cost, 10)
    tol = numerics._RESIDUAL_TOLERANCE
    for tau in [float(t) for t in np.logspace(-6, 8, 15)]:
        trace = run(ExperimentConfig("cycle:10", cost, f"mid:tau={tau!r}",
                                     steps=20, seed=7, record_lyapunov=True))
        state = NetworkState(trace.q_history[0], trace.p_history[0])
        for k in range(1, 21):
            state = integrators.mid_step(state, ens, g, tau).state
            scale = max(np.abs(state.q).max(), np.abs(state.p).max())
            bound = (2 * k * tol
                     + 16 * np.finfo(float).eps * max(1.0, tau) * scale)
            assert np.abs(state.q - trace.q_history[k]).max() <= bound, (tau, k)
            assert np.abs(state.p - trace.p_history[k]).max() <= bound, (tau, k)


def test_a_logistic_mid_sweep_carries_each_cells_own_inverses():
    # a row's carried inverse is that of its own last Jacobian, however long
    # the other cells of the batch iterate, so every cell of a logistic
    # sweep steps bitwise as its own run
    cfg = ExperimentConfig("cycle:10", "logistic:3:10:0.1:42:2.7", "mid:tau=1",
                           steps=40, seed=7, record_lyapunov=True)
    taus = [1e-5, 0.05, 2.0, 1e3, 1e7]
    batch = harness._simulate(cfg, [integrators.SchemeConfig("mid", tau)
                                    for tau in taus])
    for tau, trace in zip(taus, batch):
        alone = run(cfg.replaced(scheme_spec=f"mid:tau={tau!r}"))
        assert np.array_equal(trace.q_history, alone.q_history)
        assert np.array_equal(trace.p_history, alone.p_history)
        assert np.array_equal(trace.newton_max_iters, alone.newton_max_iters)


def test_keep_slices_the_carried_inverses_with_the_state():
    g = graphs.from_spec("cycle:6")
    rng = np.random.default_rng(4)
    q, p = rng.standard_normal((2, 4, 6, 2))
    inverses = rng.standard_normal((4, 6, 2, 2))
    plan = integrators.step_plan("mid", g, np.array([0.1, 1.0, 10.0, 100.0]),
                                 q.shape)
    for cells in (slice(2), np.array([True, False, True, True])):
        state, kept, kept_inverses = harness._keep(NetworkState(q, p), plan,
                                                   cells, inverses)
        assert np.array_equal(state.q, q[cells])
        assert np.array_equal(state.p, p[cells])
        assert np.array_equal(kept.tau, plan.tau[cells])
        assert np.array_equal(kept_inverses, inverses[cells])


@pytest.mark.parametrize("scheme", ["euler", "gt"])
def test_an_overflowing_run_ends_diverged_without_a_warning(scheme):
    cfg = ExperimentConfig("cycle:6", "quadratic:3:1", f"{scheme}:tau=1e308",
                           steps=3, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = run(cfg)
    assert trace.status == STATUS_DIVERGED


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
    for schemes in (["mid", "warp"], ["MID", "euler:tau=99"]):
        with pytest.raises(ValueError):
            tau_sweep(_quad_config(steps=5), [1.0], schemes)
    assert calls == []


def test_tau_sweep_labels_rows_with_the_lowercase_kind():
    table = tau_sweep(_quad_config(steps=5), [1.0], ["MID", "Euler"])
    assert [row.scheme for row in table] == ["mid", "euler"]


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


STEP_FUNCTIONS = {"mid": "mid_step", "dg": "dg_central_step",
                  "euler": "euler_step", "gt": "gradient_tracking_step"}


def _record_steps(monkeypatch, kind):
    """Wrap `kind`'s step function in `integrators` with one that records
    the state each call returns; returns that list."""
    name = STEP_FUNCTIONS[kind]
    real = getattr(integrators, name)
    states = []

    def recording(*args, **kwargs):
        out = real(*args, **kwargs)
        states.append(getattr(out, "state", out))
        return out

    monkeypatch.setattr(integrators, name, recording)
    return states


@pytest.mark.parametrize("kind", ["mid", "dg", "euler", "gt"])
def test_runs_call_the_step_function_in_integrators_once_per_step(monkeypatch, kind):
    # a wrapper put over a scheme's step function in `integrators` (the
    # benchmark's tracing hooks, say) sees every step of a run
    states = _record_steps(monkeypatch, kind)
    for steps in (1, 7):
        states.clear()
        run(_quad_config(scheme_spec=f"{kind}:tau=0.05", steps=steps))
        assert len(states) == steps


def test_a_dg_run_builds_its_dense_matrices_once(monkeypatch):
    # the dg plan takes the Laplacian and kron(L, I_m) once per run
    counts = {"laplacian": 0, "kron": 0}
    laplacian, kron = Graph.laplacian, np.kron

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(Graph, "laplacian", counted("laplacian", laplacian))
    monkeypatch.setattr(np, "kron", counted("kron", kron))
    for steps in (2, 9):
        counts.update(laplacian=0, kron=0)
        trace = run(_quad_config(scheme_spec="dg:tau=3.0", steps=steps))
        assert trace.status == STATUS_MAX_STEPS
        assert counts == {"laplacian": 1, "kron": 1}


def test_a_cut_mid_sweep_steps_its_survivors_as_their_own_runs(monkeypatch):
    # with one Newton iteration, mid at tau = 1e4 fails in step 1 at seed
    # 7: the batch goes on with the cells before it, each stepping bitwise
    # as its own run does
    _one_newton_iteration(monkeypatch)
    states = _record_steps(monkeypatch, "mid")
    cfg = ExperimentConfig("cycle:10", "quadratic:3:42", "mid:tau=1",
                           steps=8, seed=7)
    with pytest.raises(MaxIterationsError):
        tau_sweep(cfg, [0.3, 1.0, 1e4, 2.0], ["mid"])
    batch = states[:]
    assert [len(state.q) for state in batch] == [2] * 8
    for t, tau in enumerate([0.3, 1.0]):
        states.clear()
        run(cfg.replaced(scheme_spec=f"mid:tau={tau!r}"))
        for cell, alone in zip(batch, states):
            assert np.array_equal(cell.q[t], alone.q[0])
            assert np.array_equal(cell.p[t], alone.p[0])


def test_a_diverging_euler_cell_leaves_the_others_bitwise_alone(monkeypatch):
    # the middle cell diverges and leaves the batch; the cells on either
    # side keep their own runs' states, errors and rows
    states = _record_steps(monkeypatch, "euler")
    cfg = ExperimentConfig("cycle:10", "quadratic:3:42", "euler:tau=1",
                           steps=120, seed=7)
    taus = [0.05, 2.0, 0.3]
    table = tau_sweep(cfg, taus, ["euler"])
    assert [row.status for row in table] == [STATUS_MAX_STEPS, STATUS_DIVERGED,
                                             STATUS_MAX_STEPS]
    batch = states[:]
    assert [len(state.q) for state in batch].count(3) < len(batch) == 120
    for t in (0, 2):
        row = table.rows[t]
        states.clear()
        trace = run(cfg.replaced(scheme_spec=f"euler:tau={row.tau!r}"))
        assert (row.k_b, row.final_error, row.status) == (
            k_b(trace, cfg.accuracy_b), trace.final_error, trace.status)
        assert len(states) == len(batch)
        for cell, alone in zip(batch, states):
            kept = t if len(cell.q) == 3 else t // 2  # its row in the batch
            assert np.array_equal(cell.q[kept], alone.q[0])
            assert np.array_equal(cell.p[kept], alone.p[0])


@pytest.mark.parametrize("kind", ["mid", "euler"])
def test_a_recorded_batch_solves_its_equilibria_once(kind, monkeypatch):
    # theta* is solved once per run and L once decomposed, however many
    # cells record; each cell's Lyapunov column and history stay bitwise
    # those of its own run, a diverging cell's included
    cfg = ExperimentConfig("cycle:8", "quadratic:2:5", f"{kind}:tau=1",
                           steps=30, seed=3, record_lyapunov=True)
    taus = [0.05, 0.3, 1.0, 3.0] if kind == "mid" else [0.05, 0.2, 5.0]
    alone = [run(cfg.replaced(scheme_spec=f"{kind}:tau={tau!r}")) for tau in taus]
    calls = {"theta": 0, "eigh": 0}
    solve, eigh = costs.CostEnsemble.centralized_optimum, np.linalg.eigh

    def counted_solve(self, *args, **kw):
        calls["theta"] += 1
        return solve(self, *args, **kw)

    def counted_eigh(*args, **kw):
        calls["eigh"] += 1
        return eigh(*args, **kw)

    monkeypatch.setattr(costs.CostEnsemble, "centralized_optimum", counted_solve)
    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    batch = harness._simulate(cfg, [integrators.SchemeConfig(kind, tau)
                                    for tau in taus])
    assert calls == {"theta": 1, "eigh": 1}
    for trace, want in zip(batch, alone):
        assert trace.status == want.status
        assert np.array_equal(trace.lyapunov, want.lyapunov)
        assert np.array_equal(trace.q_history, want.q_history)
        assert np.array_equal(trace.p_history, want.p_history)
    if kind == "euler":
        assert batch[-1].status == STATUS_DIVERGED
