import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import phmid
from phmid.cli import main


def test_run_subcommand_writes_trace(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    code = main(["run", "--graph", "cycle:6", "--cost", "quadratic:2:42",
                 "--scheme", "mid:tau=10", "--steps", "200", "--seed", "1",
                 "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "status=MaxSteps" in text
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "step,error,lyapunov,newton_max_iters,wall_ns"
    assert len(lines) == 202


def test_run_subcommand_from_json_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "graph_spec": "cycle:6", "cost_spec": "quadratic:2:42",
        "scheme_spec": "mid:tau=10", "steps": 500, "seed": 1}))
    code = main(["run", "--config", str(cfg), "--steps", "40"])
    assert code == 0
    assert "k_b=" in capsys.readouterr().out


def test_run_scales_to_a_hundred_thousand_agents(capsys):
    # the edge-array exchange and the stacked cost set-up: no N x N object
    code = main(["run", "--graph", "cycle:100000", "--cost", "quadratic:3:42",
                 "--scheme", "mid:tau=10", "--steps", "3"])
    assert code == 0
    assert "status=MaxSteps" in capsys.readouterr().out


def test_run_subcommand_missing_options():
    with pytest.raises(SystemExit):
        main(["run", "--graph", "cycle:6"])


def test_sweep_subcommand(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--graph", "cycle:6", "--cost", "quadratic:2:42",
                 "--schemes", "mid,euler", "--tau-grid", "0.5:5:3",
                 "--steps", "300", "--seed", "1", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "scheme,tau,k_b,final_error,status"
    assert len(lines) == 7  # 2 schemes x 3 grid points
    assert "euler" in capsys.readouterr().out


def test_sweep_rejects_bad_grid():
    with pytest.raises(SystemExit):
        main(["sweep", "--graph", "cycle:6", "--cost", "quadratic:2:42",
              "--schemes", "mid", "--tau-grid", "nope", "--steps", "10"])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("grid,log", [
    ("nan:1:3", False), ("1:nan:3", True), ("1:inf:3", False),
    ("-inf:1:3", False), ("1:1e400:2", True), ("1:-1:3", True),
    ("1:0:3", True), ("-1e308:1e308:3", False),
    ("1e300:1.7976931348623157e308:3", True),
])
def test_sweep_refuses_a_bad_tau_grid_in_one_line(grid, log, capsys):
    # a non-finite bound, b <= 0 on a log grid, or a grid that overflows:
    # one line naming --tau-grid, before any cell runs, with no warning
    argv = ["sweep", "--graph", "cycle:4", "--cost", "quadratic:2:1",
            "--schemes", "mid", "--steps", "3", f"--tau-grid={grid}"]
    with pytest.raises(SystemExit) as exc:
        main(argv + (["--log"] if log else []))
    assert str(exc.value.code).startswith(f"--tau-grid {grid}: ")
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("schemes,bad", [("mid,warp", "warp"),
                                         ("MID,euler:tau=99", "euler:tau=99")])
def test_sweep_refuses_a_bad_scheme_in_one_line(schemes, bad, capsys):
    argv = ["sweep", "--graph", "cycle:4", "--cost", "quadratic:2:1",
            "--schemes", schemes, "--steps", "3", "--tau-grid", "1:2:2"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == (f"--schemes {schemes}: unknown scheme {bad!r}, "
                              "expected one of euler, dg, mid, gt")
    assert capsys.readouterr().out == ""


def test_certify_feasible_cycle(capsys):
    code = main(["certify", "--graph", "cycle:6", "--tau", "10", "--mu", "1",
                 "--lipschitz", "3", "--m", "1"])
    assert code == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert out[-2] == "feasible,metric_margin,schur_margin,decrease_margin"
    fields = out[-1].split(",")
    assert fields[0] == "true"
    assert len(fields) == 4


def test_certify_infeasible_star(capsys):
    code = main(["certify", "--graph", "star:4", "--tau", "1", "--mu", "0.01"])
    assert code == 1
    assert capsys.readouterr().out.startswith("feasible")


def test_certify_quadratic_search(capsys):
    code = main(["certify", "--graph", "cycle:10", "--tau", "3.78",
                 "--quadratic", "--cost", "quadratic:3:42", "--search"])
    assert code == 0
    fields = capsys.readouterr().out.strip().split("\n")[-1].split(",")
    assert fields[0] == "true"


def test_certify_not_found_exits_nonzero(capsys):
    code = main(["certify", "--graph", "star:4", "--tau", "50",
                 "--mu", "0.01", "--search"])
    assert code == 1
    assert "NotFound" in capsys.readouterr().out


_BAD_INPUTS = [
    ("--tau", "inf"), ("--tau", "nan"), ("--tau", "0"), ("--tau", "-1"),
    ("--m", "0"), ("--m", "-2"),
    ("--mu", "inf"), ("--mu", "nan"), ("--mu", "0"),
    ("--lipschitz", "-3"), ("--lipschitz", "inf"),
]
# G(1e9) is numerically singular on these bipartite graphs; the checks
# and the search, which never solve with G, still decide there
_SINGULAR_G = ["cycle:6", "er:6:0.5:1"]


@pytest.mark.parametrize("search", [False, True], ids=["check", "search"])
@pytest.mark.parametrize("flag,value,graph", [
    pytest.param(flag, value, "cycle:6", id=f"{flag}-{value}")
    for flag, value in _BAD_INPUTS
] + [
    pytest.param("--tau", "1e9", graph, id=f"--tau-1e9-{graph}")
    for graph in _SINGULAR_G
])
def test_certify_rejects_bad_inputs(flag, value, graph, search, capsys):
    options = {"--graph": graph, "--tau": "10", "--mu": "1",
               "--lipschitz": "3", "--m": "1", flag: value}
    argv = ["certify"] + [x for item in options.items() for x in item]
    if value == "1e9":
        # a verdict or NotFound, exit code 1; the closed form is infeasible
        # on its metric margin 1/tau^2, G's bipartite mode
        assert main(argv + (["--search"] if search else [])) == 1
        last = capsys.readouterr().out.splitlines()[-1]
        if search:
            assert "NotFound" in last
        else:
            row = last.split(",")
            assert (row[0], float(row[1])) == ("false", 1.0 / 1e9 ** 2)
        return
    with pytest.raises(SystemExit) as exc:
        main(argv + (["--search"] if search else []))
    assert str(exc.value.code).startswith(flag)
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("graph", ["star:5", "star:20"])
def test_certify_prints_no_negative_metric_margin_at_large_tau(graph, capsys):
    # the metric margin is alpha, or lambda_min(G) >= 1/tau^2
    # read from lambda_min(Q), never an eigenvalue of G computed as a
    # whole, which rounded to -2.8e-16 on star:5 at tau = 1e9
    for tau in ("1e6", "1e8", "1e9", "1e12", "1e50", "1e155"):
        for family in (["--mu", "0.5"],
                       ["--quadratic", "--cost", "quadratic:1:5"],
                       ["--quadratic", "--cost", "quadratic:3:42"]):
            for search in ([], ["--search"]):
                argv = ["certify", "--graph", graph, "--tau", tau]
                assert main(argv + family + search) == 1
                last = capsys.readouterr().out.splitlines()[-1]
                if "NotFound" not in last:
                    metric = last.split(",")[1]
                    assert not metric.startswith("-"), (tau, family, last)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("graph", ["star:6", "cycle:6", "cycle:5"])
@pytest.mark.parametrize("tau", ["1e155", "1e200"])
def test_certify_decides_where_tau_squared_overflows(graph, tau, capsys):
    # tau^2 overflows a float above about 1.3e154: the closed form's
    # alpha = 1/tau^2 then rounds to 0, and certify prints a verdict (here
    # infeasible, as the check already is at tau = 1e150) or one line,
    # without a traceback or a numpy warning
    argv = ["certify", "--graph", graph, "--tau", tau, "--mu", "1"]
    assert main(argv) == 1
    header, row = capsys.readouterr().out.splitlines()
    assert header == "feasible,metric_margin,schur_margin,decrease_margin"
    assert row.startswith("false,")
    for extra in (["--lipschitz", "3", "--search"],
                  ["--quadratic", "--cost", "quadratic:3:42"]):
        flags = argv[:5] + extra if "--quadratic" in extra else argv + extra
        try:
            code = main(flags)
        except SystemExit as exc:  # no verdict: one line naming the tau
            assert str(exc.code).startswith(f"--tau {float(tau):g}")
        else:
            assert code == 1
        capsys.readouterr()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("graph,tau,extra,cause", [
    ("cycle:5", "1e-200", [], "1/tau^2 overflows"),
    ("cycle:5", "1e-200", ["--search"], "1/tau^2 overflows"),
    ("cycle:5", "1e308", [], "tau L overflows"),
    ("star:6", "1e308", [], "tau L overflows"),
    ("cycle:5", "1e308", ["--search"], "tau L overflows"),
    ("cycle:5", "1e307", ["--search"], None),
    ("star:6", "1e307", [], None),
])
def test_certify_at_the_ends_of_the_float_range(graph, tau, extra, cause,
                                                 capsys):
    # where G(tau) or the midpoint map would hold non-finite entries,
    # certify names --tau and the overflow in one line; just inside the
    # range it prints a verdict with finite margins, or NotFound
    argv = ["certify", "--graph", graph, "--tau", tau, "--mu", "1",
            "--lipschitz", "3"] + extra
    if cause is not None:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert str(exc.value.code) == f"--tau {float(tau):g}: {cause}; no verdict"
        assert capsys.readouterr().out == ""
        return
    assert main(argv) == 1
    last = capsys.readouterr().out.splitlines()[-1]
    if "--search" in extra:
        assert "NotFound" in last
    else:
        assert all(math.isfinite(float(x)) for x in last.split(",")[1:])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("graph", ["cycle:5", "star:6"])
def test_certify_names_an_underflowing_rate(graph, capsys):
    # the closed form's rate u = mu / tau underflows to 0 for a tiny mu at
    # a huge tau: certify names both flags in one line; a subnormal u still
    # gets a verdict, and the search, which scans its own u, prints NotFound
    argv = ["certify", "--graph", graph, "--tau", "1e300", "--mu"]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["1e-30"])
    assert str(exc.value.code) == ("--mu 1e-30 --tau 1e+300: u = mu / tau "
                                   "underflows to 0; no verdict")
    assert capsys.readouterr().out == ""
    assert main(argv + ["1e-20"]) == 1
    last = capsys.readouterr().out.splitlines()[-1]
    assert all(math.isfinite(float(x)) for x in last.split(",")[1:])
    assert main(argv + ["1e-30", "--search"]) == 1
    assert "NotFound" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["--graph", "cycle:80", "--tau", "1000", "--mu", "0.5", "--lipschitz", "3"],
    ["--graph", "star:6", "--tau", "0.5", "--mu", "0.5", "--lipschitz", "3"],
    ["--graph", "er:20:0.3:1", "--tau", "10", "--mu", "0.5", "--lipschitz",
     "3", "--search"],
], ids=["closed-form-modes", "closed-form-dense", "search"])
def test_certify_prints_the_same_for_every_m(argv, capsys):
    # a certificate stands for X (x) I_m, so a (mu, L) verdict is the same
    # at every m: the mode path (cycle), the dense N-level path (star) and
    # a search
    runs = []
    for m in ("1", "3"):
        code = main(["certify", "--m", m] + argv)
        runs.append((code, capsys.readouterr().out))
    assert runs[0] == runs[1]


def test_main_reuses_one_parser(monkeypatch, capsys):
    parsers = []
    parse_args = argparse.ArgumentParser.parse_args

    def recording(self, *args, **kwargs):
        parsers.append(self)
        return parse_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recording)
    argv = ["certify", "--graph", "cycle:6", "--tau", "10", "--mu", "1"]
    assert main(argv) == main(argv) == 0
    assert len(parsers) == 2 and parsers[0] is parsers[1]
    capsys.readouterr()


@pytest.mark.parametrize("cost", ["logistic:3:10:0.1:42", "quadratic:3"],
                         ids=["not-quadratic", "malformed"])
def test_certify_rejects_bad_cost(cost, capsys):
    argv = ["certify", "--graph", "cycle:6", "--tau", "1", "--quadratic",
            "--cost", cost]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    message = str(exc.value.code)
    assert message.startswith(f"--cost {cost}: ")
    assert "\n" not in message
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("cost, reason", [
    ("quadratic:0:1", "costs need dimension m >= 1"),
    ("logistic:3:0:0.1:1", "need at least one data point"),
], ids=["zero-dimension", "no-points"])
def test_empty_costs_are_rejected_where_the_spec_enters(cost, reason, capsys):
    for argv in (["run", "--graph", "cycle:6", "--cost", cost,
                  "--scheme", "mid:tau=1", "--steps", "3"],
                 ["certify", "--graph", "cycle:6", "--tau", "1", "--quadratic",
                  "--cost", cost]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert str(exc.value.code) == (f"--cost {cost}: bad cost spec "
                                       f"'{cost}': {reason}")
        assert capsys.readouterr().out == ""


_RUN = ["--steps", "3", "--graph", "cycle:4", "--cost", "quadratic:2:1"]
_SWEEP = ["sweep"] + _RUN + ["--schemes", "mid,euler", "--tau-grid", "1:2:2"]


@pytest.mark.parametrize("argv,message", [
    (["run"] + _RUN + ["--scheme", "mid:tau=1", "--cost", "warp:2:1"],
     "--cost warp:2:1: unrecognized cost spec 'warp:2:1'"),
    (_SWEEP + ["--cost", "warp:2:1"],
     "--cost warp:2:1: unrecognized cost spec 'warp:2:1'"),
    (["run"] + _RUN + ["--scheme", "mid:tau=1", "--graph", "ring:4"],
     "--graph ring:4: unrecognized graph spec 'ring:4'"),
    (_SWEEP + ["--graph", "ring:4"],
     "--graph ring:4: unrecognized graph spec 'ring:4'"),
    (["run"] + _RUN + ["--scheme", "warp:tau=1"],
     "--scheme warp:tau=1: unknown scheme 'warp', expected one of euler, dg, "
     "mid, gt"),
    (["certify", "--graph", "ring:4", "--tau", "1", "--mu", "1"],
     "--graph ring:4: unrecognized graph spec 'ring:4'"),
    (["run"] + _RUN + ["--scheme", "mid:tau=1", "--steps", "0"],
     "--steps 0: steps must be >= 1"),
    (_SWEEP + ["--B", "0"], "--B 0.0: accuracy_b must be > 0"),
    (["run", "--config", "{config}"],
     "--config {config}: unknown config keys: ['horizon']"),
    (["run", "--config", "{config}.missing"],
     "--config {config}.missing: [Errno 2] No such file or directory: "
     "'{config}.missing'"),
    (["run", "--config", "{steps-text}"],
     "--steps 3: steps must be an integer, got str '3'"),
    (["run", "--config", "{steps-real}"],
     "--steps 2.7: steps must be an integer, got float 2.7"),
    (["run", "--config", "{b-text}"],
     "--B 1e-6: accuracy_b must be a real number, got str '1e-6'"),
    (["run", "--config", "{seed-real}"],
     "--seed 1.5: seed must be an integer, got float 1.5"),
    (["run", "--config", "{no-cost}"],
     "--config {no-cost}: missing config keys: ['cost_spec']"),
], ids=["run-cost", "sweep-cost", "run-graph", "sweep-graph", "run-scheme",
        "certify-graph", "run-steps", "sweep-B", "run-config-key",
        "run-config-missing", "run-config-steps-text", "run-config-steps-real",
        "run-config-B-text", "run-config-seed-real", "run-config-no-cost"])
def test_a_bad_spec_exits_in_one_line_naming_its_flag(argv, message, capsys,
                                                      tmp_path):
    # "{name}" stands for the path of config file `name`: "config" has a key
    # that no flag mirrors, the others a value of the wrong type or no cost
    full = {"graph_spec": "cycle:4", "cost_spec": "quadratic:2:1",
            "scheme_spec": "mid:tau=1", "steps": 3}
    configs = {"config": {"graph_spec": "cycle:4", "steps": 3, "horizon": 3},
               "steps-text": dict(full, steps="3"),
               "steps-real": dict(full, steps=2.7),
               "b-text": dict(full, accuracy_b="1e-6"),
               "seed-real": dict(full, seed=1.5),
               "no-cost": {k: v for k, v in full.items() if k != "cost_spec"}}
    for name, data in configs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        argv = [arg.replace(f"{{{name}}}", str(path)) for arg in argv]
        message = message.replace(f"{{{name}}}", str(path))
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == message
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("search", [[], ["--search"]], ids=["check", "search"])
@pytest.mark.parametrize("graph", ["cycle:6", "er:6:0.5:1"])
def test_certify_prints_the_same_for_every_lipschitz_constant(graph, search,
                                                              capsys):
    # L does not enter a (mu, L) verdict, so a huge L, whose gain
    # (L / tau) lambda_max(G) once overflowed into a nan margin or an
    # eigen-solve that did not converge, prints what L = 1 prints
    runs = []
    for lipschitz in ("1", "1e300"):
        code = main(["certify", "--graph", graph, "--tau", "1e-6", "--mu", "1",
                     "--lipschitz", lipschitz] + search)
        runs.append((code, capsys.readouterr().out))
    assert runs[0] == runs[1]
    assert runs[0][1].splitlines()[-1].startswith("true,")


@pytest.mark.parametrize("flags", [
    ["--quadratic", "--cost", "quadratic:3:42", "--m", "5"],
    ["--quadratic", "--cost", "quadratic:3:42", "--mu", "7"],
    ["--quadratic", "--cost", "quadratic:3:42", "--lipschitz", "3"],
    ["--quadratic", "--cost", "quadratic:3:42", "--m", "1"],
    ["--mu", "1", "--cost", "quadratic:3:42"],
], ids=["m", "mu", "lipschitz", "m-default-value", "cost-without-quadratic"])
def test_certify_rejects_flags_of_the_other_family(flags, capsys):
    flag = flags[-2]
    with pytest.raises(SystemExit) as exc:
        main(["certify", "--graph", "cycle:6", "--tau", "1"] + flags)
    message = str(exc.value.code)
    assert message.startswith(f"{flag} ")
    assert "\n" not in message
    assert capsys.readouterr().out == ""


def test_python_dash_m_runs_the_cli(capsys):
    argv = ["certify", "--graph", "cycle:6", "--tau", "1000", "--mu", "1",
            "--lipschitz", "3"]
    assert main(argv) == 0
    expected = capsys.readouterr().out
    src = str(Path(phmid.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-m", "phmid"] + argv, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == expected
