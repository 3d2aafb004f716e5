import json
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
# G(1e9) is numerically singular on these bipartite graphs. The closed
# form on the regular cycle is still decided, mode by mode; the irregular
# graph and both searches, whose screens solve with G, get no verdict.
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
    if (value, graph, search) == ("1e9", "cycle:6", False):
        # infeasible: the metric margin is G's bipartite mode, 1/tau^2
        assert main(argv) == 1
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert (row[0], float(row[1])) == ("false", 1.0 / 1e9 ** 2)
        return
    with pytest.raises(SystemExit) as exc:
        main(argv + (["--search"] if search else []))
    assert str(exc.value.code).startswith(flag)
    assert capsys.readouterr().out == ""


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
    with pytest.raises(ValueError, match=f"bad cost spec '{cost}': {reason}"):
        main(["run", "--graph", "cycle:6", "--cost", cost,
              "--scheme", "mid:tau=1", "--steps", "3"])
    with pytest.raises(SystemExit) as exc:
        main(["certify", "--graph", "cycle:6", "--tau", "1", "--quadratic",
              "--cost", cost])
    assert str(exc.value.code) == f"--cost {cost}: bad cost spec '{cost}': {reason}"
    assert capsys.readouterr().out == ""


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
