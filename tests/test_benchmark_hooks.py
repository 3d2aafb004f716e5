"""What the benchmark in `perfbench/` reads from the package.

`perfbench/tracing.py` hooks functions by name through `vars(...)` and
skips a hook whose target is gone; `perfbench/oracles.py` reads the
per-agent cost records by class name and attribute. Both are read here
as they are, so a refactor that moves one of these names fails a test
instead of silently blinding a per-layer metric or an oracle.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from phmid.costs import from_spec

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# hooks whose targets left the package before this test pinned the rest;
# `step_gram` and `midpoint_map_qr` left because only tests called them
# (the tests now lift `stability._step_matrices`), and their hooks already
# read 0 on `certify`, which never called them. `check_certificate_quadratic`
# left when `check_certificate` took a Hessian stack for both cost
# families, so `stability.check_certificate.ms_per_call` times both
STALE_HOOKS = {"numerics.solve_linear", "integrators.metropolis_weights",
               "stability.gradient_bound_block",
               "stability.quadratic_gradient_block",
               "stability.step_gram", "stability.midpoint_map_qr",
               "stability.check_certificate_quadratic"}


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_hook_resolves():
    tracing = _load("tracing")
    hooks = tracing.Hooks(tracing.Tracer())
    try:
        hooks.install()
    finally:
        hooks.remove()
    assert set(hooks.absent) <= STALE_HOOKS, sorted(set(hooks.absent) - STALE_HOOKS)


@pytest.mark.parametrize("spec, kind, attributes", [
    ("quadratic:3:42", "QuadraticCost", ("h", "b")),
    ("logistic:3:10:0.1:42", "LogisticCost",
     ("points", "labels", "reg", "n_agents")),
])
def test_cost_records_carry_what_the_benchmark_oracles_read(spec, kind, attributes):
    oracles = _load("oracles")
    ensemble = from_spec(spec, 10)
    for cost in ensemble.costs:
        assert oracles._kind(cost) == kind
        assert all(hasattr(cost, name) for name in attributes)
    theta = np.linspace(-1.0, 1.0, ensemble.dim)
    rows = np.stack([oracles.agent_gradient(c, theta) for c in ensemble.costs])
    want = ensemble.gradient_stack(np.broadcast_to(theta, (10, ensemble.dim)))
    assert np.abs(rows - want).max() <= 1e-12
    assert oracles.theta_star_problems(ensemble, ensemble.centralized_optimum()) == []
