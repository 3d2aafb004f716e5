"""
Command line interface: run / sweep / certify.

Spec string formats (shared with the library):
  graphs:  cycle:N | complete:N | star:N | er:N:p:seed
  costs:   quadratic:m:seed | logistic:m:d:C:seed
  schemes: euler|dg|mid|gt with :tau=<value>
"""

import argparse
import functools
import math
import sys

import numpy as np

from . import costs as costs_mod
from . import graphs as graphs_mod
from . import stability
from .harness import NOT_REACHED, ExperimentConfig, export_csv, k_b, run, tau_sweep


def _add_run_args(parser):
    parser.add_argument("--graph", help="graph spec, e.g. cycle:10")
    parser.add_argument("--cost", help="cost spec, e.g. quadratic:3:42")
    parser.add_argument("--steps", type=int, help="number of steps")
    parser.add_argument("--B", type=float, dest="accuracy_b",
                        help="accuracy bound for K_B (default 1e-6)")
    parser.add_argument("--seed", type=int, help="initial-condition seed")
    parser.add_argument("--out", help="CSV output path")
    parser.add_argument("--config", help="JSON config file mirroring the flags "
                                         "(explicit flags override the file)")


def _config_from_args(args, scheme_spec=None):
    overrides = {}
    if args.graph is not None:
        overrides["graph_spec"] = args.graph
    if args.cost is not None:
        overrides["cost_spec"] = args.cost
    if scheme_spec is not None:
        overrides["scheme_spec"] = scheme_spec
    if args.steps is not None:
        overrides["steps"] = args.steps
    if args.accuracy_b is not None:
        overrides["accuracy_b"] = args.accuracy_b
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out is not None:
        overrides["output_path"] = args.out
    if getattr(args, "record_lyapunov", False):
        overrides["record_lyapunov"] = True
    if args.config:
        return ExperimentConfig.from_json(args.config, overrides)
    defaults = {"accuracy_b": 1e-6, "seed": 0}
    defaults.update(overrides)
    missing = [k for k in ("graph_spec", "cost_spec", "scheme_spec", "steps")
               if k not in defaults]
    if missing:
        raise SystemExit(f"missing required options: {missing} "
                         "(give flags or --config)")
    return ExperimentConfig.from_dict(defaults)


def _cmd_run(args):
    config = _config_from_args(args, scheme_spec=args.scheme)
    trace = run(config)
    kb = k_b(trace, config.accuracy_b)
    kb_text = NOT_REACHED if kb is None else str(kb)
    print(f"status={trace.status} final_error={trace.final_error:.6e} "
          f"k_b={kb_text}")
    if config.output_path:
        export_csv(trace, config.output_path)
        print(f"trace written to {config.output_path}")
    return 0


def _parse_grid(text, log_spacing):
    try:
        lo_s, hi_s, count_s = text.split(":")
        lo, hi, count = float(lo_s), float(hi_s), int(count_s)
    except ValueError as exc:
        raise SystemExit(f"bad --tau-grid {text!r}, expected a:b:count") from exc
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise SystemExit(f"--tau-grid {text}: a and b must be finite numbers")
    if count < 1:
        raise SystemExit("--tau-grid count must be >= 1")
    if log_spacing and not (lo > 0 and hi > 0):
        raise SystemExit(f"--tau-grid {text}: a log grid needs a > 0 and b > 0")
    # a grid reaching the ends of the float range overflows; it is refused
    # below, in one line rather than with a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        values = (np.logspace(np.log10(lo), np.log10(hi), count) if log_spacing
                  else np.linspace(lo, hi, count))
    if not np.isfinite(values).all():
        raise SystemExit(f"--tau-grid {text}: the grid passes the float range")
    values = [float(v) for v in values if v > 0]
    if not values:
        raise SystemExit("tau grid contains no positive values")
    return values


def _cmd_sweep(args):
    config = _config_from_args(args, scheme_spec="mid:tau=1")
    taus = _parse_grid(args.tau_grid, args.log)
    schemes = [s.strip() for s in args.schemes.split(",") if s.strip()]
    if not schemes:
        raise SystemExit("--schemes must list at least one scheme")
    table = tau_sweep(config, taus, schemes)
    for row in table:
        kb_text = NOT_REACHED if row.k_b is None else str(row.k_b)
        print(f"{row.scheme} tau={row.tau:.6g} k_b={kb_text} "
              f"final_error={row.final_error:.3e} status={row.status}")
    if config.output_path:
        export_csv(table, config.output_path)
        print(f"table written to {config.output_path}")
    return 0


def _require_positive(flag, value):
    if not (np.isfinite(value) and value > 0):
        raise SystemExit(f"{flag} must be a finite number > 0, got {value!r}")


def _cmd_certify(args):
    # each family takes its constants from its own flags: quadratic ones
    # from --cost, the (mu, L) family from --mu and --lipschitz (--m is
    # checked, but a (mu, L) verdict is the same for every m)
    if args.quadratic:
        for flag, value in (("--m", args.m), ("--mu", args.mu),
                            ("--lipschitz", args.lipschitz)):
            if value is not None:
                raise SystemExit(f"{flag} does not apply with --quadratic "
                                 "(the cost spec gives the Hessians)")
    elif args.cost is not None:
        raise SystemExit("--cost applies only with --quadratic")
    _require_positive("--tau", args.tau)
    if args.m is not None and args.m < 1:
        raise SystemExit(f"--m must be >= 1, got {args.m}")
    for flag, value in (("--mu", args.mu), ("--lipschitz", args.lipschitz)):
        if value is not None:
            _require_positive(flag, value)
    graph = graphs_mod.from_spec(args.graph)
    if args.quadratic:
        if not args.cost:
            raise SystemExit("--quadratic needs --cost quadratic:m:seed")
        try:
            ensemble = costs_mod.from_spec(args.cost, graph.n)
            hessians = ensemble.hessian_blocks()
        except (ValueError, costs_mod.NonQuadraticCostError) as exc:
            raise SystemExit(f"--cost {args.cost}: {exc}") from None
        mu = ensemble.mu
        search_args = {"hessians": hessians}
        check = functools.partial(stability.check_certificate_quadratic,
                                  hessians=hessians)
    else:
        if args.mu is None:
            raise SystemExit("--mu is required without --quadratic")
        mu = args.mu
        lipschitz = args.lipschitz if args.lipschitz is not None else mu
        search_args = {"mu": mu, "lipschitz": lipschitz}
        check = functools.partial(stability.check_certificate, mu=mu,
                                  lipschitz=lipschitz)
    try:
        # at huge taus S holds tau L and some products pass the float range;
        # they read as inf and the margins they enter as failing, which is
        # the verdict, so the overflow is not worth a warning
        with np.errstate(over="ignore", invalid="ignore"):
            if args.search:
                cert = stability.search_certificate(graph, args.tau,
                                                    **search_args)
            else:
                cert = stability.closed_form_certificate(graph, args.tau, mu)
            verdict = None if cert is None else check(cert, graph, args.tau)
    except OverflowError as exc:
        raise SystemExit(f"--tau {args.tau:g}: {exc}; no verdict") from None
    except FloatingPointError as exc:
        raise SystemExit(f"--mu {mu:g} --tau {args.tau:g}: {exc}; "
                         "no verdict") from None
    except np.linalg.LinAlgError as exc:
        # G(tau) = I/tau^2 + Q/tau + Q^2 loses rank in floating point at
        # large tau when Q is singular, as on every bipartite graph
        raise SystemExit(f"--tau {args.tau:g}: G(tau) is numerically singular "
                         f"on graph {args.graph} ({exc}); no verdict") from None
    if verdict is None:
        print("certificate: NotFound (family exhausted; not a proof of "
              "instability)")
        return 1
    print("feasible,metric_margin,schur_margin,decrease_margin")
    print(f"{str(verdict.feasible).lower()},{verdict.metric_margin:.17g},"
          f"{verdict.schur_margin:.17g},{verdict.decrease_margin:.17g}")
    return 0 if verdict.feasible else 1


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="phmid",
        description="Consensus optimization over networks: port-Hamiltonian "
                    "flow, mixed implicit stepping and LMI certificates.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment and export its trace")
    _add_run_args(p_run)
    p_run.add_argument("--scheme", help="scheme spec, e.g. mid:tau=3.78")
    p_run.add_argument("--record-lyapunov", action="store_true",
                       dest="record_lyapunov",
                       help="record the storage-based Lyapunov value and the "
                            "state history")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="K_B over a grid of step sizes")
    _add_run_args(p_sweep)
    p_sweep.add_argument("--tau-grid", required=True,
                         help="grid a:b:count (tau = 0 is skipped)")
    p_sweep.add_argument("--log", action="store_true",
                         help="log-spaced grid instead of linear")
    p_sweep.add_argument("--schemes", required=True,
                         help="comma list, e.g. mid,euler,gt")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_cert = sub.add_parser("certify",
                            help="verify a stability certificate, print margins")
    p_cert.add_argument("--graph", required=True)
    p_cert.add_argument("--tau", type=float, required=True)
    p_cert.add_argument("--mu", type=float, help="strong convexity constant")
    p_cert.add_argument("--lipschitz", type=float,
                        help="gradient Lipschitz constant (defaults to mu)")
    p_cert.add_argument("--m", type=int,
                        help="per-agent dimension (default 1); a (mu, L) "
                             "verdict is the same for every m")
    p_cert.add_argument("--quadratic", action="store_true",
                        help="use the exact quadratic-cost check; needs --cost")
    p_cert.add_argument("--cost", help="cost spec for --quadratic")
    p_cert.add_argument("--search", action="store_true",
                        help="scan the certificate family instead of the "
                             "closed form")
    p_cert.set_defaults(func=_cmd_certify)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
