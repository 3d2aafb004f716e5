"""
phmid: consensus optimization over networks via a port-Hamiltonian flow,
its mixed implicit discretization, and eigenvalue-based LMI stability
certificates.
"""

from .costs import (CostEnsemble, LogisticCost, QuadraticCost,
                    random_logistic_ensemble, random_quadratic_ensemble)
from .dynamics import (NetworkState, bregman_lyapunov, continuous_rhs,
                       equilibrium_state)
from .graphs import Graph, complete, cycle, erdos_renyi, star
from .harness import (ExperimentConfig, RunTrace, SweepTable, export_csv, k_b,
                      run, tau_sweep)
from .integrators import (SchemeConfig, StepPlan, StepReport, dg_central_step,
                          euler_step, gradient_tracking_init,
                          gradient_tracking_step, mid_step, parse_scheme_spec,
                          step_plan)
from .numerics import newton_solve
from .stability import (CertificateVerdict, LmiCertificate, check_certificate,
                        closed_form_certificate, search_certificate)

__version__ = "0.1.0"

__all__ = [
    "CostEnsemble", "LogisticCost", "QuadraticCost",
    "random_logistic_ensemble", "random_quadratic_ensemble",
    "NetworkState", "bregman_lyapunov", "continuous_rhs", "equilibrium_state",
    "Graph", "complete", "cycle", "erdos_renyi", "star",
    "ExperimentConfig", "RunTrace", "SweepTable", "export_csv", "k_b", "run",
    "tau_sweep",
    "SchemeConfig", "StepPlan", "StepReport", "dg_central_step", "euler_step",
    "gradient_tracking_init", "gradient_tracking_step", "mid_step",
    "parse_scheme_spec", "step_plan",
    "newton_solve",
    "CertificateVerdict", "LmiCertificate", "check_certificate",
    "closed_form_certificate", "search_certificate",
]
