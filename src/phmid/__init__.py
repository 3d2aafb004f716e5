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
from .integrators import (SchemeConfig, StepReport, dg_central_step,
                          euler_step, gradient_tracking_init,
                          gradient_tracking_step, mid_step, parse_scheme_spec)
from .numerics import (SolverSettings, is_psd, kron, min_eigenvalue_symmetric,
                       newton_solve)
from .stability import (CertificateVerdict, LmiCertificate, audit_lyapunov,
                        check_certificate, check_certificate_quadratic,
                        closed_form_certificate, gradient_bound_block,
                        midpoint_map_qr, quadratic_gradient_block,
                        search_certificate, step_gram)

__version__ = "0.1.0"

__all__ = [
    "CostEnsemble", "LogisticCost", "QuadraticCost",
    "random_logistic_ensemble", "random_quadratic_ensemble",
    "NetworkState", "bregman_lyapunov", "continuous_rhs", "equilibrium_state",
    "Graph", "complete", "cycle", "erdos_renyi", "star",
    "ExperimentConfig", "RunTrace", "SweepTable", "export_csv", "k_b", "run",
    "tau_sweep",
    "SchemeConfig", "StepReport", "dg_central_step", "euler_step",
    "gradient_tracking_init", "gradient_tracking_step", "mid_step",
    "parse_scheme_spec",
    "SolverSettings", "is_psd", "kron", "min_eigenvalue_symmetric",
    "newton_solve",
    "CertificateVerdict", "LmiCertificate", "audit_lyapunov",
    "check_certificate", "check_certificate_quadratic",
    "closed_form_certificate", "gradient_bound_block", "midpoint_map_qr",
    "quadratic_gradient_block", "search_certificate", "step_gram",
]
