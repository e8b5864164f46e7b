"""Stability certificates for matrix semigroups via the Lyapunov
inequality: membership margins, decay envelopes, resolvent bounds,
perturbation radii, and left-invertibility constants."""

__version__ = "0.1.0"

from .lyapunov import (
    LyapunovCandidate,
    StabilityCertificate,
    Witness,
    certificate,
    construct_q0,
    membership_margin,
    refute_stability,
    scale_member,
    solve_algebraic,
)
from .models import ModelSpec, build_model, heat_dirichlet, jordan_block, random_stable, upwind_shift
from .perturb import PerturbationReport, admissible_radius, max_alpha, verify_perturbation
from .resolvent import ScanReport, abscissa_profile, resolvent_norm, verify_bound_left_strip, verify_bound_right
from .semigroup import (
    EnvelopeFit,
    SpectralSummary,
    datko_integral,
    growth_bound_estimate,
    left_invertibility_witness,
    lower_envelope,
    spectral_bound,
)
from .space import NormModel, RieszMap, dual_map_norm, op_norm, pairing, strong_positivity_theta, vec_norm

__all__ = [
    "__version__",
    "NormModel",
    "RieszMap",
    "LyapunovCandidate",
    "StabilityCertificate",
    "Witness",
    "ModelSpec",
    "ScanReport",
    "PerturbationReport",
    "EnvelopeFit",
    "SpectralSummary",
    "vec_norm",
    "pairing",
    "op_norm",
    "dual_map_norm",
    "strong_positivity_theta",
    "spectral_bound",
    "growth_bound_estimate",
    "datko_integral",
    "lower_envelope",
    "left_invertibility_witness",
    "membership_margin",
    "refute_stability",
    "solve_algebraic",
    "construct_q0",
    "certificate",
    "scale_member",
    "resolvent_norm",
    "verify_bound_right",
    "verify_bound_left_strip",
    "abscissa_profile",
    "admissible_radius",
    "verify_perturbation",
    "max_alpha",
    "heat_dirichlet",
    "upwind_shift",
    "jordan_block",
    "random_stable",
    "build_model",
]
