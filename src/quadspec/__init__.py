"""Angular Mathieu spectrum of a charge in a planar electric-quadrupole field.

The package computes periodic Mathieu characteristic values and
eigenfunctions from their Fourier three-term recurrences, cross-checks
them against a quarter-period shooting oracle, maps the quadrupole
strength xi onto the Mathieu parameter q = 4*xi, classifies the induced
radial inverse-square problem per angular channel, and locates the
critical strengths xi_c at which characteristic curves cross zero and a
new unbounded-below channel opens.
"""

from .criticality import (
    CriticalPoint,
    PairingGap,
    critical_table,
    find_critical,
    log_gap,
    pairing_gap,
)
from .errors import BracketError, ConvergenceError, IntegrationError, SolverError
from .mathieu import (
    DEFAULT_TOL,
    RESIDUAL_TOL,
    CharacteristicValue,
    FourierSolution,
    SymmetryClass,
    char_value,
    char_values,
    equation_residual,
    eval_theta,
    family_for_label,
    fourier_solution,
    negative_q_partner,
    parse_label,
)
from .model import (
    CLASSIFICATION_TOL,
    AngularChannel,
    RadialRegime,
    Regime,
    classify_channels,
    count_open_channels,
    radial_alpha,
    to_mathieu,
)

__version__ = "0.1.0"

__all__ = [
    "AngularChannel",
    "BracketError",
    "CLASSIFICATION_TOL",
    "CharacteristicValue",
    "ConvergenceError",
    "CriticalPoint",
    "DEFAULT_TOL",
    "FourierSolution",
    "IntegrationError",
    "PairingGap",
    "RESIDUAL_TOL",
    "RadialRegime",
    "Regime",
    "SolverError",
    "SymmetryClass",
    "char_value",
    "char_values",
    "classify_channels",
    "count_open_channels",
    "critical_table",
    "equation_residual",
    "eval_theta",
    "family_for_label",
    "find_critical",
    "fourier_solution",
    "log_gap",
    "negative_q_partner",
    "oracle_char_value",
    "pairing_gap",
    "parse_label",
    "radial_alpha",
    "to_mathieu",
]


def __getattr__(name):
    # The oracle loads scipy.integrate, which only `char --oracle` needs (PEP 562);
    # every other exported name is imported above, so only its names reach here.
    if name in __all__:
        from . import oracle
        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
