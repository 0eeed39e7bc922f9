"""Asymptotic expansions of Maclaurin coefficients of G/H^p at smooth points.

Public surface: exact polynomials and jets (series), critical-point solving
and classification (geometry), point-local frames (localframe), the
stationary-point term calculus (stationary), expansion assembly (expansion),
the exact coefficient oracle (oracle), and the batch CLI (cli).
"""

__version__ = "0.1.0"

from .expansion import (
    Expansion,
    FlatSeries,
    combine_expansions,
    expand_degenerate,
    expand_smooth,
    expand_univariate,
    ratio_asymptotics,
)
from .geometry import (
    CriticalPointReport,
    CriticalSystem,
    Direction,
    build_report,
    check_minimality,
    check_smooth,
    critical_system,
    is_aperiodic,
    solve_critical,
)
from .localframe import (
    LocalFrame,
    amplitude_jets,
    build_frame,
    frame_order,
    implicit_root_jet,
    phase_hessian,
    phase_jet,
    vanishing_order,
)
from .oracle import CoeffTable, maclaurin_table
from .series import (
    DEFAULT_BITS,
    GaussRat,
    Jet,
    SparsePoly,
    jet_circle_substitute,
    workprec,
)
from .stationary import (
    PhaseData,
    stationary_term,
    stationary_term_even,
    stationary_term_odd,
)

__all__ = [
    "CoeffTable",
    "CriticalPointReport",
    "CriticalSystem",
    "DEFAULT_BITS",
    "Direction",
    "Expansion",
    "FlatSeries",
    "GaussRat",
    "Jet",
    "LocalFrame",
    "PhaseData",
    "SparsePoly",
    "amplitude_jets",
    "build_frame",
    "build_report",
    "check_minimality",
    "check_smooth",
    "combine_expansions",
    "critical_system",
    "expand_degenerate",
    "expand_smooth",
    "expand_univariate",
    "frame_order",
    "implicit_root_jet",
    "is_aperiodic",
    "jet_circle_substitute",
    "maclaurin_table",
    "phase_hessian",
    "phase_jet",
    "ratio_asymptotics",
    "solve_critical",
    "stationary_term",
    "stationary_term_even",
    "stationary_term_odd",
    "vanishing_order",
    "workprec",
]
