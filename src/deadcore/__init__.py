"""Numerical laboratory for the two-phase nonlocal dead-core equation.

Solves (-Delta)^s u = -(u_+^gamma - u_-^gamma) with exterior Dirichlet data
on uniform 1D grids, together with its local (s -> 1) limit, and measures
the structures the equation is known for: dead cores, branching points,
sharp growth exponents, blow-up rescalings, comparison, and growth probes.
"""

from .analysis import (
    ExponentFit,
    LiouvilleReport,
    blow_up,
    comparison_campaign,
    comparison_check,
    detect_branching,
    detect_dead_core,
    fit_growth_exponent,
    free_boundary,
    liouville_probe,
    s_limit_study,
)
from .fraclap import FracLapOperator, assemble, normalization_constant
from .grid import (
    Grid,
    GridFunction,
    GridSpec,
    TailModel,
    discrete_derivative,
    make_grid,
    sup_on_ball,
)
from .profiles import (
    exact_local_profile,
    getoor_constant,
    getoor_profile,
    growth_exponent,
    odd_exterior_builder,
    profile_coefficient,
    schauder_exponent,
)
from .solver import (
    ReactionSpec,
    SolveReport,
    SolverConfig,
    reaction_value,
    solve,
    solve_local,
    solve_many,
)

__version__ = "0.1.0"
