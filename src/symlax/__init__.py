"""symlax: symbolic and numeric verification of integrable structure for
matrix field equations in conservation-law form.

The package builds linearized (symmetry) conditions of matrix nonlinear
PDEs written as divergences, runs the recursion between adjacent conserved
charges in both directions to generate hierarchies of (nonlocal) symmetry
characteristics, constructs the associated linear pairs with a spectral
parameter, and verifies every claimed identity both exactly (normal-form
zero tests over the rationals) and numerically (finite-difference residuals
on sampled exact solutions, with measured convergence orders and off-shell
negative controls).
"""

from .errors import (
    ConfigInvalid,
    DerivativeOrderOverflow,
    DimensionMismatch,
    GridTooSmall,
    IncompatibleSystem,
    InverseOfComposite,
    IoFailure,
    NonMonotone,
    NonTerminating,
    PathInconsistent,
    SingularLambda,
    SymlaxError,
    UnboundAtom,
    UnboundField,
    UnknownConnection,
    ZeroLambda,
)
from .expr import (
    DPotential,
    Field,
    InvField,
    JetExpr,
    Param,
    Potential,
    VarSpace,
    comm,
    evaluate,
    normalize,
    rewrite,
    substitute,
)
from .calculus import (
    FrechetContext,
    covariant_derivative,
    d_multi,
    frechet_derivative,
    reduce_mod_field_equation,
    total_derivative,
)
from .equations import (
    Characteristic,
    EquationDef,
    ImplicitSystem,
    Verdict,
    equation_names,
    field_equation_residual,
    get_equation,
    symmetry_condition,
    symmetry_condition_covariant,
    verify_symmetry,
)
from .recursion import (
    BTSystem,
    Hierarchy,
    LaurentSeries,
    LaxSystem,
    bt_step,
    generate_hierarchy,
    integrate_bt_symbolic,
    laurent_assemble,
    lax_pair,
    lax_truncation_residues,
)
from .numerics import (
    Axis,
    Grid,
    GridEnv,
    GridField,
    LaxIntegration,
    OrderEstimate,
    PotentialResult,
    ResidualStats,
    SolutionFamily,
    SolutionFields,
    compute_potential,
    conservation_residual,
    convergence_order,
    dense_expm,
    eval_characteristic,
    eval_on_grid,
    fd_residual_field_equation,
    integrate_lax,
    load_snapshot,
    nilpotent_family,
    rung_grid,
    sample_solution,
    save_snapshot,
    scaled_margins,
)
from . import sexpr

__version__ = "1.0.0"

__all__ = [name for name in dir() if not name.startswith("_")]
