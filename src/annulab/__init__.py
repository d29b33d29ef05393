"""annulab: a numerical laboratory for exterior-domain asymptotics in 2D.

The package builds annular grids around an excised disk, solves linear and
fully nonlinear elliptic equations on them, and measures the quantities
that control the behaviour of solutions at infinity: quasiconformal
dilatation of gradient maps, Holder decay exponents, and the coefficients
of the quadratic-plus-logarithm expansion.
"""

from .cli import Scenario, run_acceptance, run_scenario, verify_suite
from .elliptic import (
    LinearCoefficients,
    ellipticity_constants,
    newtonian_potential,
    solve_linear_dirichlet,
)
from .expansion import (
    BootstrapSchedule,
    ExpansionCoefficients,
    LaurentCoefficients,
    bootstrap_schedule,
    d_from_divergence,
    fit_expansion,
    formula_schedule,
    hessian_limit,
    laurent_coefficients,
)
from .grid import (
    LOG_RADIAL,
    UNIFORM_RADIAL,
    AnnularGrid,
    PlanarMapping,
    ScalarField,
    SymMatrixField,
    annulus_integral,
    build_grid,
    gradient,
    hessian,
    laplacian,
    read_snapshot,
    write_snapshot,
)
from .nonlinear import (
    FullyNonlinearSpec,
    NewtonError,
    NewtonTrace,
    monge_ampere_spec,
    newton_solve,
    radial_ma_reference,
    special_lagrangian_spec,
)
from .qcmap import (
    DecayFit,
    DilatationReport,
    dilatation_field,
    fit_power_law,
    holder_exponent,
    kelvin_conjugate,
    limit_and_decay,
    verify_kelvin_identities,
)

__version__ = "0.1.0"
