"""leibrack: integrate finite-dimensional Leibniz algebras into local
augmented Lie racks, and verify every identity along the way."""

from .algebra import (
    CentralExtensionData,
    LeibnizAlgebra,
    Representation,
    ValidationError,
    bracket,
    canonical_extension,
    is_lie,
    left_center,
    leibniz_defect,
    squares_ideal,
)
from .cohomology import (
    Cochain,
    RackCochainFn,
    RackModuleStructure,
    hom_representation,
    leibniz_differential,
    rack_differential_eval,
    rack_differential_general,
    tau,
)
from .corpus import abelian3, builtin, dim5, heisenberg, random_leibniz
from .fileio import ParseError, algebra_from_dict, algebra_to_dict, parse_algebra_file, write_algebra_file
from .linalg import (
    Matrix,
    OutOfChartError,
    QuadratureRule,
    Rational,
    gauss_legendre_01,
    integrate_01,
    matrix_exp,
    matrix_log,
    nullspace,
)
from .rack import (
    IntegratorConfig,
    LocalGroupChart,
    LocalRackElement,
    LocalRackSystem,
    NotLieCocycleError,
    augmented_action,
    build_rack_system,
    conjugate,
    default_config,
    delta2,
    i1,
    i2,
    iota2,
    rack_product,
    tangent_bracket,
)

__version__ = "0.1.0"
