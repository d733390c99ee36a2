"""leibrack: integrate finite-dimensional Leibniz algebras into local
augmented Lie racks, and verify every identity along the way.

The exact layer (``exact``, ``algebra``, ``cohomology``, ``fileio``,
``corpus``) imports neither numpy nor ``dataclasses``, and importing the
package loads only it.
The float names (the rack and the quadrature) resolve on first use
through the module ``__getattr__``, which imports their module and is not
cached here: each lookup reads the defining module's current binding.
"""

from importlib import import_module

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
from .cohomology import Cochain, hom_representation, leibniz_differential, tau
from .corpus import abelian3, builtin, dim5, heisenberg, random_leibniz
from .exact import Matrix, OutOfChartError, Rational, matrix_exp, matrix_log, nullspace
from .fileio import (
    ParseError,
    algebra_from_dict,
    algebra_to_dict,
    parse_algebra_file,
    write_algebra_file,
)

# float name -> its defining module
_FLOAT_NAMES = {
    **dict.fromkeys(("QuadratureRule", "gauss_legendre_01", "integrate_01"), "linalg"),
    **dict.fromkeys((
        "LocalRackElement", "LocalRackSystem", "NotLieCocycleError", "augmented_action",
        "build_rack_system", "conjugate", "i1", "i2", "iota2", "rack_product",
        "tangent_bracket"), "rack"),
}


def __getattr__(name: str):
    module = _FLOAT_NAMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(_FLOAT_NAMES))


__version__ = "0.1.0"
