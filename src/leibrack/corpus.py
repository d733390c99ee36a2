"""Built-in example algebras and a seeded generator of random valid
Leibniz algebras.

The generator cannot just sample structure constants (the Leibniz identity
is quadratic in them); instead it assembles abelian extensions
g0 (+)_omega a from a commuting nilpotent action and an exact solution of
the cocycle equation, which is precisely the class the integration pipeline
consumes (nilpotent rho, non-abelian, dimension <= 5).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

import numpy as np

from .algebra import (
    LeibnizAlgebra,
    Representation,
    assemble_extension,
    canonical_extension,
    left_center,
)
from .cohomology import Cochain, leibniz_differential
from .linalg import Matrix, nullspace, nilpotency_index

BUILTIN_NAMES = ("dim5", "heisenberg", "abelian3")


def dim5() -> LeibnizAlgebra:
    """The 5-dimensional non-split Leibniz algebra:
    [e1,e1] = [e1,e2] = e3, [e2,e1] = [e2,e2] = [e1,e3] = e4,
    [e1,e4] = [e2,e3] = e5."""
    return LeibnizAlgebra.from_brackets(5, {
        (0, 0): {2: 1},
        (0, 1): {2: 1},
        (1, 0): {3: 1},
        (1, 1): {3: 1},
        (0, 2): {3: 1},
        (0, 3): {4: 1},
        (1, 2): {4: 1},
    })


def heisenberg() -> LeibnizAlgebra:
    """The 3-dimensional Heisenberg Lie algebra, [e1,e2] = e3 = -[e2,e1]."""
    return LeibnizAlgebra.from_brackets(3, {
        (0, 1): {2: 1},
        (1, 0): {2: -1},
    })


def abelian3() -> LeibnizAlgebra:
    """Three-dimensional abelian algebra (every bracket zero)."""
    return LeibnizAlgebra.from_brackets(3, {})


def filiform5() -> LeibnizAlgebra:
    """Filiform nilpotent Lie algebra, [e1,ek] = e_{k+1}: one-dimensional
    center, non-abelian quotient (not a CLI built-in; used to exercise the
    non-abelian G0 paths)."""
    return LeibnizAlgebra.from_brackets(5, {
        (0, 1): {2: 1}, (1, 0): {2: -1},
        (0, 2): {3: 1}, (2, 0): {3: -1},
        (0, 3): {4: 1}, (3, 0): {4: -1},
    })


def free_nilpotent5() -> LeibnizAlgebra:
    """Free 2-step nilpotent Lie algebra on two generators plus one level:
    [e1,e2]=e3, [e1,e3]=e4, [e2,e3]=e5; two-dimensional center over a
    Heisenberg quotient."""
    return LeibnizAlgebra.from_brackets(5, {
        (0, 1): {2: 1}, (1, 0): {2: -1},
        (0, 2): {3: 1}, (2, 0): {3: -1},
        (1, 2): {4: 1}, (2, 1): {4: -1},
    })


def builtin(name: str) -> LeibnizAlgebra:
    try:
        return {"dim5": dim5, "heisenberg": heisenberg, "abelian3": abelian3}[name]()
    except KeyError:
        raise ValueError(f"unknown example {name!r}; choose from {BUILTIN_NAMES}") from None


# ---------------------------------------------------------------------------
# closed forms of the dim5 worked example (used by reports and tests)
# ---------------------------------------------------------------------------

def dim5_i1_matrix(a1: float, a2: float) -> np.ndarray:
    """The 3x2 value of the first path integral at g0-coordinates (a1, a2)."""
    col = np.array([a1, 0.5 * a1 * a1 + a2, a1 * a2 + a1 ** 3 / 6.0])
    return np.stack([col, col], axis=1)


def dim5_f(a, b) -> np.ndarray:
    """Closed form of the integrated rack 2-cocycle f(a, b)."""
    a1, a2 = float(a[0]), float(a[1])
    b1, b2 = float(b[0]), float(b[1])
    s = b1 + b2
    return np.array([
        a1 * s,
        (0.5 * b1 * a1 + a2 + 0.5 * a1 * a1) * s,
        (a1 * a2 + a1 ** 3 / 6.0 + 0.25 * b1 * a1 * a1 + 0.5 * b2 * a1
         + 0.5 * b1 * a2 + b1 * b1 * a1 / 6.0) * s,
    ])


def dim5_conjugation(a, b) -> np.ndarray:
    """The full 5-dimensional conjugation (a1..a5) |> (b1..b5).  The group
    action on the center is exp of the strictly triangular rho, which is
    unipotent: the diagonal is 1, so b5 survives into the last coordinate
    (a variant with 0 in that entry would lose it)."""
    a = [float(c) for c in a]
    b = [float(c) for c in b]
    f1, f2, f3 = dim5_f(a[:2], b[:2])
    return np.array([
        b[0],
        b[1],
        b[2] + f1,
        a[0] * b[2] + b[3] + f2,
        (a[1] + 0.5 * a[0] * a[0]) * b[2] + a[0] * b[3] + b[4] + f3,
    ])


def heisenberg_iota2(g, h) -> np.ndarray:
    """Analytic value of the group 2-cocycle for the Heisenberg area form:
    half the area spanned by the log coordinates."""
    return np.array([0.5 * (float(g[0]) * float(h[1]) - float(g[1]) * float(h[0]))])


# ---------------------------------------------------------------------------
# random corpus
# ---------------------------------------------------------------------------

def _random_commuting_nilpotents(rng, d: int, m: int):
    """d pairwise-commuting nilpotent m x m action matrices: integer
    polynomials (without constant term) in one strictly lower triangular N."""
    while True:
        n_mat = [[0] * m for _ in range(m)]
        for i in range(m):
            for j in range(i):
                n_mat[i][j] = int(rng.integers(-2, 3))
        base = Matrix.from_rows(n_mat)
        powers = []
        p = base
        while not p.is_zero():
            powers.append(p)
            p = p @ base
        rho = []
        for _ in range(d):
            acc = Matrix.zeros(m, m)
            for pw in powers:
                acc = acc + pw.scale(int(rng.integers(-2, 3)))
            rho.append(acc)
        if any(not r.is_zero() for r in rho) or not powers:
            return tuple(rho)


def _cocycle_space(rep: Representation) -> list[Cochain]:
    """Exact basis of the degree-2 cocycles Z^2(g0, a) for the given
    anti-symmetric representation: nullspace of the linearized dL^2, whose
    column b is dL of the b-th basis cochain, cells taken row-major."""
    g0, m = rep.algebra, rep.carrier_dim
    d = g0.dim
    cells = [(idx, k) for idx in product(range(d), repeat=2) for k in range(m)]
    terms = []
    for b, (idx, k) in enumerate(cells):
        dw = leibniz_differential(rep, Cochain.from_terms(2, d, m, [(idx, k, Fraction(1))]))
        terms.extend((((y0 * d + y1) * d + y2) * m + kk, b, a)
                     for (y0, y1, y2), val in dw.nonzeros.items() for kk, a in enumerate(val))
    k = nullspace(Matrix.from_terms(d ** 3 * m, len(cells), terms))  # dL^2 lands in degree 3
    return [Cochain.from_terms(2, d, m, ((*cells[b], a) for b, a in enumerate(v))) for v in k]


MAX_DIM = 5          # largest dimension random_leibniz draws
MAX_ATTEMPTS = 200   # draws random_leibniz makes before it gives up


def random_leibniz(seed: int) -> LeibnizAlgebra:
    """Seeded random valid Leibniz algebra of dimension <= MAX_DIM, built as
    an abelian extension and filtered so the recomputed canonical extension
    is non-abelian with nilpotent rho.  g0 is abelian and the rho commute,
    so (LLM) holds; ``canonical_extension`` checks the assembled algebra."""
    rng = np.random.default_rng(seed)
    for _ in range(MAX_ATTEMPTS):
        d = int(rng.integers(1, 4))
        m = int(rng.integers(max(1, 3 - d), MAX_DIM - d + 1))
        g0 = LeibnizAlgebra.from_brackets(d, {})
        rho = _random_commuting_nilpotents(rng, d, m)
        basis = _cocycle_space(Representation.anti_symmetric(g0, rho))
        if not basis:
            continue
        omega = Cochain.zero(2, d, m)
        for bvec in basis:
            omega = omega + bvec.scale(int(rng.integers(-2, 3)))
        alg = assemble_extension(g0, rho, omega)
        if len(left_center(alg)) == alg.dim:
            continue  # abelian: nothing to integrate
        ext = canonical_extension(alg)
        if any(nilpotency_index(r) is None for r in ext.rho):
            continue
        return alg
    raise RuntimeError(f"no algebra found for seed {seed}")
