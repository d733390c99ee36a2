"""The sparse exact layer against the dense oracles of ``tests/oracles.py``:
``Matrix`` products, ``mat_vec``, ``left_of``, row reduction and the
nilpotency index on random sparse rational matrices, and the squares ideal,
the Hom generators, every field of the canonical extension, its g0 and
omega and the reassembled algebra on a corpus of algebras, some in a
basis where the left center is not spanned by basis vectors.  Exact
results do not depend on the order of a sum, so each must equal its oracle
exactly.  On the same corpus and on the benchmark's non-nilpotent rho
inputs, the facts that the one Leibniz check stands in for (g0 Lie, omega
a cocycle, (LLM) on every module built) are checked by their oracles.  A
count of Fraction multiplications guards the cost of the exact layer
without timing it."""

import re
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import oracles
from leibrack.algebra import (
    LeibnizAlgebra,
    Representation,
    _validate_extension,
    assemble_extension,
    bracket,
    canonical_extension,
    is_lie,
    squares_ideal,
    validate_leibniz,
)
from leibrack.cohomology import Cochain, hom_representation, leibniz_differential
from leibrack.corpus import abelian3, dim5, free_nilpotent5, heisenberg, random_leibniz
from leibrack.fileio import parse_algebra_file, write_algebra_file
from leibrack.exact import Matrix, inverse_exact, joint_nilpotency_index, rref
from leibrack.rack import build_rack_system

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import inputs  # noqa: E402

SHAPES = [(0, 0, 0), (0, 3, 2), (3, 0, 2), (2, 3, 0), (0, 0, 4), (4, 0, 0), (1, 1, 1),
          (3, 4, 5), (6, 6, 6), (7, 2, 9)]


def rand_sparse(rng, rows, cols, density=0.3):
    """A rows x cols matrix of small rationals, each entry nonzero with the
    given probability."""
    def entry():
        if rng.random() >= density:
            return 0
        return Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 4)))
    return Matrix.from_rows([[entry() for _ in range(cols)] for _ in range(rows)]) if rows \
        else Matrix.zeros(0, cols)


def shape_and_data(m):
    return m.rows, m.cols, oracles.dense(m)


def filiform(n):
    """The filiform Lie algebra [e1,ek] = e_{k+1}, k = 2..n-1."""
    br = {}
    for k in range(1, n - 1):
        br[(0, k)] = {k + 1: 1}
        br[(k, 0)] = {k + 1: -1}
    return LeibnizAlgebra.from_brackets(n, br)


def rebased(alg, seed):
    """alg in the basis of the columns of a random integer matrix of
    determinant 1, so its left center is not spanned by basis vectors:
    c'_ij^k = (P^-1 [P e_i, P e_j])_k."""
    rng = np.random.default_rng(seed)
    n = alg.dim

    def unit_triangular(lower):
        return Matrix.from_rows([[1 if i == j else int(rng.integers(-1, 2)) if (i > j) == lower
                                  else 0 for j in range(n)] for i in range(n)])
    p = unit_triangular(True) @ unit_triangular(False)
    p_inv = inverse_exact(p)
    cols = [p.col(i) for i in range(n)]
    return LeibnizAlgebra.from_terms(n, (
        (i, j, k, a) for i in range(n) for j in range(n)
        for k, a in enumerate(p_inv.mat_vec(bracket(alg, cols[i], cols[j]))) if a))


CORPUS = ([pytest.param(f, id=f.__name__) for f in (dim5, heisenberg, abelian3)]
          + [pytest.param(lambda s=s: random_leibniz(s), id=f"random_leibniz{s}")
             for s in range(41)]
          + [pytest.param(lambda n=n: filiform(n), id=f"filiform{n}") for n in range(6, 17)]
          + [pytest.param(lambda f=f, s=s: rebased(f(), s), id=f"rebased_{name}")
             for name, f, s in (("dim5", dim5, 0), ("free_nilpotent5", free_nilpotent5, 1),
                                ("filiform8", lambda: filiform(8), 2),
                                ("random_leibniz3", lambda: random_leibniz(3), 3),
                                ("random_leibniz23", lambda: random_leibniz(23), 4))])
# non-nilpotent rho on the left center, as the benchmark generates it
RHO_SEMISIMPLE = [pytest.param(lambda k=k: inputs.rho_semisimple(k, 0), id=f"rho_{k}")
                  for k in inputs.RHO_KINDS]


# -- Matrix ------------------------------------------------------------------

@pytest.mark.parametrize("density", [0.0, 0.2, 0.6, 1.0])
def test_matmul_and_mat_vec_match_the_dense_oracles(density):
    rng = np.random.default_rng(int(density * 10))
    for rows, inner, cols in SHAPES * 3:
        a, b = rand_sparse(rng, rows, inner, density), rand_sparse(rng, inner, cols, density)
        assert shape_and_data(a @ b) == shape_and_data(oracles.dense_matmul(a, b))
        v = [Fraction(int(rng.integers(-3, 4)), 2) if rng.random() < 0.5 else 0
             for _ in range(inner)]
        assert a.mat_vec(v) == oracles.dense_mat_vec(a, v)
    with pytest.raises(ValueError, match="shape mismatch"):
        Matrix.zeros(2, 3) @ Matrix.zeros(2, 3)
    with pytest.raises(ValueError, match="dimension mismatch"):
        Matrix.zeros(2, 3).mat_vec([1, 2])


def test_sums_transpose_and_zero_tests_match_entrywise_arithmetic():
    rng = np.random.default_rng(3)
    for rows, cols, _ in SHAPES * 4:
        a, b = rand_sparse(rng, rows, cols), rand_sparse(rng, rows, cols)
        c = Fraction(int(rng.integers(-3, 4)), 3)
        da, db = oracles.dense(a), oracles.dense(b)
        for got, entry in ((a + b, lambda i, j: da[i][j] + db[i][j]),
                           (a - b, lambda i, j: da[i][j] - db[i][j]),
                           (-a, lambda i, j: -da[i][j]),
                           (a.scale(c), lambda i, j: c * da[i][j]),
                           (a - a, lambda i, j: 0)):
            want = tuple(tuple(entry(i, j) for j in range(cols)) for i in range(rows))
            assert shape_and_data(got) == (rows, cols, want)
            assert got.nonzeros == tuple(tuple((j, e) for j, e in enumerate(r) if e)
                                         for r in want)
            assert got.is_zero() == oracles.dense_is_zero(got)
        t = a.transpose()
        assert shape_and_data(t) == (cols, rows, tuple(zip(*da)) if rows
                                     else ((),) * cols)
        assert np.array_equal(a.to_numpy(),
                              np.array([[float(e) for e in r] for r in da]).reshape(rows, cols))
        assert (a == Matrix.from_rows(da)) if rows else a == Matrix.zeros(0, cols)
        assert (a == b) == (da == db)
    assert Matrix.zeros(0, 2) != Matrix.zeros(0, 3)
    assert Matrix.zeros(2, 0) != Matrix.zeros(3, 0)


def test_from_cols_keeps_shapes_with_no_rows_or_no_columns():
    for m, shape in ((Matrix.from_cols(3, []), (3, 0)), (Matrix.from_cols(0, [(), ()]), (0, 2))):
        assert (m.rows, m.cols) == shape
        assert m == Matrix.zeros(*shape)
    m = Matrix.from_cols(2, [(1, 0), (0, Fraction(1, 2)), (3, 4)])
    assert oracles.dense(m) == ((1, 0, 3), (0, Fraction(1, 2), 4))
    assert [m.col(j) for j in range(3)] == [(1, 0), (0, Fraction(1, 2)), (3, 4)]
    with pytest.raises(ValueError, match="ragged columns"):
        Matrix.from_cols(2, [(1, 0), (1,)])


def test_from_terms_rejects_an_index_out_of_range_on_every_axis():
    # -1 once wrapped to the last row or slot, and a column past the end was
    # stored; a term that cancels is rejected too
    for r, j in ((-1, 0), (2, 0), (0, -1), (0, 3), (-1, 5)):
        for terms in ([(r, j, Fraction(1))], [(r, j, Fraction(1)), (r, j, Fraction(-1))]):
            with pytest.raises(ValueError, match=re.escape(f"index ({r}, {j})")):
                Matrix.from_terms(2, 3, terms)
    for idx, k in (((-1, 0), 0), ((0, 2), 0), ((0, -1), 0), ((2, 0), 0),
                   ((0, 0), -1), ((0, 0), 3), ((0,), 0), ((0, 0, 0), 0)):
        with pytest.raises(ValueError, match=re.escape(f"index ({idx}, {k})")):
            Cochain.from_terms(2, 2, 3, [(idx, k, Fraction(1))])
    assert Matrix.from_terms(2, 3, [(1, 2, Fraction(1))]).row(1) == (0, 0, 1)
    assert Cochain.from_terms(2, 2, 3, [((1, 1), 2, Fraction(1))]).at(1, 1) == (0, 0, 1)


def test_a_matrix_stores_only_its_nonzeros():
    # a dense copy of a 2000 x 2000 matrix takes about 32 MB
    for build in (lambda: Matrix.identity(2000),
                  lambda: Matrix.from_terms(2000, 2000, [(0, 0, Fraction(1))])):
        tracemalloc.start()
        try:
            m = build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (m.rows, m.cols) == (2000, 2000)
        assert peak < 2_000_000, peak


def test_a_cochain_stores_only_its_nonzero_values():
    # over the extension of filiform-16 (d = 15), dL of a one-value 3-cochain
    # reaches a handful of the 15^4 outputs; building all of them peaked at
    # 0.85 MB
    ext = canonical_extension(filiform(16))
    w = Cochain.from_terms(3, ext.g0_dim, ext.center_dim, [((1, 2, 3), 0, Fraction(1))])
    tracemalloc.start()
    try:
        dw = leibniz_differential(ext.rep, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not dw.is_zero()
    assert peak < 250_000, peak
    assert len(canonical_extension(filiform(32)).omega.nonzeros) == 2


def test_an_algebra_stores_only_its_nonzero_constants(tmp_path):
    # parsing filiform-32 into a dense 32^3 tensor peaked at 0.73 MB
    assert LeibnizAlgebra.__slots__ == ("dim", "basis_names", "terms", "__dict__")
    path = tmp_path / "filiform32.leib"
    write_algebra_file(filiform(32), path)
    tracemalloc.start()
    try:
        alg = parse_algebra_file(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert alg == filiform(32)
    assert vars(alg) == {"leibniz_ok": True}  # the parse's check, and no dense tensor
    assert peak < 250_000, peak


def test_left_of_matches_the_dense_oracle():
    rng = np.random.default_rng(5)
    for alg in (dim5(), heisenberg(), abelian3()):
        for k in (0, 1, 3):
            left = tuple(rand_sparse(rng, k, k) for _ in range(alg.dim))
            rep = Representation(alg, k, left, "symmetric")  # (LLM) unchecked: any family
            for _ in range(5):
                x = [Fraction(int(rng.integers(-2, 3)), 3) if rng.random() < 0.5 else 0
                     for _ in range(alg.dim)]
                assert shape_and_data(oracles.left_of(rep, x)) == \
                    shape_and_data(oracles.dense_left_of(rep, x))


def test_rref_matches_the_dense_oracle():
    rng = np.random.default_rng(6)
    for rows, cols, _ in SHAPES * 4:
        for density in (0.1, 0.4, 1.0):
            m = rand_sparse(rng, rows, cols, density)
            red, pivots = rref(m)
            want, want_pivots = oracles.dense_rref(m)
            assert (shape_and_data(red), pivots) == (shape_and_data(want), want_pivots)


def test_joint_nilpotency_index_matches_the_flag_oracle():
    rng = np.random.default_rng(7)
    families = []
    for n in (0, 1, 3, 5):
        for size in (1, 2, 4):
            # strictly upper triangular: nilpotent; the same plus a diagonal: not
            upper = [Matrix.from_rows([[e if j > i else 0 for j, e in enumerate(r)] for i, r
                                       in enumerate(oracles.dense(rand_sparse(rng, n, n, 0.5)))])
                     for _ in range(size)]
            families += [upper, [m + Matrix.identity(n) for m in upper],
                         [rand_sparse(rng, n, n) for _ in range(size)]]
    for alg in (dim5(), heisenberg(), filiform(8)):
        ext = canonical_extension(alg)
        families += [list(ext.g0_matrices), list(ext.rho), list(hom_representation(ext.rep).left)]
    for mats in families:
        assert joint_nilpotency_index(mats) == oracles.flag_nilpotency_index(mats)


# -- the algebra layer ---------------------------------------------------------

@pytest.mark.parametrize("make", CORPUS + RHO_SEMISIMPLE)
def test_squares_ideal_matches_the_two_rank_oracle(make):
    alg = make()
    assert squares_ideal(alg) == oracles.squares_ideal_two_rank(alg)


def test_squares_ideal_never_brackets_vectors(monkeypatch):
    """The squares ideal is one row reduction of the symmetrized table, so
    no bracket of two vectors is formed (the saturation formed 2n of them
    per vector it found)."""
    from leibrack import algebra

    def refuse(*args):
        raise AssertionError("bracket called")
    monkeypatch.setattr(algebra, "bracket", refuse)
    for alg in (dim5(), heisenberg(), abelian3(), free_nilpotent5(), filiform(9)):
        squares_ideal(alg)


@pytest.mark.parametrize("make", CORPUS + RHO_SEMISIMPLE)
def test_the_leibniz_identity_implies_what_the_extension_no_longer_checks(make):
    """canonical_extension checks only the parent's Leibniz identity; what
    it implies holds: g0 is a Lie algebra, omega is a cocycle (dL by its
    definition), and (LLM) holds on rho, on rho as a symmetric module and
    on the Hom module."""
    ext = canonical_extension(make())
    validate_leibniz(ext.g0)
    assert is_lie(ext.g0)
    assert oracles.leibniz_differential_by_definition(ext.rep, ext.omega).is_zero()
    for rep in (ext.rep, Representation.symmetric(ext.g0, ext.rho, ext.center_dim),
                hom_representation(ext.rep)):
        assert oracles.module_axiom_failure(rep) is None, rep.flavor


@pytest.mark.parametrize("make", CORPUS)
def test_hom_generators_match_the_kronecker_oracle(make):
    rep = canonical_extension(make()).rep
    got = hom_representation(rep).left
    assert [shape_and_data(m) for m in got] == \
        [shape_and_data(m) for m in oracles.hom_generators_kron(rep)]


def _fields(value) -> list[str]:
    """The stored fields of an exact record, in constructor order."""
    return [name for name in type(value).__slots__ if name != "__dict__"]


def _rebuilt(value, **changed):
    """An exact record with some fields changed, built through its constructor."""
    return type(value)(**{name: changed.get(name, getattr(value, name))
                          for name in _fields(value)})


def _plain(value):
    """A field of the extension as plain tuples: matrices by shape and
    entries, cochains, algebras and representations field by field."""
    if isinstance(value, Matrix):
        return shape_and_data(value)
    if isinstance(value, (Cochain, LeibnizAlgebra, Representation)):
        return tuple(_plain(getattr(value, name)) for name in _fields(value))
    if isinstance(value, tuple):
        return tuple(_plain(v) for v in value)
    return value


@pytest.mark.parametrize("make", CORPUS)
def test_canonical_extension_matches_the_dense_layer(make, monkeypatch):
    alg = make()
    ext = canonical_extension(alg)
    with monkeypatch.context() as patch:
        for owner, name, dense in oracles.DENSE_EXACT_LAYER:
            patch.setattr(owner, name, dense)
        dense_ext = canonical_extension(alg)
    for name in _fields(ext):
        assert _plain(getattr(ext, name)) == _plain(getattr(dense_ext, name)), name


@pytest.mark.parametrize("make", CORPUS)
def test_quotient_and_omega_match_the_projected_dense_brackets(make):
    alg = make()
    ext = canonical_extension(alg)
    assert (ext.g0, ext.omega) == oracles.quotient_and_omega_by_projection(alg, ext)


@pytest.mark.parametrize("make", CORPUS)
def test_assemble_extension_matches_the_dense_loop(make):
    ext = canonical_extension(make())
    assert assemble_extension(ext.g0, ext.rho, ext.omega) == \
        oracles.assemble_extension_dense(ext.g0, ext.rho, ext.omega)


def test_the_dense_view_is_the_tensor_of_the_old_loop():
    rng = np.random.default_rng(9)
    for n in (0, 1, 2, 4, 7):
        for density in (0.0, 0.1, 0.5):
            brackets = {}
            for i, j, k in np.argwhere(rng.random((n, n, n)) < density):
                brackets.setdefault((int(i), int(j)), {})[int(k)] = \
                    Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 4)))
            alg = LeibnizAlgebra.from_brackets(n, brackets, check=False)
            assert alg.c == oracles.tensor_from_brackets(n, brackets)
    for make in (dim5, heisenberg, abelian3, lambda: filiform(9), lambda: random_leibniz(4)):
        alg = make()
        assert oracles.algebra_from_tensor(alg.c, alg.basis_names) == alg


def _broken(ext):
    """The extension with one exact datum changed at a time."""
    n = ext.parent.dim
    to_parent = Matrix.from_rows([ext.to_parent.row(i) for i in reversed(range(n))])
    from_parent = ext.from_parent + Matrix.from_terms(n, n, [(0, n - 1, Fraction(1))])
    omega = list(oracles.cochain_dense(ext.omega))
    omega[0] += 1
    omega = oracles.cochain_from_dense(2, ext.g0_dim, ext.center_dim, omega)
    rho = (ext.rho[0] + Matrix.identity(ext.center_dim),) + ext.rho[1:]
    g0 = LeibnizAlgebra.from_terms(ext.g0_dim, [(0, 1, 0, 1), *(
        (p, q, r, a) for p, row in enumerate(ext.g0.terms) for q, t in enumerate(row)
        for r, a in t)], ext.g0.basis_names, check=False)  # [e1, e2] gains e1
    return [("split the identity", _rebuilt(ext, to_parent=to_parent)),
            ("split the identity", _rebuilt(ext, from_parent=from_parent)),
            ("reassemble", _rebuilt(ext, omega=omega)),
            ("reassemble", _rebuilt(ext, rep=_rebuilt(ext.rep, left=rho))),
            ("reassemble", _rebuilt(ext, rep=_rebuilt(ext.rep, algebra=g0)))]


@pytest.mark.parametrize("check", [_validate_extension, oracles.validate_extension_pairwise],
                         ids=["sparse", "pairwise"])
def test_extension_check_rejects_changed_data(check):
    ext = canonical_extension(dim5())
    check(ext)
    for message, broken in _broken(ext):
        with pytest.raises(AssertionError, match=message):
            check(broken)


@pytest.mark.parametrize("make", CORPUS)
def test_canonical_extension_evaluates_nothing_on_dense_vectors(make, monkeypatch):
    """g0, rho and omega are read off sparse matrix products and checked as
    one isomorphism, so omega is not evaluated on a dense vector; the
    package has no action of a vector (``left_of`` is a test oracle)."""
    def refuse(*args):
        raise AssertionError("dense evaluation")
    monkeypatch.setattr(Cochain, "evaluate", refuse)
    assert not hasattr(Representation, "left_of")
    ext = canonical_extension(make())
    assert ext.g0_dim + ext.center_dim == ext.parent.dim


# -- work-count guard ------------------------------------------------------------

def _multiplications(monkeypatch, work) -> int:
    """The number of Fraction multiplications that work() makes."""
    count = 0

    def counted(op):
        def mul(a, b):
            nonlocal count
            count += 1
            return op(a, b)
        return mul

    with monkeypatch.context() as patch:
        patch.setattr(Fraction, "__mul__", counted(Fraction.__mul__))
        patch.setattr(Fraction, "__rmul__", counted(Fraction.__rmul__))
        work()
    return count


def test_exact_work_is_bounded_by_nonzeros(monkeypatch):
    # the dense layer made 1835 and 20158 multiplications here; the sparse
    # one makes 225 and 510.  The saturated squares ideal made 120 on dim5,
    # one row reduction of the symmetrized table makes 19
    f12, ext16 = filiform(12), canonical_extension(filiform(16))
    assert _multiplications(monkeypatch, lambda: canonical_extension(f12)) <= 400
    assert _multiplications(monkeypatch, lambda: build_rack_system(ext16)) <= 1000
    assert _multiplications(monkeypatch, lambda: squares_ideal(dim5())) <= 40
