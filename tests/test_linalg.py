"""Exact linear algebra, the two numerical kernels, and the quadrature rule."""

import functools
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from leibrack import linalg
from leibrack.algebra import canonical_extension, left_adjoint_map
from leibrack.corpus import dim5, filiform5
from leibrack.exact import (
    Matrix,
    OutOfChartError,
    inverse_exact,
    joint_nilpotency_index,
    matrix_exp,
    matrix_log,
    nilpotency_index,
    nullspace,
    rref,
    rref_nullspace,
)
from leibrack.linalg import (
    _expm_pade,
    exp_float,
    gauss_legendre_01,
    integrate_01,
    log_float,
    matvec,
    norm1_float,
    phi1_float,
)
from leibrack.rack import LocalRackElement, build_rack_system, group_from_coords
from leibrack.suites import elem_distance
from oracles import log_float_probe_all, phi1_two_sided, rank

RHO_E1 = Matrix.from_rows([[0, 0, 0], [1, 0, 0], [0, 1, 0]])


def rand_exact(rng, rows, cols, lo=-3, hi=3):
    return Matrix.from_rows([[int(rng.integers(lo, hi + 1)) for _ in range(cols)]
                             for _ in range(rows)])


# -- nullspace ---------------------------------------------------------------

def test_nullspace_identity_is_trivial():
    assert nullspace(Matrix.identity(2)) == []


def test_nullspace_one_relation():
    basis = nullspace(Matrix.from_rows([[1, 1]]))
    assert len(basis) == 1
    v = basis[0]
    # (1, -1) up to scale
    assert v[0] * (-1) == v[1] and v[0] != 0


def test_nullspace_of_dim5_adjoint_is_e3_e4_e5():
    basis = nullspace(left_adjoint_map(dim5()))
    got = {tuple(int(c) for c in v) for v in basis}
    assert got == {(0, 0, 1, 0, 0), (0, 0, 0, 1, 0), (0, 0, 0, 0, 1)}


def test_rank_nullity_stacking_spans_everything():
    rng = np.random.default_rng(7)
    for _ in range(40):
        m = rand_exact(rng, int(rng.integers(1, 6)), int(rng.integers(1, 6)))
        red, pivots = rref(m)
        rows = [red.row(r) for r in range(len(pivots))]
        stacked = Matrix.from_rows(rows + nullspace(m)) if rows or nullspace(m) \
            else Matrix.zeros(0, m.cols)
        assert rank(stacked) == m.cols


def test_nullspace_vectors_are_in_kernel():
    rng = np.random.default_rng(8)
    for _ in range(30):
        m = rand_exact(rng, int(rng.integers(1, 5)), int(rng.integers(1, 5)))
        for v in nullspace(m):
            assert all(c == 0 for c in m.mat_vec(v))


def test_rref_nullspace_reads_the_kernel_off_a_given_reduction():
    rng = np.random.default_rng(9)
    for _ in range(30):
        m = rand_exact(rng, int(rng.integers(1, 5)), int(rng.integers(1, 5)))
        assert rref_nullspace(*rref(m)) == nullspace(m)


# -- exact inverse -----------------------------------------------------------

def test_inverse_exact_times_the_matrix_is_the_identity():
    rng = np.random.default_rng(10)
    checked = 0
    for _ in range(40):
        n = int(rng.integers(1, 6))
        m = rand_exact(rng, n, n)
        if rank(m) < n:
            with pytest.raises(ValueError, match="singular"):
                inverse_exact(m)
            continue
        inv = inverse_exact(m)
        assert inv @ m == Matrix.identity(n) and m @ inv == Matrix.identity(n)
        checked += 1
    assert checked > 20


def test_inverse_exact_rejects_a_non_square_matrix():
    with pytest.raises(ValueError, match="square"):
        inverse_exact(Matrix.from_rows([[1, 0]]))


# -- matrix exponential ------------------------------------------------------

def test_exp_zero_is_identity():
    assert matrix_exp(Matrix.zeros(3, 3)) == Matrix.identity(3)


def test_exp_diag_zero():
    assert matrix_exp(Matrix.zeros(2, 2)) == Matrix.identity(2)


def test_exp_of_nilpotent_is_exact_series():
    got = matrix_exp(RHO_E1)
    want = Matrix.from_rows([[1, 0, 0], [1, 1, 0], [Fraction(1, 2), 1, 1]])
    assert got == want


def test_exp_equals_truncated_series_for_random_nilpotents():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        rows = [[int(rng.integers(-3, 4)) if j < i else 0 for j in range(n)]
                for i in range(n)]
        m = Matrix.from_rows(rows)
        k = nilpotency_index(m)
        assert k is not None
        acc = Matrix.identity(n)
        p = Matrix.identity(n)
        fact = 1
        for j in range(1, k):
            p = p @ m
            fact *= j
            acc = acc + p.scale(Fraction(1, fact))
        assert matrix_exp(m) == acc


def test_exp_float_fallback_is_flagged():
    # a non-nilpotent exact input has no rational exp: it is an error that
    # points at the float kernel, not a silent float result
    with pytest.raises(ValueError, match="exp_float"):
        matrix_exp(Matrix.from_rows([[1]]))
    assert exp_float(Matrix.from_rows([[1]]).to_numpy())[0, 0] == pytest.approx(np.e, rel=1e-12)


def test_nilpotency_index_agrees_with_powers():
    # the smallest k <= dim with m^k = 0, by powers, on nilpotent and
    # non-nilpotent integer matrices alike
    rng = np.random.default_rng(29)
    seen_none = 0
    for _ in range(200):
        n = int(rng.integers(1, 5))
        lower = rng.random() < 0.5
        m = Matrix.from_rows([[int(rng.integers(-2, 3)) if j < i or not lower else 0
                               for j in range(n)] for i in range(n)])
        want, p = None, m
        for k in range(1, n + 1):
            if p.is_zero():
                want = k
                break
            p = p @ m
        seen_none += want is None
        assert nilpotency_index(m) == want
    assert seen_none


def test_exp_and_log_of_the_empty_matrix():
    assert nilpotency_index(Matrix.zeros(0, 0)) == 1
    e = matrix_exp(Matrix.zeros(0, 0))
    ell = matrix_log(Matrix.identity(0))
    assert (e.rows, e.cols) == (ell.rows, ell.cols) == (0, 0)
    assert e == Matrix.identity(0) and ell == Matrix.zeros(0, 0)


def test_exp_float_scaling_squaring_accuracy():
    rng = np.random.default_rng(5)
    a = rng.uniform(-1, 1, size=(4, 4))
    got = exp_float(a)
    # reference: squared exponential of the halved matrix
    half = exp_float(a / 2)
    assert np.abs(got - half @ half).max() < 1e-12 * np.abs(got).max()


# -- joint nilpotency of a family --------------------------------------------

def test_joint_nilpotency_index_strictly_triangular_family():
    e12 = Matrix.from_rows([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    e23 = Matrix.from_rows([[0, 0, 0], [0, 0, 1], [0, 0, 0]])
    e13 = Matrix.from_rows([[0, 0, 1], [0, 0, 0], [0, 0, 0]])
    # e12 e23 = e13 survives, every product of three vanishes
    assert joint_nilpotency_index([e12, e23]) == 3
    assert joint_nilpotency_index([e12, e23, e13]) == 3
    assert joint_nilpotency_index([e13]) == 2
    assert joint_nilpotency_index([RHO_E1]) == nilpotency_index(RHO_E1) == 3


def test_joint_nilpotency_index_of_zero_family_is_one():
    assert joint_nilpotency_index([Matrix.zeros(3, 3), Matrix.zeros(3, 3)]) == 1
    assert joint_nilpotency_index([]) == 1


def test_joint_nilpotency_index_sl2_nilpotent_basis_is_none():
    # every member is nilpotent, but their span is sl2
    e = Matrix.from_rows([[0, 1], [0, 0]])
    f = Matrix.from_rows([[0, 0], [1, 0]])
    hef = Matrix.from_rows([[1, 1], [-1, -1]])  # h + e - f
    assert all(nilpotency_index(m) == 2 for m in (e, f, hef))
    assert joint_nilpotency_index([e, f, hef]) is None


def test_joint_nilpotency_index_rejects_float_family():
    # the family must be square matrices of one size
    with pytest.raises(ValueError):
        joint_nilpotency_index([Matrix.zeros(2, 2), Matrix.zeros(3, 3)])
    with pytest.raises(ValueError):
        joint_nilpotency_index([Matrix.zeros(2, 3)])


def _normwise_error(got, want):
    """||got - want|| / ||want|| in the induced 1-norm, slice by slice."""
    return norm1_float(got - want) / norm1_float(want)


def test_exp_float_series_at_index_and_pade_without():
    rng = np.random.default_rng(9)
    a = np.tril(rng.uniform(-1, 1, size=(4, 4)), -1)
    assert np.abs(exp_float(a, 4) - scipy.linalg.expm(a)).max() <= 1e-14
    assert np.array_equal(exp_float(np.zeros((3, 3)), 1), np.eye(3))
    full = rng.uniform(-1, 1, size=(3, 3))
    assert _normwise_error(exp_float(full), scipy.linalg.expm(full)) <= 1e-13
    assert exp_float(np.zeros((0, 0)), 1).shape == (0, 0)


# -- the Pade kernel of exp and phi1 without a nilpotency index --------------

# one 1-norm inside each Pade degree's band (theta_3 .. theta_13), then
# norms that take 1, 3 and 5 squarings
PADE_NORMS = (1e-3, 0.2, 0.9, 2.0, 5.0, 10.0, 40.0, 150.0)


def _mp_expm(a):
    """exp(a) from 50-digit mpmath, rounded to floats."""
    import mpmath
    with mpmath.workdps(50):
        return np.array(mpmath.expm(mpmath.matrix(a.tolist())).tolist(), dtype=float)


def _pade_slices():
    """Random, upper triangular, diagonal, Jordan-block and rotation slices
    at every norm of PADE_NORMS, of sizes 2 to 5."""
    rng = np.random.default_rng(41)
    out = []
    for k, target in enumerate(PADE_NORMS):
        n = 2 + k % 4
        general = rng.standard_normal((n, n))
        shapes = (general, np.triu(general), np.diag(rng.standard_normal(n)),
                  rng.standard_normal() * np.eye(n) + np.eye(n, k=1),
                  np.array([[0.0, -1.0], [1.0, 0.0]]))
        out += [a * (target / norm1_float(a)) for a in shapes]
    return out


def test_expm_pade_matches_50_digit_mpmath():
    for a in _pade_slices():
        assert _normwise_error(_expm_pade(a), _mp_expm(a)) <= 1e-13, a


def test_expm_pade_mixed_stack_equals_each_slice():
    # every degree and squaring count in one stack, beside a zero slice,
    # the identity and two non-finite slices, which give NaN without a
    # warning
    rng = np.random.default_rng(42)
    general = rng.standard_normal((len(PADE_NORMS), 4, 4))
    scaled = general * (np.array(PADE_NORMS) / norm1_float(general))[:, None, None]
    nan, inf = np.eye(4), np.eye(4)
    nan[1, 2], inf[3, 0] = np.nan, -np.inf
    stack = np.concatenate([scaled, [np.zeros((4, 4)), nan, inf, np.eye(4)], scaled[::-1]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _expm_pade(stack)
        one_by_one = [_expm_pade(a) for a in stack]
    _same_slices(got, one_by_one)
    # leading axes of any shape
    assert _expm_pade(stack.reshape(4, 5, 4, 4)).tobytes() == got.tobytes()
    k = len(PADE_NORMS)
    assert np.array_equal(got[k], np.eye(4))
    assert np.isnan(got[k + 1:k + 3]).all()
    assert np.isfinite(np.delete(got, [k + 1, k + 2], axis=0)).all()


def _slices_of_each_degree(n=4, seed=44):
    """Two random n x n slices below each theta_m, m = 3, 5, 7, 9, 13, the
    second just under it."""
    rng = np.random.default_rng(seed)
    general = rng.standard_normal((2 * len(linalg._PADE_THETA), n, n))
    norms = np.repeat(linalg._PADE_THETA, 2) * np.tile([0.6, 0.999], len(linalg._PADE_THETA))
    return general * (norms / norm1_float(general))[:, None, None]


def test_expm_pade_stacks_with_and_without_scaling_equal_each_slice():
    # slices of every degree alone take no scaling; beside a slice past
    # theta_13, a NaN or an inf slice, the same slices go through the
    # scaling path; each stack equals its one-slice calls bit for bit
    degrees = _slices_of_each_degree()
    big = degrees[-1] * (4 * linalg._PADE_THETA[-1] / norm1_float(degrees[-1]))
    nan, inf = np.eye(4), np.eye(4)
    nan[0, 3], inf[2, 1] = np.nan, np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for extra in ([], [big], [nan], [inf], [big, nan, inf]):
            stack = np.concatenate([degrees[::-1], extra, degrees]) if extra else degrees
            _same_slices(_expm_pade(stack), [_expm_pade(a) for a in stack])


def test_expm_pade_evaluates_each_degree_once(monkeypatch):
    # a stack of one degree is one Pade evaluation and nothing else; a
    # stack of five degrees is five
    calls = []
    pade = linalg._pade
    monkeypatch.setattr(linalg, "_pade", lambda a, b: calls.append((len(a), len(b))) or pade(a, b))
    degrees = _slices_of_each_degree()
    for d in range(len(linalg._PADE_THETA)):
        calls.clear()
        one = degrees[2 * d:2 * d + 2]
        assert _expm_pade(one).tobytes() == pade(one, linalg._PADE_COEFFS[d]).tobytes()
        assert calls == [(2, len(linalg._PADE_COEFFS[d]))]
    calls.clear()
    _expm_pade(degrees)
    assert calls == [(2, len(b)) for b in linalg._PADE_COEFFS]


def test_phi1_float_without_index_matches_quadrature_of_the_kernel():
    rng = np.random.default_rng(43)
    a = rng.uniform(-1, 1, size=(5, 4, 4)) * np.array([0.1, 0.5, 1.0, 2.0, 4.0])[:, None, None]
    v = rng.uniform(-1, 1, size=(5, 4))
    rule = gauss_legendre_01(16)
    quad = integrate_01(rule, [matvec(exp_float(s * a), v) for s in rule.nodes])
    assert np.abs(phi1_float(a, v) - quad).max() <= 1e-13


# -- phi1: the path integral int_0^1 exp(s a) v ds ---------------------------

def test_phi1_float_scalar_closed_form():
    for lam in (-2.0, -0.5, 1e-3, 0.7, 3.0):
        got = phi1_float(np.array([[lam]]), np.array([1.5]))
        assert got[0] == pytest.approx(1.5 * np.expm1(lam) / lam, rel=1e-14)
    # a zero generator integrates to v on either branch
    assert np.array_equal(phi1_float(np.zeros((1, 1)), np.array([1.5]), 1), [1.5])
    assert phi1_float(np.zeros((1, 1)), np.array([1.5]))[0] == pytest.approx(1.5, rel=1e-15)


def test_phi1_float_series_matches_augmented_expm_and_quadrature():
    rng = np.random.default_rng(10)
    a = np.tril(rng.uniform(-1, 1, size=(4, 4)), -1)
    v = rng.uniform(-1, 1, size=4)
    series = phi1_float(a, v, 4)
    rule = gauss_legendre_01(8)
    quad = integrate_01(rule, [scipy.linalg.expm(s * a) @ v for s in rule.nodes])
    assert np.abs(series - phi1_float(a, v)).max() <= 1e-14
    assert np.abs(series - quad).max() <= 1e-14


def test_phi1_float_empty():
    for index in (None, 1):
        assert phi1_float(np.zeros((0, 0)), np.zeros(0), index).shape == (0,)


def test_phi1_float_block_rhs_matches_columns():
    # an (n, k) right-hand side is k vectors at once, on both branches:
    # a nilpotent a with its index, and a general a through the Pade kernel
    rng = np.random.default_rng(11)
    nilpotent = np.triu(rng.uniform(-1, 1, size=(4, 4)), 1)
    general = rng.uniform(-1, 1, size=(4, 4))
    block = rng.uniform(-1, 1, size=(4, 3))
    for a, index in ((nilpotent, 4), (general, None)):
        got = phi1_float(a, block, index)
        assert got.shape == (4, 3)
        for j in range(3):
            assert np.abs(got[:, j] - phi1_float(a, block[:, j], index)).max() <= 1e-15
    # phi1(a) itself, as phi1(a) I
    rule = gauss_legendre_01(16)
    quad = integrate_01(rule, [scipy.linalg.expm(s * general) for s in rule.nodes])
    assert np.abs(phi1_float(general, np.eye(4)) - quad).max() <= 1e-13


def test_the_two_sided_phi1_oracle_is_the_two_sided_integral():
    # the kernel of the tests' closed form of i1 for any beta,
    # int_0^1 exp(s a) v exp(-s b) ds on (n, k) blocks: the finite series to
    # index + b_index - 1, the Pade kernel of [[a, v], [0, b]] times exp(-b)
    # and quadrature of the integrand agree, and each slice of a stack is
    # what the call on that slice alone gives
    rng = np.random.default_rng(12)
    n, k = 4, 3
    a_nil = np.triu(rng.uniform(-1, 1, (6, n, n)), 1)
    b_nil = np.tril(rng.uniform(-1, 1, (6, k, k)), -1)
    a_gen, b_gen = rng.uniform(-1, 1, (6, n, n)), rng.uniform(-1, 1, (6, k, k))
    v = rng.uniform(-1, 1, (6, n, k))
    rule = gauss_legendre_01(16)
    series = phi1_two_sided(a_nil, v, n, b_nil, k)
    assert np.abs(series - phi1_two_sided(a_nil, v, None, b_nil, None)).max() <= 1e-14
    for a, index, b, b_index in ((a_nil, n, b_nil, k), (a_gen, None, b_nil, k),
                                 (a_nil, n, b_gen, None), (a_gen, None, b_gen, None)):
        got = phi1_two_sided(a, v, index, b, b_index)
        quad = integrate_01(rule, [scipy.linalg.expm(s * a) @ v @ scipy.linalg.expm(-s * b)
                                   for s in rule.nodes])
        assert got.shape == v.shape and np.abs(got - quad).max() <= 1e-13
        _same_slices(got, [phi1_two_sided(s, w, index, r, b_index) for s, w, r in zip(a, v, b)])


# -- matrix logarithm --------------------------------------------------------

def test_log_identity_is_zero():
    assert matrix_log(Matrix.identity(4)) == Matrix.zeros(4, 4)


def test_log_inverts_exp_exactly_on_nilpotents():
    assert matrix_log(matrix_exp(RHO_E1)) == RHO_E1


def test_log_exp_roundtrip_random_nilpotent_exact():
    rng = np.random.default_rng(11)
    for _ in range(15):
        n = int(rng.integers(2, 6))
        rows = [[int(rng.integers(-2, 3)) if j < i else 0 for j in range(n)]
                for i in range(n)]
        m = Matrix.from_rows(rows)
        assert matrix_log(matrix_exp(m)) == m


def test_log_out_of_chart():
    # not unipotent: no rational log, and the error points at the float kernel
    with pytest.raises(OutOfChartError, match="log_float"):
        matrix_log(Matrix.from_rows([[Fraction(5, 2)]]))


def test_log_float_out_of_chart_message():
    with pytest.raises(OutOfChartError) as err:
        log_float(np.array([[2.5]]))
    assert str(err.value) == "||m - I|| = 1.5 >= 1: outside the log chart"


def test_log_float_unipotent_takes_finite_series_at_any_norm():
    # strictly triangular with exactly representable entries: every float
    # power of g - I is exact, so the series is finite although ||g - I|| > 1
    a = np.array([[0.0, 0.0, 0.0], [1.5, 0.0, 0.0], [-2.0, 0.75, 0.0]])
    g = exp_float(a, 3)
    assert np.abs(g - np.eye(3)).sum(axis=0).max() > 1
    assert np.array_equal(log_float(g), a)
    # and agrees with the exact log of the same matrix
    exact_g = Matrix.from_rows([[1, 0, 0], [Fraction(3, 2), 1, 0],
                                [Fraction(-23, 16), Fraction(3, 4), 1]])
    assert np.array_equal(exact_g.to_numpy(), g)
    assert np.array_equal(matrix_log(exact_g).to_numpy(), a)


def test_log_exp_roundtrip_float_near_identity():
    rng = np.random.default_rng(13)
    for _ in range(10):
        a = rng.uniform(-0.2, 0.2, size=(3, 3))
        back = log_float(exp_float(a))
        assert np.abs(back - a).max() < 1e-10
        assert np.abs(back - scipy.linalg.logm(scipy.linalg.expm(a))).max() < 1e-10


def test_exp_log_roundtrip_float():
    rng = np.random.default_rng(17)
    g = np.eye(3) + rng.uniform(-0.15, 0.15, size=(3, 3))
    again = exp_float(log_float(g))
    assert np.abs(again - g).max() < 1e-10 * max(1.0, np.abs(g).max())


# -- stacks (N, n, n): each slice equals the 2-D call bit for bit -------------

def _same_slices(stacked, one_by_one):
    assert len(stacked) == len(one_by_one)
    for got, want in zip(stacked, one_by_one):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_exp_float_stack_equals_each_slice():
    rng = np.random.default_rng(31)
    for n in (1, 3, 5):
        nilpotent = np.tril(rng.uniform(-2, 2, size=(7, n, n)), -1)
        general = rng.uniform(-1, 1, size=(7, n, n))
        for a, index in ((nilpotent, n), (nilpotent, n + 2), (general, None)):
            _same_slices(exp_float(a, index), [exp_float(s, index) for s in a])
    # index 1: the family is zero and each exp is a fresh identity
    ones = exp_float(np.zeros((4, 3, 3)), 1)
    assert ones.shape == (4, 3, 3) and ones.flags.writeable
    _same_slices(ones, [np.eye(3)] * 4)
    for index in (None, 1):
        assert exp_float(np.zeros((4, 0, 0)), index).shape == (4, 0, 0)


def test_phi1_float_stack_equals_each_slice():
    rng = np.random.default_rng(32)
    n = 4
    nilpotent = np.triu(rng.uniform(-1, 1, size=(6, n, n)), 1)
    general = rng.uniform(-1, 1, size=(6, n, n))
    vectors = rng.uniform(-1, 1, size=(6, n))
    blocks = rng.uniform(-1, 1, size=(6, n, 3))
    for a, index in ((nilpotent, n), (general, None)):
        for v in (vectors, blocks):
            _same_slices(phi1_float(a, v, index),
                         [phi1_float(s, w, index) for s, w in zip(a, v)])
    for index in (None, 1):
        assert phi1_float(np.zeros((6, 0, 0)), np.zeros((6, 0)), index).shape == (6, 0)
        assert phi1_float(np.zeros((6, 0, 0)), np.zeros((6, 0, 2)), index).shape == (6, 0, 2)


def _log_slices():
    """A finite-series slice past the norm gate (with a -0.0 entry the
    series must keep), two convergent slices stopping at different terms,
    and the identity."""
    a = np.array([[0.0, 0.0, 0.0], [1.5, 0.0, 0.0], [-2.0, 0.75, 0.0]])
    unipotent = exp_float(a, 3)
    unipotent[0, 2] = -0.0
    rng = np.random.default_rng(33)
    near = np.eye(3) + rng.uniform(-0.3, 0.3, size=(3, 3))
    nearer = np.eye(3) + rng.uniform(-1e-3, 1e-3, size=(3, 3))
    return [unipotent, near, nearer, np.eye(3)]


def test_log_float_stack_equals_each_slice():
    slices = _log_slices()
    assert np.abs(slices[0] - np.eye(3)).sum(axis=0).max() > 1
    _same_slices(log_float(np.array(slices)), [log_float(g) for g in slices])
    assert np.signbit(log_float(np.array(slices))[0, 0, 2])
    # any leading shape
    stack = np.array(slices * 2).reshape(2, 4, 3, 3)
    assert log_float(stack).tobytes() == log_float(np.array(slices * 2)).tobytes()


def _error(g):
    with pytest.raises(OutOfChartError) as err:
        log_float(g)
    return str(err.value)


def test_log_float_stack_raises_the_first_failing_slice():
    ok = _log_slices()
    gated, gated_more = np.diag([2.5, 1.0, 1.0]), np.diag([1.0, 3.0, 1.0])
    slow = np.eye(3) * 1.999  # ||g - I|| < 1, but the series does not converge
    assert _error(gated) == "||m - I|| = 1.5 >= 1: outside the log chart"
    assert _error(slow) == "matrix log series did not converge"
    for stack, first in (([*ok, gated, gated_more], gated),
                         ([ok[1], gated_more, ok[0], gated], gated_more),
                         ([ok[0], slow, gated, ok[1]], slow),
                         ([ok[2], gated, slow], gated)):
        assert _error(np.array(stack)) == _error(first)


def test_log_float_mask_clears_exactly_the_slices_that_raise():
    ok_slices = _log_slices()
    gated, slow = np.diag([2.5, 1.0, 1.0]), np.eye(3) * 1.999
    stack = np.array([ok_slices[0], gated, ok_slices[1], slow, ok_slices[2], ok_slices[3]])
    ok = np.ones(len(stack), dtype=bool)
    got = log_float(stack, ok)
    assert list(ok) == [True, False, True, False, True, True]
    for g, value, fine in zip(stack, got, ok):
        if fine:
            assert value.tobytes() == log_float(g).tobytes()
        else:
            assert not value.any()
    # a mask is only narrowed, and it may have the stack's shape or broadcast
    ok = np.array([False, True, True, True, True, True])
    log_float(stack, ok)
    assert list(ok) == [False, False, True, False, True, True]
    ok = np.ones((2, len(stack)), dtype=bool)
    log_float(stack, ok)
    assert (ok == [True, False, True, False, True, True]).all()


def _outcome(log, stack, masked):
    """(value bytes, mask) of log on stack, or the error's type and message."""
    ok = np.ones(stack.shape[:-2], dtype=bool) if masked else None
    try:
        with np.errstate(invalid="ignore", over="ignore"):
            value = log(stack, ok)
    except OutOfChartError as exc:
        return type(exc), str(exc)
    return value.tobytes(), None if ok is None else ok.tolist()


def test_log_float_probing_only_wide_slices_equals_probing_all():
    """The float nilpotency probe runs only on the slices with
    ||g - I|| >= 1, the only ones its verdict can gate, and the series runs
    in one pass over index arrays: values, masks and errors equal those of
    the probe over the whole stack and the list-based series bit for bit."""
    unipotent, near, nearer, identity = _log_slices()
    wide_nilpotent = np.eye(3) + np.diag([40.0, -25.0], -1)  # finite series at norm 40
    wide_gated, edge = np.diag([2.5, 1.0, 1.0]), np.diag([2.0, 1.0, 1.0])  # edge: norm 1
    slow = np.eye(3) * 1.999  # narrow, but the series does not converge
    nan, inf = np.eye(3), np.eye(3)
    nan[1, 0], inf[2, 1] = np.nan, np.inf
    # max|term| / k is exactly 1e-18 at k = 2, so the slice takes term 3,
    # the first to reach the diagonal
    threshold = np.eye(3) + np.array([[0.0, 4e-18, 0.0], [0.0, 0.0, 0.5], [1e-30, 0.0, 0.0]])
    slices = [unipotent, near, nearer, identity, wide_nilpotent, wide_gated, edge, slow,
              nan, inf, threshold]
    rng = np.random.default_rng(34)
    stacks = [np.array([s]) for s in slices] + [s for s in slices]
    stacks += [np.array(slices)[rng.permutation(len(slices))] for _ in range(6)]
    stacks += [np.array([unipotent, near, wide_nilpotent, nearer]),  # no slice gated
               np.array([near, nearer, identity]),  # no slice wide
               np.array([wide_nilpotent, wide_gated, inf]).reshape(3, 1, 3, 3)]
    # ~200 slices near I with ||g - I|| spread over [1e-6, 0.95], so that
    # their series finish over many different terms, mixed with the slices
    # above: the one-pass series against the oracle's own list-based copy
    a = rng.standard_normal((200, 3, 3))
    a *= (np.exp(rng.uniform(np.log(1e-6), np.log(0.95), 200)) / norm1_float(a))[:, None, None]
    mixed = np.concatenate([np.eye(3) + a, np.array(slices)])
    for _ in range(3):
        stacks += [mixed[rng.permutation(len(mixed))]]
    stacks += [mixed[-210:].reshape(15, 14, 3, 3)]
    for stack in stacks:
        for masked in (False, True):
            assert (_outcome(log_float, stack, masked)
                    == _outcome(log_float_probe_all, stack, masked))


def _binades(rng, shape):
    # entries across many binades, so that the order of a sum shows in the
    # last bits
    return rng.standard_normal(shape) * np.exp(rng.uniform(-20, 20, size=shape))


@functools.cache
def _filiform5_sys():
    return build_rack_system(canonical_extension(filiform5()))


def _filiform5_coords(rng, n):
    # a nilpotent chart, so exp is its finite series at any size
    return [rng.uniform(-1, 1, size=(6, 4)) * np.exp(rng.uniform(-8, 3, size=(6, 4)))]


def _elem_distance(ug, ua, vg, va):
    return elem_distance(LocalRackElement(ug, ua), LocalRackElement(vg, va))


def _elements(rng, n):
    return [_binades(rng, shape) for shape in ((6, n, n), (6, n), (6, n, n), (6, n))]


# an operation and a draw of its arguments at size n, each stacked (6, ...)
STACK_CASES = {
    "norm1_float": (norm1_float, lambda rng, n: [_binades(rng, (6, n, n))]),
    "matvec": (matvec, lambda rng, n: [_binades(rng, (6, n, n)), _binades(rng, (6, n))]),
    "group_from_coords": (lambda xi: group_from_coords(_filiform5_sys(), xi), _filiform5_coords),
    "elem_distance": (_elem_distance, _elements),
}


@pytest.mark.parametrize("name", list(STACK_CASES))
def test_norm1_float_stack_equals_each_slice(name):
    # one element is a stack with no leading axes: its call equals its
    # slice of a stack bit for bit, and a NaN stays in its slice
    op, draw = STACK_CASES[name]
    rng = np.random.default_rng(34)
    for n in (1, 3, 5, 9, 13):
        args = draw(rng, n)
        args[0][0].flat[0] = np.nan
        stack = op(*args)
        assert len(stack) == 6 and np.isnan(stack[0]).any() and not np.isnan(stack[1:]).any()
        for k in range(1, 6):
            want = op(*(x[k] for x in args))
            assert stack[k].tobytes() == want.tobytes()
            if name == "norm1_float":
                a = args[0][k]
                assert want == float(np.abs(a).sum(axis=0).max())  # the column sums in order
                assert isinstance(want, float)
        assert op(*(x.reshape((2, 3) + x.shape[1:]) for x in args)).tobytes() == stack.tobytes()
    assert norm1_float(np.zeros((0, 0))) == 0.0
    assert norm1_float(np.zeros((4, 0, 0))).tolist() == [0.0] * 4


# -- quadrature --------------------------------------------------------------

def _nodes(rule):
    """The rule's nodes as one-entry node values (order, 1)."""
    return np.array(rule.nodes)[:, None]


def test_a_rule_is_built_once_per_order():
    assert gauss_legendre_01(8) is gauss_legendre_01(8)
    assert _filiform5_sys().quad is gauss_legendre_01(8)
    assert gauss_legendre_01(16) is not gauss_legendre_01(8)


def test_rule_weights_and_nodes():
    for order in (3, 8, 16):
        rule = gauss_legendre_01(order)
        assert abs(sum(rule.weights) - 1.0) <= 1e-14
        assert all(0 < x < 1 for x in rule.nodes)


def test_monomial_exactness_up_to_degree_bound():
    for order in (3, 8):
        rule = gauss_legendre_01(order)
        for d in range(2 * order):
            got = integrate_01(rule, _nodes(rule) ** d)[0]
            assert got == pytest.approx(1.0 / (d + 1), rel=1e-13)


def test_integrate_t_squared():
    rule = gauss_legendre_01(3)
    got = integrate_01(rule, _nodes(rule) * _nodes(rule))[0]
    assert abs(got - 1.0 / 3.0) <= 1e-14


def test_integrate_constant():
    rule = gauss_legendre_01(3)
    assert integrate_01(rule, np.ones((rule.order, 1)))[0] == pytest.approx(1.0)
    with pytest.raises(ValueError):  # one value per node
        integrate_01(rule, np.ones((rule.order + 1, 1)))


def test_integrate_t5_at_exactness_boundary():
    rule = gauss_legendre_01(3)  # degree 5 = 2*3 - 1
    got = integrate_01(rule, _nodes(rule) ** 5)[0]
    assert got == pytest.approx(1.0 / 6.0, rel=1e-13)


def test_random_polynomials_integrate_exactly():
    rng = np.random.default_rng(23)
    for order in (3, 5, 8):
        rule = gauss_legendre_01(order)
        for _ in range(20):
            coeffs = rng.uniform(-1, 1, size=2 * order)  # degree <= 2k-1
            got = integrate_01(rule, np.polyval(coeffs, _nodes(rule)))[0]
            want = sum(c / (len(coeffs) - i) for i, c in enumerate(coeffs))
            assert abs(got - want) <= 1e-12
