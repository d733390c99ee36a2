"""Exact linear algebra, the two numerical kernels, and the quadrature rule."""

from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from leibrack.algebra import left_adjoint_map
from leibrack.corpus import dim5
from leibrack.linalg import (
    Matrix,
    OutOfChartError,
    exp_float,
    gauss_legendre_01,
    integrate_01,
    joint_nilpotency_index,
    log_float,
    matrix_exp,
    matrix_log,
    nilpotency_index,
    nullspace,
    phi1_float,
    rank,
    rref,
)

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
        rows = [red.data[r] for r in range(len(pivots))]
        stacked = Matrix.from_rows(rows + nullspace(m)) if rows or nullspace(m) \
            else Matrix.zeros(0, m.cols)
        assert rank(stacked) == m.cols


def test_nullspace_vectors_are_in_kernel():
    rng = np.random.default_rng(8)
    for _ in range(30):
        m = rand_exact(rng, int(rng.integers(1, 5)), int(rng.integers(1, 5)))
        for v in nullspace(m):
            assert all(c == 0 for c in m.mat_vec(v))


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


def test_exp_float_series_at_index_and_scipy_without():
    rng = np.random.default_rng(9)
    a = np.tril(rng.uniform(-1, 1, size=(4, 4)), -1)
    assert np.abs(exp_float(a, 4) - scipy.linalg.expm(a)).max() <= 1e-14
    assert np.array_equal(exp_float(np.zeros((3, 3)), 1), np.eye(3))
    full = rng.uniform(-1, 1, size=(3, 3))
    assert np.array_equal(exp_float(full), scipy.linalg.expm(full))
    assert exp_float(np.zeros((0, 0)), 1).shape == (0, 0)


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
    quad = integrate_01(gauss_legendre_01(8), lambda s: scipy.linalg.expm(s * a) @ v)
    assert np.abs(series - phi1_float(a, v)).max() <= 1e-14
    assert np.abs(series - quad).max() <= 1e-14


def test_phi1_float_empty():
    for index in (None, 1):
        assert phi1_float(np.zeros((0, 0)), np.zeros(0), index).shape == (0,)


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


# -- quadrature --------------------------------------------------------------

def test_rule_weights_and_nodes():
    for order in (3, 8, 16):
        rule = gauss_legendre_01(order)
        assert abs(sum(rule.weights) - 1.0) <= 1e-14
        assert all(0 < x < 1 for x in rule.nodes)


def test_monomial_exactness_up_to_degree_bound():
    for order in (3, 8):
        rule = gauss_legendre_01(order)
        for d in range(2 * order):
            got = integrate_01(rule, lambda t: np.array([t ** d]))[0]
            assert got == pytest.approx(1.0 / (d + 1), rel=1e-13)


def test_integrate_t_squared():
    rule = gauss_legendre_01(3)
    got = integrate_01(rule, lambda t: np.array([t * t]))[0]
    assert abs(got - 1.0 / 3.0) <= 1e-14


def test_integrate_constant():
    rule = gauss_legendre_01(3)
    assert integrate_01(rule, lambda t: np.array([1.0]))[0] == pytest.approx(1.0)


def test_integrate_t5_at_exactness_boundary():
    rule = gauss_legendre_01(3)  # degree 5 = 2*3 - 1
    got = integrate_01(rule, lambda t: np.array([t ** 5]))[0]
    assert got == pytest.approx(1.0 / 6.0, rel=1e-13)


def test_random_polynomials_integrate_exactly():
    rng = np.random.default_rng(23)
    for order in (3, 5, 8):
        rule = gauss_legendre_01(order)
        for _ in range(20):
            coeffs = rng.uniform(-1, 1, size=2 * order)  # degree <= 2k-1
            got = integrate_01(rule, lambda t: np.array([np.polyval(coeffs, t)]))[0]
            want = sum(c / (len(coeffs) - i) for i, c in enumerate(coeffs))
            assert abs(got - want) <= 1e-12
