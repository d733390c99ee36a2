"""Path integrals, the local rack product, differentiation back, and the
Lie specialization."""

import json
import sys
from dataclasses import fields, replace
from fractions import Fraction
from functools import partial, reduce
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import leibrack.linalg as linalg
from leibrack.algebra import (
    CentralExtensionData,
    LeibnizAlgebra,
    assemble_extension,
    bracket,
    canonical_extension,
    is_lie,
)
from leibrack.cli import main
from leibrack.cohomology import Cochain, leibniz_differential, tau
from leibrack.corpus import (
    abelian3,
    dim5,
    filiform5,
    free_nilpotent5,
    heisenberg,
    random_leibniz,
)
from leibrack.exact import Matrix, OutOfChartError, inverse_exact
from leibrack.fileio import write_algebra_file
from leibrack.linalg import (
    exp_float,
    gauss_legendre_01,
    integrate_01,
    log_float,
    matvec,
    phi1_float,
)
from leibrack.rack import (
    LocalRackElement,
    NotLieCocycleError,
    augmented_action,
    augmented_from_split,
    build_rack_system,
    conjugate,
    conjugate_and_split,
    conjugate_coords,
    group_from_coords,
    i1,
    i2,
    i2_from_coords,
    in_chart,
    iota2,
    lie_cocycle_defect,
    lie_group_product,
    log_coords,
    rack_product,
    split,
    tangent_bracket,
)
from leibrack.rack_report import dim5_conjugation, dim5_f, dim5_i1_matrix, heisenberg_iota2
from leibrack.suites import (
    augmented_action_suite,
    basis_pair_difference,
    cocycle_suite,
    draw_samples,
    elem_distance,
    full_suite,
    lie_specialization_suite,
    quadrature_stability_suite,
    rack_axiom_suite,
    roundtrip_suite,
    sample_group_element,
    tangent_suite,
)
from oracles import (
    EXTRAS_ONE_BY_ONE,
    LinearRackMp,
    ONE_BY_ONE,
    action_from_coords,
    bracket_coords_by_brackets,
    coboundary_witness,
    cochain_from_dense,
    combo_per_basis,
    delta2,
    ghost_identity_defect,
    group_action,
    i1_closed_form,
    i1_in_hom_module,
    i2_closed_form,
    i2_quadrature,
    lie_group_inverse,
    linear_rack,
    omega_per_node,
    phi1_two_sided,
    random_corpus,
    sample_rack_element,
    sampled,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import inputs  # noqa: E402


def _on_omega(sys_, omega):
    """sys_ on an extension rebuilt through its constructor with another
    omega, for iota2's own checks of omega alone (``lie_omega``): the
    split of a group element still carries the parent's omega, so i2 on
    this system does not integrate the new one.  The README's recipe for a
    system on another omega is ``_on_assembled_omega``."""
    ext = sys_.ext
    return replace(sys_, ext=CentralExtensionData(
        ext.parent, ext.complement_pivots, ext.rep, omega, ext.g0_matrices,
        ext.to_parent, ext.from_parent))


# -- chart operations --------------------------------------------------------

def canonical_path(sys_, g, s):
    """gamma_g(s) = exp(s log g); s=0 is the identity, s=1 is g."""
    assert in_chart(sys_, g)
    return exp_float(s * log_float(g))


def test_canonical_path_endpoints(dim5_sys):
    g = group_from_coords(dim5_sys, [0.1, -0.05])
    assert np.abs(canonical_path(dim5_sys, g, 0.0) - np.eye(5)).max() == 0.0
    assert np.abs(canonical_path(dim5_sys, g, 1.0) - g).max() < 1e-10
    one = dim5_sys.identity()
    for s in (0.0, 0.3, 1.0):
        assert np.abs(canonical_path(dim5_sys, one, s) - one).max() == 0.0


def test_canonical_path_is_linear_in_coords_for_abelian(dim5_sys):
    a = np.array([0.08, -0.03])
    g = group_from_coords(dim5_sys, a)
    for s in (0.25, 0.6):
        assert np.abs(log_coords(dim5_sys, canonical_path(dim5_sys, g, s)) - s * a).max() < 1e-12


def test_conjugation_pointedness(dim5_sys):
    g = group_from_coords(dim5_sys, [0.1, 0.02])
    one = dim5_sys.identity()
    assert np.abs(conjugate(dim5_sys, g, one) - one).max() == 0.0
    assert np.abs(conjugate(dim5_sys, one, g) - g).max() == 0.0


def test_conjugation_trivial_for_abelian_quotient(dim5_sys):
    g = group_from_coords(dim5_sys, [0.1, 0.02])
    h = group_from_coords(dim5_sys, [-0.04, 0.07])
    assert np.abs(conjugate(dim5_sys, g, h) - h).max() < 1e-14


def test_chart_gate_raises():
    sys_ = build_rack_system(canonical_extension(dim5()), chart_radius=0.05)
    big = group_from_coords(sys_, [1.0, 0.0])
    with pytest.raises(OutOfChartError):
        conjugate(sys_, big, big)


def test_coordinates_of_the_wrong_length_are_rejected(dim5_sys):
    # g0 of dim5 is 2-dimensional; a short or long coordinate vector used to
    # be truncated to exp(0.1 ad_1) without a word
    for xi in ([0.1], [0.1, 0.0, 0.3]):
        with pytest.raises(ValueError):
            group_from_coords(dim5_sys, xi)


def _within_ulps(got, want, abs_terms, ulps=4):
    """got and want agree to ulps units of the sum of the absolute terms,
    which bounds what summing them in another order can change."""
    assert got.shape == want.shape
    return bool((np.abs(got - want) <= ulps * np.finfo(float).eps * abs_terms).all())


_COMBO_ALGEBRAS = [dim5(), filiform5(), free_nilpotent5(), abelian3(), *random_corpus(3)]
_COMBO_IDS = ["dim5", "filiform5", "free_nilpotent5", "abelian3",
              *(f"random{i}" for i in range(3))]


@pytest.mark.parametrize("alg", _COMBO_ALGEBRAS, ids=_COMBO_IDS)
def test_combo_matches_the_per_basis_loop(alg):
    # one matrix product, which BLAS may sum in another order than the loop
    sys_ = build_rack_system(canonical_extension(alg), 0.5)
    rng = np.random.default_rng(31)
    for basis in (sys_.ad_basis, sys_.rho_basis, sys_.ad0_basis):
        for shape in ((), (7,), (3, 4)):
            xi = rng.uniform(-1.0, 1.0, shape + (sys_.g0_dim,))
            got = sys_.combo(basis, xi)
            assert got.shape == shape + basis.shape[1:]
            assert _within_ulps(got, combo_per_basis(basis, xi),
                                combo_per_basis(np.abs(basis), np.abs(xi)))


@pytest.mark.parametrize("alg", _COMBO_ALGEBRAS, ids=_COMBO_IDS)
def test_combo_rejects_coordinates_of_the_wrong_length(alg):
    sys_ = build_rack_system(canonical_extension(alg), 0.5)
    for basis in (sys_.ad_basis, sys_.rho_basis, sys_.ad0_basis):
        for shape in ((), (3, 4)):
            with pytest.raises(ValueError):
                sys_.combo(basis, np.ones(shape + (sys_.g0_dim + 1,)))
            if sys_.g0_dim:
                with pytest.raises(ValueError):
                    sys_.combo(basis, np.ones(shape + (sys_.g0_dim - 1,)))


def test_chart_radius_must_be_positive_and_finite(dim5_ext, dim5_sys):
    for radius in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            build_rack_system(dim5_ext, chart_radius=radius)
        with pytest.raises(ValueError):
            dim5_sys.with_chart_radius(radius)


def test_sample_group_element_halves_until_the_draw_fits(dim5_ext):
    # at this radius the exp of a raw draw overflows; the draw is halved
    # until it fits, never replaced by the identity
    sys_ = build_rack_system(dim5_ext, chart_radius=1e300)
    with np.errstate(over="ignore", invalid="ignore"):
        g, xi = sample_group_element(sys_, np.random.default_rng(0), 2.5e299)
    assert np.isfinite(g).all() and (g != np.eye(5)).any()
    assert np.abs(g - np.eye(5)).sum(axis=0).max() < 2.5e299
    # the draw comes with the coordinates it exponentiated
    assert g.tobytes() == group_from_coords(sys_, xi).tobytes()


def test_singular_conjugator_is_out_of_chart():
    # a float group element of aff(1) far from the identity underflows to a
    # singular matrix; conjugating by it leaves the chart instead of crashing
    aff = LeibnizAlgebra.from_brackets(2, {(0, 1): {1: 1}, (1, 0): {1: -1}})
    sys_ = build_rack_system(canonical_extension(aff), 8.0)
    g = group_from_coords(sys_, [-800.0, 0.0])
    with pytest.raises(OutOfChartError, match="singular"):
        conjugate(sys_, g, sys_.identity())


# -- i1 ----------------------------------------------------------------------

def test_i1_vanishes_at_identity(dim5_sys):
    got = i1(dim5_sys, dim5_sys.identity())
    assert np.abs(got).max() == 0.0


def test_i1_matches_dim5_closed_form(dim5_sys):
    rng = np.random.default_rng(1)
    for _ in range(10):
        a = rng.uniform(-0.17, 0.17, size=2)
        g = group_from_coords(dim5_sys, a)
        got = i1(dim5_sys, g)
        assert np.abs(got - dim5_i1_matrix(*a)).max() < 1e-10


def _hom_action(sys_, xi, alpha):
    """g acting on the m x d block alpha in Hom(g0, a): exp(rho_xi) alpha
    exp(-ad0_xi), from g's log coordinates xi."""
    return exp_float(sys_.rho_of(xi), sys_.rho_index) @ alpha \
        @ exp_float(-sys_.ad0_of(xi), sys_.ad0_index)


def test_i1_of_coboundary_is_rack_coboundary(dim5_sys):
    # beta = dL^0 b has i1(beta)(g) = g.b - b in the Hom module, where g
    # acts by alpha -> exp(rho_xi) alpha exp(-ad0_xi)
    from leibrack.cohomology import hom_representation
    rng = np.random.default_rng(2)
    homrep = hom_representation(dim5_sys.ext.rep)
    b = [int(c) for c in rng.integers(-3, 4, size=6)]
    beta = leibniz_differential(homrep, cochain_from_dense(0, 2, 6, b))
    # the closed form takes beta's blocks (d, m, d); Hom(g0, a) is
    # flattened row by row
    blocks = beta.to_numpy().reshape(2, 3, 2)
    for _ in range(5):
        xi = rng.uniform(-0.15, 0.15, size=2)
        got = i1_closed_form(dim5_sys, blocks, xi)
        bmat = np.array(b, float).reshape(3, 2)
        want = scipy.linalg.expm(dim5_sys.rho_of(xi)) @ bmat \
            @ scipy.linalg.expm(-dim5_sys.ad0_of(xi))
        assert np.abs(got - (want - bmat)).max() < 1e-10


def _i1_general_path(sys_, g, eps=1e-6):
    """Oracle for i1(tau omega)(g): the equivariant 1-form of the constant
    Hom-valued tau(omega) integrated along s -> exp(s log g), with the path
    differentiated by central differences instead of the constant
    left-logarithmic derivative that i1 relies on."""
    ell = sys_.ad_of(log_coords(sys_, g))

    def path(s):
        return exp_float(s * ell, sys_.ad_index)

    def integrand(s):
        p = path(s)
        dp = (path(s + eps) - path(s - eps)) / (2 * eps)
        v = sys_.coord_pinv @ (np.linalg.inv(p) @ dp).flatten()
        return _hom_action(sys_, log_coords(sys_, p), sys_.combo(sys_.omega, v))
    return integrate_01(sys_.quad, [integrand(s) for s in sys_.quad.nodes])


def test_i1_general_path_cross_check(dim5_sys):
    rng = np.random.default_rng(3)
    for _ in range(5):
        a = rng.uniform(-0.15, 0.15, size=2)
        g = group_from_coords(dim5_sys, a)
        fast = i1(dim5_sys, g)
        assert np.abs(fast - _i1_general_path(dim5_sys, g)).max() < 1e-7


def test_i1_general_path_nonabelian():
    # the reduction must agree with the finite-difference path evaluator
    # when Ad is nontrivial
    sys_ = build_rack_system(canonical_extension(filiform5()), 0.5)
    rng = np.random.default_rng(4)
    for _ in range(5):
        a = rng.uniform(-0.08, 0.08, size=4)
        g = group_from_coords(sys_, a)
        fast = i1(sys_, g)
        assert np.abs(fast - _i1_general_path(sys_, g)).max() < 1e-7


_I1_ORACLE_INPUTS = {
    "dim5": dim5(), "filiform5": filiform5(), "free_nilpotent5": free_nilpotent5(),
    **{f"rl{seed}": random_leibniz(seed) for seed in (1, 2, 5, 7, 23, 28, 38)},
    **{f"{kind}-{seed}": inputs.rho_semisimple(kind, seed)
       for kind in inputs.RHO_KINDS for seed in (0, 1, 2)}}


@pytest.mark.parametrize("name", list(_I1_ORACLE_INPUTS))
def test_i1_on_blocks_matches_the_hom_module_oracle(name):
    # the two-sided closed form on m x d blocks against phi1 of the
    # (m*d)-sided Hom(g0, a) generators, at the exact index of each family
    # or by Pade
    sys_ = build_rack_system(canonical_extension(_I1_ORACLE_INPUTS[name]), 0.5)
    xi = np.random.default_rng(41).uniform(-0.5, 0.5, (50, sys_.g0_dim))
    m, d = sys_.center_dim, sys_.g0_dim
    want = i1_in_hom_module(sys_, tau(sys_.ext.omega).to_numpy().T, xi).reshape(50, m, d)
    got = i1_closed_form(sys_, sys_.omega, xi)
    assert got.shape == want.shape and np.abs(want).max() > 0.1
    bound = 1e-15 * (1.0 + np.abs(want).max(axis=(-2, -1)))
    assert (np.abs(got - want).max(axis=(-2, -1)) <= bound).all()


# -- i2 ----------------------------------------------------------------------

def test_i2_vanishes_with_identity_argument(dim5_sys):
    g = group_from_coords(dim5_sys, [0.1, -0.06])
    one = dim5_sys.identity()
    assert np.abs(i2(dim5_sys, g, one)).max() <= 1e-12
    assert np.abs(i2(dim5_sys, one, g)).max() <= 1e-12


def test_i2_unit_coordinate_value(dim5_sys_wide):
    g = group_from_coords(dim5_sys_wide, [1.0, 0.0])
    got = i2(dim5_sys_wide, g, g)
    assert np.abs(got - np.array([1.0, 1.0, 7.0 / 12.0])).max() < 1e-10


def test_i2_matches_closed_form(dim5_sys):
    rng = np.random.default_rng(5)
    for _ in range(10):
        a = rng.uniform(-0.17, 0.17, size=2)
        b = rng.uniform(-0.17, 0.17, size=2)
        g = group_from_coords(dim5_sys, a)
        h = group_from_coords(dim5_sys, b)
        assert np.abs(i2(dim5_sys, g, h) - dim5_f(a, b)).max() < 1e-9


_COBOUNDARY_INPUTS = {
    "dim5": dim5(), "heisenberg": heisenberg(), "filiform5": filiform5(),
    "free_nilpotent5": free_nilpotent5(),
    **{f"rl{seed}": random_leibniz(seed) for seed in (1, 2, 23, 35, 38)},
    **{f"{kind}-{seed}": inputs.rho_semisimple(kind, seed)
       for kind in inputs.RHO_KINDS for seed in range(8)}}


@pytest.mark.parametrize("name", list(_COBOUNDARY_INPUTS))
def test_i2_of_a_coboundary_is_the_rack_coboundary_of_its_primitive(name):
    # i2 is linear in omega and the integration is a chain map, so for a
    # 1-cochain beta: i2_{d beta}(g, h) = phi_g F(h) - F(g |> h), with
    # F(g) = phi1(rho_X) beta X at X = log g.  The axioms do not pin i2;
    # this does, on every input, the Pade path of a non-unipotent G0 too.
    # The wide chart only widens the conjugation's gate: every point lies
    # well inside the log chart
    ext = canonical_extension(_COBOUNDARY_INPUTS[name])
    sys_ = build_rack_system(ext, 8.0)
    d, m = sys_.g0_dim, sys_.center_dim
    rng = np.random.default_rng(17)
    beta = rng.integers(-3, 4, size=(m, d))  # beta(e_p) is column p
    dbeta = leibniz_differential(ext.rep, cochain_from_dense(1, d, m, beta.T.ravel().tolist()))
    xi, zeta = rng.uniform(-0.15, 0.15, size=(2, 20, d))
    g = group_from_coords(sys_, xi)
    eta = log_coords(sys_, conjugate(sys_, g, group_from_coords(sys_, zeta)))
    got = i2_closed_form(sys_, dbeta.to_numpy().transpose(0, 2, 1), xi, eta)

    def primitive(x):
        return phi1_float(sys_.rho_of(x), matvec(beta.astype(float), x), sys_.rho_index)

    want = matvec(action_from_coords(sys_, xi), primitive(zeta)) - primitive(eta)
    assert np.abs(got - want).max() <= 1e-12
    # the opposite sign fails wherever d beta does not vanish
    if not dbeta.is_zero():
        assert np.abs(got + want).max() > 1e-6


# The paper's closing example, dim5, is "a non split Leibniz algebra in
# dimension 5": omega is not a coboundary.  Where omega = dL beta, the input
# is split, and Phi(g, a) = (g, a + F(g)) with F(g) = phi1(rho_X) beta X
# carries the rack onto Kinyon's (g, a) |> (h, b) = (g h g^-1, g.b), since
# then i2(g, h) = phi_g F(h) - F(g |> h).
NON_SPLIT = {"dim5", "heisenberg", "filiform5", "free_nilpotent5", "oscillator",
             "rl1", "rl2", "rl23", "rl35", "rl38", "aff-2", "aff-5", "aff-6"}
SPLIT = [name for name in _COBOUNDARY_INPUTS if name not in NON_SPLIT]


@pytest.mark.parametrize("name", [*_COBOUNDARY_INPUTS, "oscillator"])
def test_omega_is_a_coboundary_exactly_on_the_split_inputs(name):
    ext = canonical_extension(_oscillator() if name == "oscillator" else _COBOUNDARY_INPUTS[name])
    beta = coboundary_witness(ext)
    assert (beta is None) == (name in NON_SPLIT)
    if beta is not None:
        assert leibniz_differential(ext.rep, beta) == ext.omega


@pytest.mark.parametrize("name", SPLIT)
def test_a_split_input_gives_kinyons_rack(name):
    ext = canonical_extension(_COBOUNDARY_INPUTS[name])
    sys_ = build_rack_system(ext, 8.0)
    beta = coboundary_witness(ext).to_numpy().T  # m x d: beta(e_p) is column p
    rng = np.random.default_rng(23)
    xi, zeta = rng.uniform(-0.15, 0.15, size=(2, 20, sys_.g0_dim))
    g = group_from_coords(sys_, xi)
    eta = log_coords(sys_, conjugate(sys_, g, group_from_coords(sys_, zeta)))

    def f(x):
        return phi1_float(sys_.rho_of(x), matvec(beta, x), sys_.rho_index)

    got = i2_closed_form(sys_, sys_.omega, xi, eta)
    want = matvec(action_from_coords(sys_, xi), f(zeta)) - f(eta)
    assert np.abs(got - want).max() <= 1e-12
    # F with the opposite sign is not a rack isomorphism
    assert np.abs(got + want).max() > 1e-6


# The paper's rack is the linear rack x |> y = exp(ad x) y of g, twisted by
# phi1.  In (g0, center) coordinates the left multiplication by the lift of
# xi is [[ad0 xi, 0], [omega(xi, -), rho_xi]], and the bottom-left block of
# its exp is int_0^1 exp((1-s) rho_xi) omega(xi, exp(s ad0 xi) -) ds: i1's
# integrand composed with A = exp(ad0 xi).  As rho is a representation,
# phi1(rho_{A eta}) exp(rho_xi) = exp(rho_xi) phi1(rho_eta), so
# Psi(xi, a) = (xi, phi1(rho_xi) a) carries the linear rack onto the
# paper's wherever phi1(rho_xi) is invertible (``oracles.linear_rack``).
def _oscillator():
    # [e1, e2] = e3 central, [e0, e1] = e2, [e0, e2] = -e1: a Lie algebra
    # whose ad0 (a rotation) is not nilpotent, so iota2 goes through the Pade kernel
    return LeibnizAlgebra.from_brackets(4, {(1, 2): {3: 1}, (2, 1): {3: -1},
                                            (0, 1): {2: 1}, (1, 0): {2: -1},
                                            (0, 2): {1: -1}, (2, 0): {1: 1}})


def _sl2():
    # [h,e] = 2e, [h,f] = -2f, [e,f] = h: no left center, so m = 0
    return LeibnizAlgebra.from_brackets(3, {(0, 1): {1: 2}, (1, 0): {1: -2}, (0, 2): {2: -2},
                                            (2, 0): {2: 2}, (1, 2): {0: 1}, (2, 1): {0: -1}})


LINEAR_RACK_INPUTS = {
    "dim5": dim5, "heisenberg": heisenberg, "filiform5": filiform5,
    "free_nilpotent5": free_nilpotent5,
    **{f"rl{seed}": partial(random_leibniz, seed) for seed in (1, 35, 38)},
    "oscillator": _oscillator, "sl2": _sl2,
    **{f"{kind}-{seed}": partial(inputs.rho_semisimple, kind, seed)
       for kind in inputs.RHO_KINDS for seed in range(8)}}


@pytest.mark.parametrize("name", list(LINEAR_RACK_INPUTS))
def test_the_rack_is_the_linear_rack_twisted_by_phi1(name):
    # the paper's path integrals (log g, log(g |> h), i1, i2 and the action
    # from log coordinates) and the whole rack product against the linear
    # rack, whose phi1 is scipy's expm
    sys_ = build_rack_system(canonical_extension(LINEAR_RACK_INPUTS[name]()), 8.0)
    rng = np.random.default_rng(31)
    xi, zeta = rng.uniform(-0.15, 0.15, (2, 40, sys_.g0_dim))
    a, b = rng.uniform(-0.25, 0.25, (2, 40, sys_.center_dim))
    g, h = group_from_coords(sys_, xi), group_from_coords(sys_, zeta)
    ok = np.ones(40, dtype=bool)
    gh = conjugate(sys_, g, h, ok)
    xi_got, eta = log_coords(sys_, g, ok), log_coords(sys_, gh, ok)
    product = rack_product(sys_, LocalRackElement(g, a), LocalRackElement(h, b), ok)
    assert ok.all()
    got = (eta, i1(sys_, g), i2_closed_form(sys_, sys_.omega, xi_got, eta),
           action_from_coords(sys_, xi_got))
    want = linear_rack(sys_, g, h)
    for what, x, y in zip(("eta'", "i1", "i2", "action"), got, want):
        assert x.shape == y.shape and np.abs(x - y).max(initial=0.0) <= 1e-12, what
    eta2, _, i2_want, action = want
    assert np.abs(log_coords(sys_, product.g) - eta2).max(initial=0.0) <= 1e-12
    assert np.abs(product.a - (matvec(action, b) + i2_want)).max(initial=0.0) <= 1e-12
    # the negative control: the linear rack's center part without phi1
    if name == "dim5":
        untwisted = linear_rack(sys_, g, h, twisted=False)[2]
        assert np.abs(got[2] - untwisted).max() > 1e-6
        assert np.abs(product.a - (matvec(action, b) + untwisted)).max() > 1e-6


def _x_action(sys_, big, x, twisted=True):
    """g.(eta, b) = (A eta, D b + phi1(rho_{A eta}) C eta) on points of
    X = g0 x a, rows (..., d + m), with G = big = [[A, 0], [C, D]] the
    split of g; untwisted, D b is replaced by b."""
    d = sys_.g0_dim
    eta, b = augmented_from_split(sys_, big, x[..., :d], x[..., d:])
    if not twisted:
        b = b - matvec(big[..., d:, d:], x[..., d:]) + x[..., d:]
    return np.concatenate([eta, b], axis=-1)


def _relative(x, y):
    """sup |x - y| relative to the largest entry of x and y, and to 1."""
    return np.abs(x - y).max(initial=0.0) / max(1.0, np.abs(x).max(initial=0.0),
                                                np.abs(y).max(initial=0.0))


@pytest.mark.parametrize("name", list(LINEAR_RACK_INPUTS))
def test_g0_acts_on_all_of_x_and_gives_a_global_rack(name):
    # no chart: g and h are products of three exponentials exp(ad xi) with
    # xi in [-c, c]^d, and points of X lie in the same box.  g.x is an
    # action, p(eta, b) = exp(ad eta) is equivariant, p(g.x) g = g p(x),
    # and so x |> y = p(x).y is self-distributive on all of X.  c is 3 on a
    # unipotent G0, where the entries of g reach about 3e3, and 0.75
    # otherwise, where exp would otherwise grow past 1e3 and rounding
    # decide.  The control: with D b replaced by b, the action is not one
    sys_ = build_rack_system(canonical_extension(LINEAR_RACK_INPUTS[name]()), 8.0)
    d, m = sys_.g0_dim, sys_.center_dim
    c = 3.0 if sys_.ad_index is not None else 0.75
    rng = np.random.default_rng(53)
    g, h = (reduce(np.matmul, [group_from_coords(sys_, rng.uniform(-c, c, (40, d)))
                               for _ in range(3)]) for _ in range(2))
    x, y, z = rng.uniform(-c, c, (3, 40, d + m))
    big_g, big_h, big_gh = split(sys_, g), split(sys_, h), split(sys_, g @ h)
    # most g lie outside the reports' default chart, ||g - I|| < 0.5
    assert (np.abs(g - np.eye(sys_.dim)).sum(axis=-2).max(axis=-1) >= 0.5).mean() > 0.5

    def acting(w):
        return split(sys_, group_from_coords(sys_, w[..., :d]))

    assert _relative(_x_action(sys_, big_g, _x_action(sys_, big_h, x)),
                     _x_action(sys_, big_gh, x)) <= 1e-12
    assert _relative(group_from_coords(sys_, _x_action(sys_, big_g, x)[..., :d]) @ g,
                     g @ group_from_coords(sys_, x[..., :d])) <= 1e-12
    assert _relative(_x_action(sys_, acting(x), _x_action(sys_, acting(y), z)),
                     _x_action(sys_, acting(_x_action(sys_, acting(x), y)),
                               _x_action(sys_, acting(x), z))) <= 1e-12
    if np.abs(sys_.rho_basis).max(initial=0.0) > 0:
        untwisted = _relative(_x_action(sys_, big_g, _x_action(sys_, big_h, x, False), False),
                              _x_action(sys_, big_gh, x, False))
        assert untwisted > 1e-6


@pytest.mark.parametrize("name", list(LINEAR_RACK_INPUTS))
def test_production_i2_equals_the_paper_integrals_by_quadrature(name):
    # rack.i2 reads g's split; the paper's two path integrals by a 16-node
    # Gauss-Legendre rule (``i2_quadrature``) take neither the split nor phi1
    sys_ = build_rack_system(canonical_extension(LINEAR_RACK_INPUTS[name]()), 8.0)
    xi, zeta = np.random.default_rng(37).uniform(-0.15, 0.15, (2, 40, sys_.g0_dim))
    g, h = group_from_coords(sys_, xi), group_from_coords(sys_, zeta)
    ok = np.ones(40, dtype=bool)
    got = i2(sys_, g, h, ok)
    want = i2_quadrature(sys_, g, h, gauss_legendre_01(16), ok)
    assert ok.all() and got.shape == want.shape
    assert np.abs(got - want).max(initial=0.0) <= 1e-12


@pytest.mark.parametrize("name", list(LINEAR_RACK_INPUTS))
def test_the_carried_cross_check_equals_the_logged_one(name):
    # the quadrature suite integrates from the coordinates xi of g's draw
    # and A eta of g |> h under g's split; the paper's form logs g and
    # g |> h (``i2_quadrature``).  Both at the system's rule
    sys_ = build_rack_system(canonical_extension(LINEAR_RACK_INPUTS[name]()), 8.0)
    xi, zeta = np.random.default_rng(41).uniform(-0.15, 0.15, (2, 40, sys_.g0_dim))
    g, h = group_from_coords(sys_, xi), group_from_coords(sys_, zeta)
    ok = np.ones(40, dtype=bool)
    _, big = conjugate_and_split(sys_, g, h, ok)
    got = i2_from_coords(sys_, xi, conjugate_coords(sys_, big, zeta), sys_.quad)
    want = i2_quadrature(sys_, g, h, sys_.quad, ok)
    assert ok.all() and got.shape == want.shape
    assert (np.abs(got - want) <= 1e-13 * (1.0 + np.abs(want))).all()


@pytest.mark.parametrize("name", [*LINEAR_RACK_INPUTS, "abelian3"])
def test_i1_off_the_split_equals_the_paper_closed_form(name):
    # rack.i1 = C A^-1 against the paper's two-sided closed form at g's
    # coordinates and against phi1 on the (m*d)-sided Hom(g0, a), for a
    # stack and for each element alone: on sl2 m = 0, on abelian3 d = 0
    alg = abelian3() if name == "abelian3" else LINEAR_RACK_INPUTS[name]()
    sys_ = build_rack_system(canonical_extension(alg), 8.0)
    m, d = sys_.center_dim, sys_.g0_dim
    xi = np.random.default_rng(43).uniform(-0.15, 0.15, (40, d))
    g = group_from_coords(sys_, xi)
    ok = np.ones(40, dtype=bool)
    got = i1(sys_, g, ok)
    assert ok.all() and got.shape == (40, m, d)
    for want in (i1_closed_form(sys_, sys_.omega, xi),
                 i1_in_hom_module(sys_, tau(sys_.ext.omega).to_numpy().T, xi).reshape(40, m, d)):
        bound = 1e-13 * (1.0 + np.abs(want).max(axis=(-2, -1), initial=0.0))
        assert (np.abs(got - want).max(axis=(-2, -1), initial=0.0) <= bound).all()
    for k in range(40):
        assert i1(sys_, g[k]).tobytes() == got[k].tobytes()


# the non-nilpotent inputs of the linear rack: two entries of each
# rho_semisimple kind, and the oscillator, whose ad family is not nilpotent
MP_INPUTS = ["oscillator", *(f"{kind}-{seed}" for kind in inputs.RHO_KINDS for seed in (0, 1))]


@pytest.mark.parametrize("name", MP_INPUTS)
def test_the_float_rack_matches_the_linear_rack_at_40_digits(name):
    # exp of a rational matrix that is not nilpotent is transcendental, so
    # no exact oracle reaches these inputs: the rack product, i1 and
    # self-distributivity against mpmath at 40 digits, at coordinates
    # k/64 with |k| <= 10, which floats hold exactly
    import mpmath
    ext = canonical_extension(LINEAR_RACK_INPUTS[name]())
    sys_ = build_rack_system(ext, 8.0)
    d = sys_.g0_dim
    rng = np.random.default_rng(47)
    with mpmath.workdps(40):
        rack_mp = LinearRackMp(ext)
        for _ in range(3):
            ks = rng.integers(-10, 11, size=(3, d + sys_.center_dim))
            x, y, z = ((np.array([mpmath.mpf(int(k)) / 64 for k in row[:d]], dtype=object),
                        np.array([mpmath.mpf(int(k)) / 64 for k in row[d:]], dtype=object))
                       for row in ks)
            (xi, a), (eta, b) = (np.split(row / 64.0, [d]) for row in ks[:2])
            g = group_from_coords(sys_, xi)
            got = rack_product(sys_, LocalRackElement(g, a),
                               LocalRackElement(group_from_coords(sys_, eta), b))
            eta2, c = rack_mp.product(x, y)
            assert np.abs(got.g - rack_mp.group(eta2).astype(float)).max() <= 1e-15
            assert np.abs(got.a - c.astype(float)).max() <= 1e-15
            assert np.abs(i1(sys_, g) - rack_mp.i1(x[0]).astype(float)).max() <= 1e-15
            # x |> (y |> z) = (x |> y) |> (x |> z), in mpmath alone
            left = rack_mp.product(x, rack_mp.product(y, z))
            right = rack_mp.product(rack_mp.product(x, y), rack_mp.product(x, z))
            assert max(abs(p - q) for p, q in zip(np.concatenate(left),
                                                  np.concatenate(right))) <= 1e-35


# the inputs of the linear rack but sl2, whose g0 has no center to act
# on, with two entries of each rho_semisimple kind
CARRIED_INPUTS = [name for name in LINEAR_RACK_INPUTS
                  if name != "sl2" and not name.endswith(tuple(f"-{k}" for k in range(2, 8)))]


@pytest.mark.parametrize("name,radius", [(name, 0.5) for name in CARRIED_INPUTS]
                         + [("diagonal-0", 8.0)])
def test_carried_coordinates_equal_the_logs_of_the_draws_and_conjugations(name, radius):
    # the suites log no element they drew or conjugated: a draw carries the
    # coordinates it exponentiated and g |> h carries A_g eta_h, read off
    # g's split.  rack.log_coords, which the operations on group elements
    # take, finds both within 1e-13 (1 + |xi|).  At radius 8 the draws of
    # diagonal are halved, and the rows whose log leaves its chart are not
    # compared
    sys_ = build_rack_system(canonical_extension(LINEAR_RACK_INPUTS[name]()), radius)
    max_norm = radius / 4.0
    (g, xi), (h, eta) = draw_samples(sys_, np.random.default_rng(41), max_norm, 40, "gg")()
    ok = np.ones(40, dtype=bool)
    gh, big = conjugate_and_split(sys_, g, h, ok)
    carried = np.stack([xi, eta, conjugate_coords(sys_, big, eta)])
    logged_ok = np.stack([np.ones(40, dtype=bool), np.ones(40, dtype=bool), ok])
    logged = log_coords(sys_, np.stack([g, h, gh]), logged_ok)
    bound = 1e-13 * (1.0 + np.abs(carried).max(axis=-1, initial=0.0))
    assert (np.abs(logged - carried).max(axis=-1, initial=0.0)[logged_ok]
            <= bound[logged_ok]).all()
    raw = np.random.default_rng(41).uniform(-1.0, 1.0, (40, 2 * sys_.g0_dim)) * max_norm
    halved = np.stack([xi != raw[:, :sys_.g0_dim], eta != raw[:, sys_.g0_dim:]]).any(axis=-1)
    if radius == 0.5:
        assert logged_ok.all()
    else:
        assert (halved & logged_ok[:2]).any() and logged_ok[2].any()


def test_delta2_recovers_omega_at_basis_pair(dim5_sys):
    f = lambda g, h, _eta: i2(dim5_sys, g, h)
    got = delta2(dim5_sys, f, [1, 0], [0, 1])
    assert np.abs(got - np.array([1.0, 0.0, 0.0])).max() < 1e-5


def test_delta2_of_zero(dim5_sys):
    got = delta2(dim5_sys, lambda g, h, _eta: np.zeros(g.shape[:-2] + (3,)), [1, 0], [0, 1])
    assert np.abs(got).max() == 0.0


def test_delta2_recovers_synthetic_bilinear_form(dim5_sys):
    rng = np.random.default_rng(6)
    B = rng.uniform(-1, 1, size=(3, 2, 2))

    def f(g, h, _eta):  # on stacks of group elements
        return np.einsum("kpq,...p,...q->...k", B, log_coords(dim5_sys, g), log_coords(dim5_sys, h))

    for x, y in [([1, 0], [0, 1]), ([0.5, 0.25], [-0.3, 1.0])]:
        got = delta2(dim5_sys, f, x, y)
        want = np.einsum("kpq,p,q->k", B, np.asarray(x, float), np.asarray(y, float))
        assert np.abs(got - want).max() < 1e-9


# -- rack product and augmented action ---------------------------------------

def test_rack_product_neutral_laws(dim5_sys):
    rng = np.random.default_rng(7)
    u, _ = sample_rack_element(dim5_sys, rng, 0.12)
    v, _ = sample_rack_element(dim5_sys, rng, 0.12)
    ne = dim5_sys.neutral()
    left = rack_product(dim5_sys, ne, v)
    right = rack_product(dim5_sys, u, ne)
    assert np.abs(left.g - v.g).max() <= 1e-12
    assert np.abs(left.a - v.a).max() <= 1e-12
    assert np.abs(right.g - ne.g).max() <= 1e-12
    assert np.abs(right.a).max() <= 1e-12


def test_rack_product_unit_coordinate_value(dim5_sys_wide):
    g = group_from_coords(dim5_sys_wide, [1.0, 0.0])
    u = LocalRackElement(g, np.zeros(3))
    got = rack_product(dim5_sys_wide, u, u)
    assert np.abs(got.g - g).max() < 1e-12  # abelian quotient
    assert np.abs(got.a - np.array([1.0, 1.0, 7.0 / 12.0])).max() < 1e-9


def test_rack_product_matches_full_conjugation_formula(dim5_sys):
    rng = np.random.default_rng(8)
    for _ in range(10):
        a = np.concatenate([rng.uniform(-0.15, 0.15, 2), rng.uniform(-0.5, 0.5, 3)])
        b = np.concatenate([rng.uniform(-0.15, 0.15, 2), rng.uniform(-0.5, 0.5, 3)])
        u = LocalRackElement(group_from_coords(dim5_sys, a[:2]), a[2:])
        v = LocalRackElement(group_from_coords(dim5_sys, b[:2]), b[2:])
        got = rack_product(dim5_sys, u, v)
        got_vec = np.concatenate([log_coords(dim5_sys, got.g), got.a])
        assert np.abs(got_vec - dim5_conjugation(a, b)).max() < 1e-9


def test_augmented_action_axioms(dim5_sys):
    results = augmented_action_suite(dim5_sys, n_samples=15, seed=0)
    assert all(r.passed for r in results)


def test_augmented_action_fixed_point(dim5_sys):
    g = group_from_coords(dim5_sys, [0.09, -0.04])
    ne = dim5_sys.neutral()
    out = augmented_action(dim5_sys, g, ne)
    assert np.abs(out.g - ne.g).max() <= 1e-12 and np.abs(out.a).max() <= 1e-12


# -- a change of basis ---------------------------------------------------------
#
# The rack is the algebra's, not its basis's.  In the basis
# f_j = sum_i P_ij e_i the bracket is P^-1 [P x, P y], G0 is conjugated by
# P, and the (g0, center) coordinates change by
# T = ext'.from_parent P^-1 ext.to_parent = [[A, 0], [B, C]], as the left
# center does not depend on the basis.  The two splittings differ by
# B A^-1 : g0' -> a, and
#
#     Phi(g, a) = (P^-1 g P, C a + phi1(rho'_xi') B A^-1 xi'),  xi' = log' P^-1 g P,
#
# is a rack isomorphism.  Its second term with the opposite sign breaks
# it wherever B moves i2; on heisenberg it does not, as g0 is abelian and
# rho = 0 there, so the term cancels from both sides.

def _in_basis(alg, p):
    """alg in the basis f_j = sum_i p_ij e_i, for an invertible exact p."""
    n, p_inv = alg.dim, inverse_exact(p)
    return LeibnizAlgebra.from_terms(n, (
        (i, j, k, c) for i in range(n) for j in range(n)
        for k, c in enumerate(p_inv.mat_vec(bracket(alg, p.col(i), p.col(j)))) if c))


def _phi1_by_expm(x, v):
    """phi1(x) v, the top-right column of scipy's expm of [[x, v], [0, 0]]."""
    k = len(v)
    big = np.zeros((k + 1, k + 1))
    big[:k, :k], big[:k, k] = x, v
    return scipy.linalg.expm(big)[:k, k]


# input -> (its constructor, the half-width of the coordinate box); the
# random inputs' group elements leave the chart of 0.5 at 0.08
BASIS_CASES = {"dim5": (dim5, 0.08), "heisenberg": (heisenberg, 0.08),
               "filiform5": (filiform5, 0.08),
               **{f"rl{seed}": (partial(random_leibniz, seed), 0.03) for seed in (35, 38)},
               **{f"{kind}-{seed}": (partial(inputs.rho_semisimple, kind, seed), 0.08)
                  for kind, seed in (("diagonal", 0), ("aff", 0), ("rotation", 1))}}


@pytest.mark.parametrize("name", list(BASIS_CASES))
def test_the_rack_of_another_basis_is_isomorphic(name):
    make, box = BASIS_CASES[name]
    alg = make()
    n = alg.dim
    rng = np.random.default_rng(0)
    # lower unitriangular, so the lifts of g0 gain center parts and B != 0
    p = Matrix.from_rows((np.tril(rng.integers(-1, 2, (n, n)), -1) + np.eye(n, dtype=int))
                         .tolist())
    ext, ext2 = canonical_extension(alg), canonical_extension(_in_basis(alg, p))
    d, m = ext.g0_dim, ext.center_dim
    t = (ext2.from_parent @ inverse_exact(p) @ ext.to_parent).to_numpy()
    assert (ext2.g0_dim, ext2.center_dim) == (d, m)
    assert not t[:d, d:].any() and t[d:, :d].any()
    a_block, b_block, c_block = t[:d, :d], t[d:, :d], t[d:, d:]
    sys_, sys2 = build_rack_system(ext, 0.5), build_rack_system(ext2, 0.5)
    p_np, p_inv_np = p.to_numpy(), inverse_exact(p).to_numpy()

    def phi(u, ok, sign):
        g = p_inv_np @ u.g @ p_np
        xi = log_coords(sys2, g, ok)
        shift = np.linalg.solve(a_block, xi.T).T @ b_block.T
        f = np.array([_phi1_by_expm(sys2.rho_of(x), y) for x, y in zip(xi, shift)])
        return LocalRackElement(g, u.a @ c_block.T + sign * f)

    xi, a = rng.uniform(-box, box, (2, 20, d)), rng.uniform(-1.0, 1.0, (2, 20, m))
    u, v = (LocalRackElement(group_from_coords(sys_, x), c) for x, c in zip(xi, a))
    ok = np.ones(20, dtype=bool)
    uv = rack_product(sys_, u, v, ok)
    defects = {}
    for sign in (1, -1):
        rhs = rack_product(sys2, phi(u, ok, sign), phi(v, ok, sign), ok)
        defects[sign] = elem_distance(phi(uv, ok, sign), rhs)
    assert np.count_nonzero(ok) >= 10
    assert defects[1][ok].max() <= 1e-12
    if name == "heisenberg":
        assert defects[-1][ok].max() <= 1e-12
    else:
        assert defects[-1][ok].max() > 1e-6


# -- cocycle identities ------------------------------------------------------

def test_ghost_identity_trivial_when_middle_is_identity(dim5_sys):
    g = group_from_coords(dim5_sys, [0.08, 0.03])
    k = group_from_coords(dim5_sys, [0.02, -0.06])
    got = ghost_identity_defect(dim5_sys, g, dim5_sys.identity(), k)
    assert np.abs(got).max() <= 1e-12


def test_cocycle_suite_dim5(dim5_sys):
    results = cocycle_suite(dim5_sys, n_triples=25, seed=0)
    assert all(r.passed for r in results)
    assert all(r.skipped == 0 for r in results)


def test_cocycle_suite_nonabelian():
    sys_ = build_rack_system(canonical_extension(free_nilpotent5()), 0.5)
    results = cocycle_suite(sys_, n_triples=25, seed=0)
    assert all(r.passed for r in results)


# -- rack axioms -------------------------------------------------------------

def test_rack_axiom_suite_dim5(dim5_sys):
    results = rack_axiom_suite(dim5_sys, n_samples=30, seed=0)
    assert all(r.passed for r in results)


def test_self_distributivity_nonabelian():
    sys_ = build_rack_system(canonical_extension(filiform5()), 0.5)
    results = rack_axiom_suite(sys_, n_samples=20, seed=1)
    assert all(r.passed for r in results)


def test_injectivity_detects_a_collapsing_product(dim5_sys, monkeypatch):
    # a left translation that sends every input to one point is caught
    import leibrack.suites as suites
    act = suites._act
    monkeypatch.setattr(suites, "_act", lambda *args: np.zeros_like(act(*args)))
    results = {r.name: r for r in rack_axiom_suite(dim5_sys, n_samples=10, seed=0)}
    inj = results["injectivity_on_samples"]
    assert inj.max_defect == 1.0 and not inj.passed
    assert (inj.samples, inj.skipped) == (10, 0)


def test_sampled_keeps_defects_yielded_before_a_skip():
    draws = iter([(0.5,), (2.0,), (0.25,)])

    def check(x):
        yield x
        if x > 1.0:
            raise OutOfChartError("second property leaves the chart")
        yield 2 * x

    first, second = sampled(3, draws.__next__, check, [("a", 1.0), ("b", 1.0)])
    assert (first.max_defect, first.samples, first.skipped) == (2.0, 3, 1)
    assert (second.max_defect, second.samples, second.skipped) == (1.0, 3, 1)
    assert not first.passed and second.passed


def test_abelian_rack_is_trivial():
    sys_ = build_rack_system(canonical_extension(abelian3()), 0.5)
    rng = np.random.default_rng(9)
    for _ in range(5):
        u, _ = sample_rack_element(sys_, rng, 0.12)
        v, _ = sample_rack_element(sys_, rng, 0.12)
        got = rack_product(sys_, u, v)
        assert np.abs(got.g - v.g).max() == 0.0
        assert np.abs(got.a - v.a).max() == 0.0


# -- tangent bracket ---------------------------------------------------------

def test_tangent_bracket_central_pair_is_zero(dim5_sys):
    u = np.array([0.0, 0.0, 1.0, 0.0, 0.0])  # purely central directions
    v = np.array([0.0, 0.0, 0.0, 1.0, 0.0])
    got = tangent_bracket(dim5_sys, u, v)
    assert np.abs(got).max() < 1e-12


def test_tangent_bracket_dim5_e1_e2(dim5_sys):
    # split coordinates coincide with the parent ones for this algebra
    u = np.array([1.0, 0, 0, 0, 0])
    v = np.array([0.0, 1, 0, 0, 0])
    got = tangent_bracket(dim5_sys, u, v)
    want = np.array([0, 0, 1.0, 0, 0])  # [e1,e2] = e3
    assert np.abs(got - want).max() < 1e-4


def test_tangent_suite_on_corpus():
    for alg in (dim5(), heisenberg(), abelian3(), free_nilpotent5()):
        sys_ = build_rack_system(canonical_extension(alg), 0.5)
        res = tangent_suite(sys_, basis_pair_difference(sys_))[0]
        assert res.passed, (alg.basis_names, res.max_defect)


def test_roundtrip_suite_on_corpus():
    for alg in (dim5(), heisenberg(), filiform5()):
        sys_ = build_rack_system(canonical_extension(alg), 0.5)
        res = roundtrip_suite(sys_, basis_pair_difference(sys_))[0]
        assert res.passed


# -- iota2 and the Lie specialization ----------------------------------------

def test_iota2_degenerate_chain(heis_sys):
    g = group_from_coords(heis_sys, [0.1, -0.04])
    got = iota2(heis_sys, g, heis_sys.identity())
    assert np.abs(got).max() <= 1e-13


def test_iota2_heisenberg_analytic(heis_sys):
    rng = np.random.default_rng(10)
    for _ in range(10):
        a = rng.uniform(-0.06, 0.06, size=2)
        b = rng.uniform(-0.06, 0.06, size=2)
        g = group_from_coords(heis_sys, a)
        h = group_from_coords(heis_sys, b)
        assert np.abs(iota2(heis_sys, g, h) - heisenberg_iota2(a, b)).max() < 1e-12


def test_iota2_relation_to_i2(heis_sys):
    rng = np.random.default_rng(11)
    for _ in range(10):
        g = group_from_coords(heis_sys, rng.uniform(-0.05, 0.05, 2))
        h = group_from_coords(heis_sys, rng.uniform(-0.05, 0.05, 2))
        gh = conjugate(heis_sys, g, h)
        lhs = i2(heis_sys, g, h)
        rhs = iota2(heis_sys, g, h) - iota2(heis_sys, gh, g)
        assert np.abs(lhs - rhs).max() < 1e-9


def test_iota2_relation_nonabelian():
    sys_ = build_rack_system(canonical_extension(free_nilpotent5()), 0.5)
    rng = np.random.default_rng(12)
    for _ in range(8):
        g = group_from_coords(sys_, rng.uniform(-0.04, 0.04, 3))
        h = group_from_coords(sys_, rng.uniform(-0.04, 0.04, 3))
        gh = conjugate(sys_, g, h)
        lhs = i2(sys_, g, h)
        rhs = iota2(sys_, g, h) - iota2(sys_, gh, g)
        assert np.abs(lhs - rhs).max() < 1e-9


def test_iota2_rejects_non_antisymmetric(dim5_sys):
    g = group_from_coords(dim5_sys, [0.05, 0.0])
    with pytest.raises(NotLieCocycleError, match="anti-symmetric"):
        iota2(dim5_sys, g, g)  # the dim5 omega is not anti-symmetric


def test_iota2_rejects_non_cocycle():
    # on the filiform quotient, e2* ^ e4* is anti-symmetric but not closed
    sys_ = build_rack_system(canonical_extension(filiform5()), 0.5)
    vals = {(1, 3): 1, (3, 1): -1}
    fake = Cochain.from_function(2, 4, 1, lambda p, q: (vals.get((p, q), 0),))
    g = group_from_coords(sys_, [0.05, 0, 0, 0])
    sys_ = _on_omega(sys_, fake)
    with pytest.raises(NotLieCocycleError, match="cocycle"):
        iota2(sys_, g, g)


def test_iota2_chain_derivative_series_vs_finite_differences():
    # the left-logarithmic s-derivative of the chain exp(t log(g exp(s log h)))
    # is t phi1(-tA) phi1(-A)^-1 eta_h with A = ad0(a_s), the form iota2's
    # closed inner integral rests on; it must match brute-force differences
    sys_ = build_rack_system(canonical_extension(free_nilpotent5()), 0.5)
    d = sys_.g0_dim
    rng = np.random.default_rng(14)
    g = group_from_coords(sys_, rng.uniform(-0.05, 0.05, 3))
    h = group_from_coords(sys_, rng.uniform(-0.05, 0.05, 3))
    big_h = log_float(h)
    eta_h = log_coords(sys_, h)
    eps = 1e-5
    for s in (0.2, 0.7):
        for t in (0.3, 0.9):
            a_s = log_coords(sys_, g @ scipy.linalg.expm(s * big_h))
            ad_a = sys_.ad0_of(a_s)
            aprime = np.linalg.solve(phi1_float(-ad_a, np.eye(d), sys_.ad_index), eta_h)
            w_series = t * phi1_float(-t * ad_a, aprime, sys_.ad_index)

            def sigma(tt, ss):
                return scipy.linalg.expm(
                    tt * sys_.ad_of(log_coords(sys_, g @ scipy.linalg.expm(ss * big_h))))

            dsigma = (sigma(t, s + eps) - sigma(t, s - eps)) / (2 * eps)
            w_fd = sys_.coord_pinv @ (np.linalg.inv(sigma(t, s)) @ dsigma).flatten()
            assert np.abs(w_series - w_fd).max() < 1e-8


def _pade_calls(monkeypatch):
    """The stacks the Pade kernel is called on from now to the test's end."""
    calls = []
    expm = linalg._expm_pade
    monkeypatch.setattr(linalg, "_expm_pade", lambda a: calls.append(a) or expm(a))
    return calls


def test_iota2_on_filiform5_makes_no_scipy_call(monkeypatch):
    # nor any call of the Pade kernel: every exp and phi1 is a finite series
    sys_ = build_rack_system(canonical_extension(filiform5()), 0.5)
    g = group_from_coords(sys_, [0.05, 0.01, -0.02, 0.03])
    h = group_from_coords(sys_, [-0.02, 0.03, 0.01, -0.04])
    calls = _pade_calls(monkeypatch)
    assert np.abs(iota2(sys_, g, h)).max() > 0
    assert not calls


def test_lie_specialization_suites():
    for alg in (heisenberg(), filiform5(), free_nilpotent5()):
        sys_ = build_rack_system(canonical_extension(alg), 0.5)
        results = lie_specialization_suite(sys_, n_samples=15, seed=0)
        assert all(r.passed for r in results), [(r.name, r.max_defect) for r in results]


def test_lie_group_inverse(heis_sys):
    rng = np.random.default_rng(13)
    u, _ = sample_rack_element(heis_sys, rng, 0.06)
    uinv = lie_group_inverse(heis_sys, u)
    prod = lie_group_product(heis_sys, u, uinv)
    assert np.abs(prod.g - np.eye(3)).max() < 1e-12
    assert np.abs(prod.a).max() < 1e-12


# -- degenerate coefficient space ---------------------------------------------

def test_zero_center_input_runs_end_to_end():
    # aff(1): [e1,e2] = e2; trivial left center, so the rack is bare group
    # conjugation with an empty coefficient vector
    from leibrack.algebra import LeibnizAlgebra
    aff = LeibnizAlgebra.from_brackets(2, {(0, 1): {1: 1}, (1, 0): {1: -1}})
    ext = canonical_extension(aff)
    assert ext.center_dim == 0 and ext.g0_dim == 2
    sys_ = build_rack_system(ext, 0.5)
    rng = np.random.default_rng(20)
    u, _ = sample_rack_element(sys_, rng, 0.1)
    v, _ = sample_rack_element(sys_, rng, 0.1)
    out = rack_product(sys_, u, v)
    assert out.a.shape == (0,)
    assert np.abs(out.g - u.g @ v.g @ np.linalg.inv(u.g)).max() < 1e-14
    res = tangent_suite(sys_, basis_pair_difference(sys_))[0]
    assert res.passed


# -- quadrature stability ----------------------------------------------------

def test_quadrature_stability(dim5_sys):
    res = quadrature_stability_suite(dim5_sys, n_pairs=10, seed=0)[0]
    assert res.passed
    # the suite compares real quadrature at two orders, and each order
    # agrees with the phi1 closed form that i2 returns
    rng = np.random.default_rng(15)
    rule8, rule16 = gauss_legendre_01(8), gauss_legendre_01(16)
    for _ in range(10):
        g = group_from_coords(dim5_sys, rng.uniform(-0.1, 0.1, 2))
        h = group_from_coords(dim5_sys, rng.uniform(-0.1, 0.1, 2))
        q8 = i2_quadrature(dim5_sys, g, h, rule8)
        q16 = i2_quadrature(dim5_sys, g, h, rule16)
        closed = i2(dim5_sys, g, h)
        assert np.abs(q8 - q16).max() <= 1e-12
        assert np.abs(q8 - closed).max() <= 1e-12
        assert np.abs(q16 - closed).max() <= 1e-12


def _diagonal_rho():
    # [e1, ek] = lambda_k ek with ek left-central: rho is diagonal, not
    # nilpotent; [e1, e1] = e2 + e4 makes omega nonzero
    return LeibnizAlgebra.from_brackets(4, {(0, 0): {1: 1, 3: 1}, (0, 1): {1: 1},
                                            (0, 2): {2: Fraction(-1, 2)}, (0, 3): {3: 2}})


def _aff1_with_weights():
    # g0 = aff(1) ([e1, e2] = e2) acting on the left center (e3, e4) with
    # weights (2, 1) and [e2, e4] = e3; [e1, e1] = e3 and [e2, e1] = -e2 + e4
    # make omega nonzero
    return LeibnizAlgebra.from_brackets(4, {(0, 0): {2: 1}, (0, 1): {1: 1},
                                            (1, 0): {1: -1, 3: 1}, (0, 2): {2: 2},
                                            (0, 3): {3: 1}, (1, 3): {2: 1}})


@pytest.mark.parametrize("alg", [_diagonal_rho(), _aff1_with_weights()],
                         ids=["diagonal_rho", "aff1"])
def test_quadrature_matches_phi1_on_non_nilpotent_rho(alg):
    sys_ = build_rack_system(canonical_extension(alg), 0.5)
    assert sys_.rho_index is None  # i1 and i2 take the Pade kernel
    rng = np.random.default_rng(16)
    rule16 = gauss_legendre_01(16)
    for _ in range(10):
        g = group_from_coords(sys_, rng.uniform(-0.1, 0.1, sys_.g0_dim))
        h = group_from_coords(sys_, rng.uniform(-0.1, 0.1, sys_.g0_dim))
        closed = i2(sys_, g, h)
        assert np.abs(closed).max() > 1e-4  # both integrals really run
        assert np.abs(i2_quadrature(sys_, g, h, rule16) - closed).max() <= 1e-12


def _iota2_inner_by_quadrature(sys_, omega_np, g, h, outer, inner):
    """Oracle for iota2: the same outer rule, with the inner t-integral of
    exp(tR) omega(a_s, w_t) taken by Gauss-Legendre at rule inner, where
    w_t = int_0^t exp(-uA) a' du and phi1(-A) (which gives a') are also
    quadratures of scipy exps at that rule."""
    eta_h = log_coords(sys_, h)
    big_h = sys_.ad_of(eta_h)
    total = np.zeros(sys_.center_dim)
    for s, ws in zip(outer.nodes, outer.weights):
        a_s = log_coords(sys_, g @ scipy.linalg.expm(s * big_h))
        ad_a, rho_a = sys_.ad0_of(a_s), sys_.rho_of(a_s)
        phi = integrate_01(inner, [scipy.linalg.expm(-u * ad_a) for u in inner.nodes])
        aprime = np.linalg.solve(phi, eta_h)

        def integrand(t):
            w_t = t * integrate_01(inner, [scipy.linalg.expm(-u * t * ad_a)
                                           for u in inner.nodes]) @ aprime
            return scipy.linalg.expm(t * rho_a) @ np.einsum("p,q,pkq->k", a_s, w_t, omega_np)
        total = total + ws * integrate_01(inner, [integrand(t) for t in inner.nodes])
    return total


# For Lie input rho is zero; the explicit omega on aff(1) acting with weights
# is an anti-symmetric Lie cocycle (every one is, on a 2-dimensional g0)
# whose exp(tR) is not the identity.
_AFF1_OMEGA = Cochain.from_function(
    2, 2, 2, lambda p, q: {(0, 1): (1, 1), (1, 0): (-1, -1)}.get((p, q), (0, 0)))


@pytest.mark.parametrize("alg,omega", [(heisenberg(), None), (filiform5(), None),
                                       (free_nilpotent5(), None), (_oscillator(), None),
                                       (_aff1_with_weights(), _AFF1_OMEGA)],
                         ids=["heisenberg", "filiform5", "free_nilpotent5", "oscillator",
                              "aff1_explicit_omega"])
def test_iota2_inner_integral_matches_quadrature(alg, omega):
    sys_ = build_rack_system(canonical_extension(alg), 0.5)
    if omega is not None:
        sys_ = _on_omega(sys_, omega)
    omega_np = sys_.lie_omega
    rng = np.random.default_rng(17)
    rule16 = gauss_legendre_01(16)
    for _ in range(3):
        g = group_from_coords(sys_, rng.uniform(-0.08, 0.08, sys_.g0_dim))
        h = group_from_coords(sys_, rng.uniform(-0.08, 0.08, sys_.g0_dim))
        closed = iota2(sys_, g, h)
        assert np.abs(closed).max() > 1e-6
        want = _iota2_inner_by_quadrature(sys_, omega_np, g, h, sys_.quad, rule16)
        assert np.abs(closed - want).max() <= 1e-12


@pytest.mark.parametrize("alg,omega", [(heisenberg(), None), (filiform5(), None),
                                       (free_nilpotent5(), None), (_oscillator(), None),
                                       (_aff1_with_weights(), _AFF1_OMEGA)],
                         ids=["heisenberg", "filiform5", "free_nilpotent5", "oscillator",
                              "aff1_explicit_omega"])
def test_iota2_omega_matches_the_per_node_einsum(alg, omega):
    # iota2 forms Omega = omega(a, -) at all its nodes as chart.combo of the
    # stack lie_omega; the oracle reads omega's own (d, d, m) array
    sys_ = build_rack_system(canonical_extension(alg), 0.5)
    if omega is not None:
        sys_ = _on_omega(sys_, omega)
    dense_omega = sys_.ext.omega.to_numpy()
    assert np.abs(dense_omega).max() > 0
    rng = np.random.default_rng(23)
    for shape in ((), (8,), (2, 8)):
        a = rng.uniform(-1.0, 1.0, shape + (sys_.g0_dim,))
        got = sys_.combo(sys_.lie_omega, a)
        assert got.shape == shape + (sys_.center_dim, sys_.g0_dim)
        assert _within_ulps(got, omega_per_node(dense_omega, a),
                            omega_per_node(np.abs(dense_omega), np.abs(a)))


def _iota2_per_node(sys_, g, h):
    """Oracle for iota2's stacked evaluation: the outer rule's nodes one at
    a time through the 2-D kernels, as iota2 once ran them (chart gates
    left out: the draws compared pass them)."""
    m, d = sys_.center_dim, sys_.g0_dim
    omega_np = sys_.lie_omega
    eta_h = log_coords(sys_, h)
    big_h = sys_.ad_of(eta_h)
    x_index = None if sys_.ad_index is None or sys_.rho_index is None \
        else sys_.ad_index + sys_.rho_index
    total = np.zeros(m)
    for s, ws in zip(sys_.quad.nodes, sys_.quad.weights):
        a_s = log_coords(sys_, g @ exp_float(s * big_h, sys_.ad_index))
        ad_a, rho_a = sys_.ad0_of(a_s), sys_.rho_of(a_s)
        aprime = np.linalg.solve(phi1_float(-ad_a, np.eye(d), sys_.ad_index), eta_h)
        x = np.block([[-rho_a, np.einsum("p,pkq->kq", a_s, omega_np)],
                      [np.zeros((d, m)), -ad_a]])
        inner = phi1_float(x, np.concatenate([np.zeros(m), aprime]), x_index)[:m]
        total = total + ws * (exp_float(rho_a, sys_.rho_index) @ inner)
    return total


def _outcome(f):
    """f()'s value as bytes, or its error as (type, message)."""
    try:
        return f().tobytes()
    except (OutOfChartError, np.linalg.LinAlgError) as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("radius", [0.5, 8.0])
@pytest.mark.parametrize("alg", [heisenberg(), filiform5(), free_nilpotent5(), _oscillator()],
                         ids=["heisenberg", "filiform5", "free_nilpotent5", "oscillator"])
def test_iota2_equals_the_per_node_loop_bit_for_bit(alg, radius):
    # the nilpotent inputs have unipotent G0, whose logs never fail; on the
    # oscillator at radius 8 node elements leave the log chart
    ext = canonical_extension(alg)
    stacked, per_node = build_rack_system(ext, radius), build_rack_system(ext, radius)
    rng = np.random.default_rng(18)
    failures = 0
    for _ in range(40):
        scale = rng.choice([0.05, 0.4, 1.5])
        g, h = (group_from_coords(stacked, rng.uniform(-scale, scale, stacked.g0_dim))
                for _ in range(2))
        if not (in_chart(stacked, g) and in_chart(stacked, h) and in_chart(stacked, g @ h)):
            continue
        want = _outcome(lambda: _iota2_per_node(per_node, g, h))
        assert _outcome(lambda: iota2(stacked, g, h)) == want
        failures += isinstance(want, tuple)
    if radius == 8.0 and stacked.ad_index is None:
        assert failures  # the log chart's errors are compared too


def _calls_in_one_iota2(monkeypatch, alg, owner, name, order):
    """How often one iota2 on a fresh system of alg, at the given
    quadrature order, calls owner.name; and the system."""
    sys_ = build_rack_system(canonical_extension(alg), 0.5, quad_order=order)
    g = group_from_coords(sys_, [0.05, 0.01, -0.02, 0.03][:sys_.g0_dim])
    h = group_from_coords(sys_, [-0.02, 0.03, 0.01, -0.04][:sys_.g0_dim])
    calls = []
    original = getattr(owner, name)
    with monkeypatch.context() as patch:
        patch.setattr(owner, name, lambda *args: calls.append(args) or original(*args))
        assert np.abs(iota2(sys_, g, h)).max() > 0
    return len(calls), sys_


@pytest.mark.parametrize("order", [8, 16])
def test_iota2_takes_at_most_two_logs(order, monkeypatch):
    # log h, then one stack of every node element
    import leibrack.rack as rack
    logs, _ = _calls_in_one_iota2(monkeypatch, filiform5(), rack, "log_float", order)
    assert logs <= 2


def test_iota2_expm_calls_do_not_grow_with_the_order(monkeypatch):
    counts = [_calls_in_one_iota2(monkeypatch, _oscillator(), linalg, "_expm_pade", order)[0]
              for order in (8, 16, 32)]
    assert 0 < counts[0] == counts[1] == counts[2]


def test_i1_and_i2_make_no_quadrature_call(dim5_sys, monkeypatch):
    import leibrack.rack as rack
    calls = []
    monkeypatch.setattr(rack, "integrate_01",
                        lambda rule, values: calls.append(rule) or integrate_01(rule, values))
    g = group_from_coords(dim5_sys, [0.1, -0.05])
    h = group_from_coords(dim5_sys, [-0.02, 0.07])
    # i1 is read off g's split: no log and no phi1 either
    kernels = {"log_float": 0, "phi1_float": 0}
    with monkeypatch.context() as patch:
        for name in kernels:
            def counted(*args, name=name, original=getattr(rack, name)):
                kernels[name] += 1
                return original(*args)
            patch.setattr(rack, name, counted)
        i1(dim5_sys, g)
        i1(dim5_sys, np.array([g, h]), np.ones(2, dtype=bool))
    assert kernels == {"log_float": 0, "phi1_float": 0}
    i2(dim5_sys, g, h)
    assert not calls
    i2_quadrature(dim5_sys, g, h, dim5_sys.quad)
    assert len(calls) == 2  # the cross-check does call it, once per integral


def test_i2_on_diagonal_rho_makes_at_most_two_expm_calls(monkeypatch):
    sys_ = build_rack_system(canonical_extension(_diagonal_rho()), 0.5)
    g = group_from_coords(sys_, [0.1])
    h = group_from_coords(sys_, [-0.07])
    calls = _pade_calls(monkeypatch)
    assert np.abs(i2(sys_, g, h)).max() > 0
    assert 0 < len(calls) <= 2


def test_low_order_quadrature_config_rejected(dim5_sys):
    with pytest.raises(ValueError, match="quadrature order must be >= 3"):
        replace(dim5_sys, quad=gauss_legendre_01(2))


def test_the_system_checks_its_rule_and_step_and_a_new_radius_keeps_them(dim5_sys):
    for knobs, message in (({"quad_order": 2}, "quadrature order must be >= 3"),
                           ({"fd_step": 0.0}, "fd_step must be positive"),
                           ({"fd_step": -1e-3}, "fd_step must be positive")):
        with pytest.raises(ValueError, match=message):
            build_rack_system(dim5_sys.ext, 0.5, **knobs)
    sys_ = build_rack_system(dim5_sys.ext, 0.5, quad_order=5, fd_step=2e-3)
    assert sys_.quad is gauss_legendre_01(5)
    omega = sys_.omega
    wide = sys_.with_chart_radius(8.0)
    assert (wide.quad, wide.fd_step) == (sys_.quad, 2e-3) and wide.omega is omega
    # the step is checked against the radius at each difference, as a new
    # radius can narrow the chart below four steps
    with pytest.raises(ValueError, match="fd_step must lie in"):
        tangent_bracket(sys_.with_chart_radius(4e-3), np.eye(5)[0], np.eye(5)[1])


# -- exact decisions made once per system ------------------------------------

@pytest.mark.parametrize("alg", [dim5(), filiform5(), free_nilpotent5(), *random_corpus(4)],
                         ids=["dim5", "filiform5", "free_nilpotent5",
                              *(f"random{i}" for i in range(4))])
def test_series_exp_matches_scipy_on_generator_families(alg):
    sys_ = build_rack_system(canonical_extension(alg), 0.5)
    rng = np.random.default_rng(21)
    families = [(sys_.ad_basis, sys_.ad_index), (sys_.rho_basis, sys_.rho_index),
                (sys_.ad0_basis, sys_.ad0_index)]
    for basis, index in families:
        assert index is not None
        for _ in range(10):
            x = sys_.combo(basis, rng.uniform(-1.0, 1.0, size=sys_.g0_dim))
            assert np.abs(exp_float(x, index) - scipy.linalg.expm(x)).max() <= 1e-14
            # phi1's finite series equals its augmented-expm branch
            v = rng.uniform(-1.0, 1.0, size=x.shape[0])
            assert np.abs(phi1_float(x, v, index) - phi1_float(x, v)).max() <= 1e-14
    # and so does the two-sided series of the tests' i1 oracle, on m x d blocks
    for _ in range(10):
        xi = rng.uniform(-1.0, 1.0, size=sys_.g0_dim)
        rho, ad0 = sys_.rho_of(xi), sys_.ad0_of(xi)
        block = rng.uniform(-1.0, 1.0, size=(sys_.center_dim, sys_.g0_dim))
        series = phi1_two_sided(rho, block, sys_.rho_index, ad0, sys_.ad0_index)
        assert np.abs(series - phi1_two_sided(rho, block, None, ad0, None)).max() <= 1e-14


def test_rho_semisimple_takes_the_pade_path(monkeypatch):
    sys_ = build_rack_system(canonical_extension(_diagonal_rho()), 0.5)
    assert sys_.rho_index is None
    g = group_from_coords(sys_, [0.1])
    calls = _pade_calls(monkeypatch)
    phi = group_action(sys_, g)
    assert calls
    assert np.abs(phi - np.diag([np.exp(0.1), np.exp(-0.05), np.exp(0.2)])).max() < 1e-12


def test_nilpotent_families_make_no_scipy_calls(dim5_sys, monkeypatch):
    # nor any call of the Pade kernel
    calls = _pade_calls(monkeypatch)
    g = group_from_coords(dim5_sys, [0.1, -0.05])
    h = group_from_coords(dim5_sys, [-0.02, 0.07])
    rack_product(dim5_sys, LocalRackElement(g, np.ones(3)), LocalRackElement(h, np.ones(3)))
    assert not calls


def test_system_compares_and_hashes_by_identity(dim5_ext):
    # two systems built from one extension hold equal arrays, yet are two
    # objects: == and hash neither raise nor look inside the arrays
    one, other = build_rack_system(dim5_ext), build_rack_system(dim5_ext)
    assert one == one and one != other
    assert len({one, other, one}) == 2 and hash(one) == hash(one)


def _aff1_plus_line():
    # g0 = aff(1) (+) R = span(e1, e2, e3), [e1, e2] = e2, acting on the left
    # center (e4, e5) by e1 -> diag(2, 1), e2: e5 -> e4 and e3 -> identity
    return LeibnizAlgebra.from_brackets(5, {(0, 1): {1: 1}, (1, 0): {1: -1},
                                            (0, 3): {3: 2}, (0, 4): {4: 1}, (1, 4): {3: 1},
                                            (2, 3): {3: 1}, (2, 4): {4: 1}})


def _structure_arrays(ext):
    """g0's structure constants (d, d, d) and rho (d, m, m) as float arrays."""
    d = ext.g0_dim
    c = np.array([[[float(v) for v in ext.g0.c[p][q]] for q in range(d)] for p in range(d)])
    return c, np.array([mat.to_numpy() for mat in ext.rho])


def _ce_differential(ext, w):
    """The six-term Chevalley-Eilenberg differential of a (d, d, m) array w
    with the rho action, as a (d, d, d, m) array."""
    c, r = _structure_arrays(ext)
    return (np.einsum("pkl,qrl->pqrk", r, w) - np.einsum("qkl,prl->pqrk", r, w)
            + np.einsum("rkl,pql->pqrk", r, w) - np.einsum("pqs,srk->pqrk", c, w)
            + np.einsum("prs,sqk->pqrk", c, w) - np.einsum("qrs,spk->pqrk", c, w))


@pytest.mark.parametrize("alg,any_open", [
    (heisenberg(), False), (filiform5(), True), (free_nilpotent5(), False),
    (_aff1_with_weights(), False), (_aff1_plus_line(), True)],
    ids=["heisenberg", "filiform5", "free_nilpotent5", "aff1", "aff1_plus_line"])
def test_lie_cocycle_defect_is_the_ce_differential(alg, any_open):
    # random alternating integer cochains, and CE coboundaries, which are
    # closed; a two-dimensional g0 has no triple of distinct basis elements,
    # so every alternating 2-cochain on it is closed
    ext = canonical_extension(alg)
    d, m = ext.g0_dim, ext.center_dim
    c, r = _structure_arrays(ext)
    rng = np.random.default_rng(18)
    open_seen = False
    for trial in range(12):
        if trial % 3:
            w = rng.integers(-3, 4, size=(d, d, m)).astype(float)
            w = w - w.transpose(1, 0, 2)
        else:
            beta = rng.integers(-3, 4, size=(d, m)).astype(float)
            w = (np.einsum("pkl,ql->pqk", r, beta) - np.einsum("qkl,pl->pqk", r, beta)
                 - np.einsum("pqs,sk->pqk", c, beta))
        omega = Cochain.from_function(2, d, m, lambda p, q: [Fraction(v) for v in w[p, q]])
        worst, anti = lie_cocycle_defect(ext, omega)
        assert anti == 0
        assert float(worst) == np.abs(_ce_differential(ext, w)).max(initial=0.0)
        if trial % 3 == 0:
            assert worst == 0
        open_seen |= worst != 0
    assert open_seen == any_open


def test_lie_cocycle_defect_measures_antisymmetry():
    ext = canonical_extension(_aff1_with_weights())
    omega = Cochain.from_function(2, 2, 2, lambda p, q: (p + 2 * q, -q))
    _, anti = lie_cocycle_defect(ext, omega)
    assert anti == 6  # omega(e2, e2) + omega(e2, e2) = (6, -2)


def test_iota2_checks_the_system_omega_once(monkeypatch):
    import leibrack.rack as rack
    calls = []
    check = rack.lie_cocycle_defect
    monkeypatch.setattr(rack, "lie_cocycle_defect",
                        lambda ext, omega: calls.append(omega) or check(ext, omega))
    sys_ = build_rack_system(canonical_extension(filiform5()), 0.5)
    g = group_from_coords(sys_, [0.05, 0.01, 0, 0])
    h = group_from_coords(sys_, [-0.02, 0.03, 0.01, 0])
    for _ in range(20):
        iota2(sys_, g, h)
    assert len(calls) == 1
    vals = {(1, 3): 1, (3, 1): -1}
    fake = Cochain.from_function(2, 4, 1, lambda p, q: (vals.get((p, q), 0),))
    fake_sys = _on_omega(sys_, fake)
    for k in range(3):
        with pytest.raises(NotLieCocycleError, match="cocycle"):
            iota2(fake_sys, g, g)
        assert len(calls) == 2 + k


_OMEGA_INPUTS = {"dim5": dim5, "heisenberg": heisenberg}


def _on_assembled_omega(sys_, omega):
    """The README's recipe for a system on another omega: the canonical
    extension of the algebra that g0, rho and omega assemble, whose parent
    carries omega, and the float system replaced."""
    ext = sys_.ext
    return replace(sys_, ext=canonical_extension(assemble_extension(ext.g0, ext.rho, omega)))


@pytest.mark.parametrize("name", list(_OMEGA_INPUTS))
def test_a_system_on_another_omega_integrates_that_omega(name):
    # the README's recipe, on the algebra assembled with 2 omega: it keeps
    # g0 and rho, so g0 coordinates mean the same group element on both,
    # and i1, i2 and iota2 integrate the new omega.  i2 doubles up to the
    # rounding of the other parent basis, and the Lie rows still pass
    sys_ = build_rack_system(canonical_extension(_OMEGA_INPUTS[name]()))
    doubled = _on_assembled_omega(sys_, sys_.ext.omega.scale(2))
    assert doubled.ext.omega == sys_.ext.omega.scale(2)
    xi, zeta = np.random.default_rng(43).uniform(-0.05, 0.05, (2, 30, sys_.g0_dim))
    ok, ok2 = np.ones(30, dtype=bool), np.ones(30, dtype=bool)
    want = 2 * i2(sys_, group_from_coords(sys_, xi), group_from_coords(sys_, zeta), ok)
    got = i2(doubled, group_from_coords(doubled, xi), group_from_coords(doubled, zeta), ok2)
    assert ok.all() and ok2.all() and np.abs(want).max() > 0
    assert np.abs(got - want).max() <= 1e-15
    if name == "heisenberg":
        results = lie_specialization_suite(doubled, n_samples=20, seed=0)
        assert all(r.passed for r in results), [(r.name, r.max_defect) for r in results]


@pytest.mark.parametrize("name", list(_OMEGA_INPUTS))
def test_omega_is_converted_to_floats_once_per_system(name, monkeypatch):
    calls = []
    to_numpy = Cochain.to_numpy
    monkeypatch.setattr(Cochain, "to_numpy", lambda self: calls.append(self) or to_numpy(self))
    full_suite(build_rack_system(canonical_extension(_OMEGA_INPUTS[name]())),
               n_samples=20, seed=0)
    assert len(calls) == 1


# every value a system derives from its extension, each on first use
DERIVED = ("ad_basis", "rho_basis", "ad0_basis", "coord_pinv", "ad_index", "rho_index",
           "ad0_index", "omega", "lie_omega", "change_of_basis", "basis_coords",
           "bracket_coords")


def test_a_system_is_built_without_exact_work(dim5_ext, monkeypatch):
    # its fields are the four choices; everything else waits for first use
    import leibrack.rack as rack
    monkeypatch.setattr(Matrix, "to_numpy", lambda self: pytest.fail("to_numpy at build"))
    monkeypatch.setattr(rack, "joint_nilpotency_index",
                        lambda mats: pytest.fail("a nilpotency index at build"))
    sys_ = build_rack_system(dim5_ext, 0.5, quad_order=5, fd_step=2e-3)
    assert [f.name for f in fields(sys_)] == ["ext", "chart_radius", "quad", "fd_step"]
    assert not set(DERIVED) & set(vars(sys_))


def test_with_chart_radius_copies_without_exact_work(heis_ext, monkeypatch):
    import leibrack.rack as rack
    sys_, fresh = build_rack_system(heis_ext, 0.5), build_rack_system(heis_ext, 0.5)
    derived = {name: getattr(sys_, name) for name in DERIVED}

    def exact_work(*args):
        raise AssertionError("exact work in with_chart_radius")
    for name in ("build_rack_system", "joint_nilpotency_index", "lie_cocycle_defect",
                 "ad_matrix"):
        monkeypatch.setattr(rack, name, exact_work)
    monkeypatch.setattr(Cochain, "to_numpy", exact_work)
    monkeypatch.setattr(Matrix, "to_numpy", exact_work)
    wide = sys_.with_chart_radius(8.0)
    assert wide.chart_radius == 8.0 and sys_.chart_radius == 0.5 and wide.ext is sys_.ext
    for name, value in derived.items():
        assert getattr(wide, name) is value, name
    # a system that derived nothing yet leaves the derivations to the copy
    assert not set(DERIVED) & set(vars(fresh.with_chart_radius(8.0)))
    monkeypatch.undo()
    assert (fresh.with_chart_radius(8.0).omega == derived["omega"]).all()
    with pytest.raises(ValueError):
        sys_.with_chart_radius(0.0)


def test_a_system_on_another_extension_derives_its_values_afresh(heis_ext, dim5_ext):
    sys_ = build_rack_system(heis_ext, 0.5)
    for name in DERIVED:
        getattr(sys_, name)
    assert sys_.lie_omega.shape == (2, 1, 2) and sys_.ad_basis.shape == (2, 3, 3)
    assert sys_.basis_coords.shape == (3, 3) and sys_.bracket_coords.shape == (9, 3)
    other = replace(sys_, ext=dim5_ext)
    assert not set(DERIVED) & set(vars(other))
    assert other.omega.shape == (2, 3, 2) and other.ad_basis.shape == (2, 5, 5)
    assert (other.basis_coords == dim5_ext.from_parent.to_numpy().T).all()
    # the suites' basis rows are the split's F, one float conversion
    assert other.basis_coords.base is other.change_of_basis[0]
    assert (other.change_of_basis[1] == dim5_ext.to_parent.to_numpy()).all()
    assert other.bracket_coords.tobytes() == bracket_coords_by_brackets(dim5_ext).tobytes()


# (source, target): sizes that differ, the same sizes (5, 2, 3) with
# another G0, and a Lie target, where iota2 runs
REPLACED = {"heisenberg->dim5": (heisenberg, dim5),
            "dim5->rl9": (dim5, partial(random_leibniz, 9)),
            "dim5->heisenberg": (dim5, heisenberg)}


@pytest.mark.parametrize("pair", list(REPLACED))
def test_a_replaced_extension_gives_the_system_built_on_it(pair):
    source, target = (canonical_extension(make()) for make in REPLACED[pair])
    old = build_rack_system(source, 0.5)
    for name in DERIVED[:7]:
        getattr(old, name)
    got, want = replace(old, ext=target), build_rack_system(target, 0.5)
    rng = np.random.default_rng(29)
    xi, zeta = rng.uniform(-0.05, 0.05, (2, 20, want.g0_dim))
    a, b = rng.uniform(-1.0, 1.0, (2, 20, want.center_dim))
    g, h = group_from_coords(want, xi), group_from_coords(want, zeta)
    assert group_from_coords(got, xi).tobytes() == g.tobytes()

    def values(sys_):
        ok = np.ones(20, dtype=bool)
        r = rack_product(sys_, LocalRackElement(g, a), LocalRackElement(h, b), ok)
        out = [ok, r.g, r.a, i2(sys_, g, h, ok)]
        if is_lie(sys_.ext.parent):
            out.append(iota2(sys_, g, h, ok))
        else:
            with pytest.raises(NotLieCocycleError, match="anti-symmetric|cocycle") as err:
                iota2(sys_, g, h)
            out.append(str(err.value))
        return out

    got_values, want_values = values(got), values(want)
    assert want_values[0].sum() >= 10
    for x, y in zip(got_values, want_values):
        assert (x == y if isinstance(x, str) else x.tobytes() == y.tobytes())


def test_a_report_asks_whether_the_parent_is_lie_once(capsys, monkeypatch):
    import leibrack.algebra as algebra
    import leibrack.cli as cli
    import leibrack.rack as rack
    import leibrack.suites as suites
    calls = []
    for module in (cli, rack, suites, algebra):
        if hasattr(module, "is_lie"):
            monkeypatch.setattr(module, "is_lie",
                                lambda alg, lie=module.is_lie: calls.append(alg) or lie(alg))
    assert main(["example", "heisenberg", "--samples", "20", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["algebra"]["is_lie"] is True
    assert "lie_group_associativity" in {r["name"] for r in doc["properties"]}
    assert calls == [heisenberg()]


# -- the rack product's work, and reports against the one-sample oracles --------

def test_chart_gates_keep_one_identity_and_identity_stays_fresh():
    sys_ = build_rack_system(canonical_extension(dim5()), 0.5)
    eye = sys_.identity()
    assert eye is not sys_.identity() and eye.flags.writeable
    eye[0, 0] = 5.0  # a caller's copy never reaches the gates
    assert in_chart(sys_, sys_.identity())
    assert not in_chart(sys_, eye)


def test_rack_product_conjugates_once_and_takes_one_log(monkeypatch):
    import leibrack.rack as rack
    sys_ = build_rack_system(canonical_extension(dim5()), 0.5)
    g = group_from_coords(sys_, [0.1, -0.05])
    h = group_from_coords(sys_, [-0.02, 0.07])
    counts = {"_conjugate": 0, "_chart_gate": 0, "log_float": 0}
    for name in counts:
        original = getattr(rack, name)

        def counted(*args, name=name, original=original):
            counts[name] += 1
            return original(*args)
        monkeypatch.setattr(rack, name, counted)
    rack_product(sys_, LocalRackElement(g, np.ones(3)), LocalRackElement(h, np.ones(3)))
    # the conjugation gates g, h and g |> h, and h alone is logged, behind its gate
    assert counts == {"_conjugate": 1, "_chart_gate": 3, "log_float": 1}


@pytest.mark.parametrize("alg", [dim5(), _diagonal_rho()], ids=["dim5", "diagonal_rho"])
def test_a_stacked_rack_product_conjugates_once_and_takes_one_log(alg, monkeypatch):
    # g's split gives both its action and i2, and h's log coordinates are
    # the only ones taken, for a stack as for one element
    import leibrack.rack as rack
    sys_ = build_rack_system(canonical_extension(alg), 0.5)
    rng = np.random.default_rng(23)
    g, h = (group_from_coords(sys_, rng.uniform(-0.1, 0.1, (12, sys_.g0_dim)))
            for _ in range(2))
    a = rng.uniform(-0.25, 0.25, (12, sys_.center_dim))
    counts = {"_conjugate": 0, "_chart_gate": 0, "log_float": 0}
    for name in counts:
        original = getattr(rack, name)

        def counted(*args, name=name, original=original):
            counts[name] += 1
            return original(*args)
        monkeypatch.setattr(rack, name, counted)
    ok = np.ones(12, dtype=bool)
    got = rack_product(sys_, LocalRackElement(g, a), LocalRackElement(h, a), ok)
    assert ok.all() and np.abs(got.a).max() > 0
    # one gate each for g, h and g |> h; log h
    assert counts == {"_conjugate": 1, "_chart_gate": 3, "log_float": 1}


def _cli_json(argv, capsys):
    code = main(argv)
    return code, capsys.readouterr().out


@pytest.mark.parametrize("which", ["example_dim5", "integrate_aff1_radius8",
                                   "integrate_aff1_radius1000"])
def test_reports_are_byte_identical_with_the_one_sample_oracles(which, tmp_path, capsys,
                                                                monkeypatch):
    # every suite and extra replaced by its one-sample-at-a-time loop; the
    # round trips' loops differentiate each pair themselves, so the one
    # difference they share is not taken
    import leibrack.rack_report as rack_report
    import leibrack.suites as suites
    if which == "example_dim5":
        argv = ["example", "dim5", "--json", "--samples", "40", "--seed", "3"]
    else:
        path = tmp_path / "aff1.leib"
        write_algebra_file(_aff1_with_weights(), path)
        argv = ["integrate", str(path), "--json", "--samples", "20", "--seed", "1",
                "--chart-radius", which.rsplit("radius", 1)[1]]
    stacked = _cli_json(argv, capsys)
    for name, oracle in ONE_BY_ONE.items():
        monkeypatch.setattr(suites, name, oracle)
    monkeypatch.setattr(suites, "basis_pair_difference", lambda sys_: None)
    for name, extras in EXTRAS_ONE_BY_ONE.items():
        monkeypatch.setitem(rack_report.EXAMPLE_EXTRAS, name, extras)
    assert stacked == _cli_json(argv, capsys)
    # aff(1) is not Lie, so no suite skips, not even at radius 1000, where
    # rounding fails rows on entries near 250
    if which != "example_dim5":
        skipped = any(p["skipped"] for p in json.loads(stacked[1])["properties"])
        assert (stacked[0], skipped) == ((4, False) if which.endswith("1000") else (0, False))
