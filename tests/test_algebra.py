"""Structure constants, identities, center, squares ideal, and the
canonical extension data, all exact."""

from fractions import Fraction
from itertools import product

import numpy as np
import pytest

import oracles
from leibrack import algebra
from leibrack.algebra import (
    LeibnizAlgebra,
    Representation,
    ValidationError,
    bracket,
    canonical_extension,
    is_lie,
    left_center,
    leibniz_defect,
    squares_ideal,
    validate_leibniz,
)
from leibrack.cohomology import Cochain, leibniz_differential
from leibrack.corpus import (
    abelian3,
    dim5,
    filiform5,
    free_nilpotent5,
    heisenberg,
    random_leibniz,
)
from leibrack.exact import Matrix
from oracles import random_corpus, rank

E = lambda n, i: tuple(Fraction(int(j == i)) for j in range(n))


def corpus():
    return [dim5(), heisenberg(), abelian3(), filiform5(), free_nilpotent5()]


# -- bracket and identity ----------------------------------------------------

def test_dim5_brackets_match_the_table():
    alg = dim5()
    assert bracket(alg, E(5, 0), E(5, 1)) == E(5, 2)       # [e1,e2] = e3
    assert bracket(alg, E(5, 0), E(5, 0)) == E(5, 2)       # [e1,e1] = e3
    assert bracket(alg, E(5, 2), E(5, 0)) == (0,) * 5      # e3 is left central
    assert bracket(alg, (0,) * 5, E(5, 1)) == (0,) * 5


def test_dim5_general_bracket_formula():
    # [(x),(y)] = (0, 0, x1(y1+y2), x2(y1+y2)+x1*y3, x1*y4+x2*y3)
    alg = dim5()
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = [Fraction(int(c)) for c in rng.integers(-4, 5, size=5)]
        y = [Fraction(int(c)) for c in rng.integers(-4, 5, size=5)]
        want = (Fraction(0), Fraction(0),
                x[0] * (y[0] + y[1]),
                x[1] * (y[0] + y[1]) + x[0] * y[2],
                x[0] * y[3] + x[1] * y[2])
        assert bracket(alg, x, y) == want


def test_leibniz_defect_zero_on_valid_algebras():
    for alg in corpus():
        n = alg.dim
        assert leibniz_defect(alg, E(n, 0), E(n, min(1, n - 1)), E(n, n - 1)) == (0,) * n


def test_leibniz_defect_of_invalid_bracket():
    # [e1,e1] = e2, [e2,e1] = e1: defect at (e1,e1,e1) is
    # [e1,[e1,e1]] - [[e1,e1],e1] - [e1,[e1,e1]] = -[e2,e1] = -e1
    bad = LeibnizAlgebra.from_brackets(2, {(0, 0): {1: 1}, (1, 0): {0: 1}},
                                       check=False)
    assert leibniz_defect(bad, E(2, 0), E(2, 0), E(2, 0)) == (Fraction(-1), Fraction(0))


def test_constructor_rejects_invalid_tensor():
    with pytest.raises(ValidationError) as err:
        LeibnizAlgebra.from_brackets(2, {(0, 0): {1: 1}, (1, 0): {0: 1}})
    assert err.value.triple == (0, 0, 0)
    assert err.value.defect == (Fraction(-1), Fraction(0))


@pytest.mark.parametrize("index", [(-1, 0, 0), (3, 0, 0), (0, -1, 0), (0, 3, 0),
                                   (0, 0, -1), (0, 0, 3)])
def test_constructors_reject_an_index_out_of_range(index):
    # a negative index once stored the bracket at the index read from the end
    i, j, k = index
    with pytest.raises(ValueError, match="out of range"):
        LeibnizAlgebra.from_brackets(3, {(i, j): {k: 1}}, check=False)
    with pytest.raises(ValueError, match="out of range"):
        LeibnizAlgebra.from_terms(3, [(0, 1, 2, 1), (i, j, k, 1)], check=False)


def test_from_terms_sums_repeated_terms_and_drops_zero_sums():
    alg = LeibnizAlgebra.from_terms(2, [(0, 0, 1, 1), (1, 0, 0, 2), (0, 0, 1, Fraction(1, 2)),
                                        (1, 0, 0, -2), (0, 1, 0, 0)], check=False)
    assert alg.terms == ((((1, Fraction(3, 2)),), ()), ((), ()))
    assert alg.c == (((0, Fraction(3, 2)), (0, 0)), ((0, 0), (0, 0)))


@pytest.mark.parametrize("terms", [
    ((((1, 1),),),),                          # one row of one pair
    (((), ()), ((),)),                        # ragged
    ((((1, 1), (0, 1)), ()), ((), ())),       # k decreasing
    ((((1, 1), (1, 2)), ()), ((), ())),       # k repeated
    ((((2, 1),), ()), ((), ())),              # k out of range
    ((((-1, 1),), ()), ((), ())),             # k negative
    ((((1, 0),), ()), ((), ())),              # a zero entry
], ids=["short", "ragged", "decreasing", "repeated", "k_too_large", "k_negative", "zero"])
def test_the_table_is_checked_on_construction(terms):
    with pytest.raises(ValueError):
        LeibnizAlgebra(2, ("e1", "e2"), terms)


_ONE_ZERO = (Matrix.zeros(1, 1),)
_EMPTY_TABLE = (((), ()), ((), ()))


@pytest.mark.parametrize("build, message", [
    (lambda: LeibnizAlgebra(2, ("e1",), _EMPTY_TABLE), "one name per basis element"),
    (lambda: Representation(heisenberg(), 1, _ONE_ZERO, "symmetric"),
     "one action matrix per basis element"),
    (lambda: Representation(heisenberg(), 1, _ONE_ZERO * 3, "left"), "unknown flavor"),
    (lambda: Cochain(2, 2, 1, {(0,): (Fraction(1),)}), "not a degree-2 index"),
    (lambda: Cochain(2, 2, 1, {(0, 2): (Fraction(1),)}), "not a degree-2 index"),
    (lambda: Cochain(2, 2, 1, {(0, 1): (Fraction(0),)}), "not a nonzero vector"),
    (lambda: Cochain(2, 2, 1, {(0, 1): (Fraction(1), Fraction(1))}), "not a nonzero vector"),
], ids=["algebra_names", "representation_actions", "representation_flavor", "cochain_degree",
        "cochain_range", "cochain_zero_value", "cochain_value_length"])
def test_the_exact_records_check_their_fields_on_construction(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def filiform(n):
    """The filiform Lie algebra [e1,ek] = e_{k+1}, k = 2..n-1."""
    br = {}
    for k in range(1, n - 1):
        br[(0, k)] = {k + 1: 1}
        br[(k, 0)] = {k + 1: -1}
    return LeibnizAlgebra.from_brackets(n, br, check=False)


def perturbed(alg, i, j, k, delta):
    """alg with delta added to c_ij^k: its table plus one term."""
    terms = [(a, b, e, v) for a, row in enumerate(alg.terms) for b, t in enumerate(row)
             for e, v in t]
    return LeibnizAlgebra.from_terms(alg.dim, terms + [(i, j, k, Fraction(delta))],
                                     alg.basis_names, check=False)


def dense_verdict(alg):
    """Oracle: the dense defect on all n^3 basis triples in lexicographic
    order; (triple, defect, message) of the first failure, else None."""
    n, names = alg.dim, alg.basis_names
    for i, j, k in product(range(n), repeat=3):
        d = leibniz_defect(alg, E(n, i), E(n, j), E(n, k))
        if any(d):
            return ((i, j, k), d,
                    f"Leibniz identity fails on ({names[i]},{names[j]},{names[k]}): "
                    f"defect {tuple(str(e) for e in d)}")
    return None


def sparse_verdict(alg):
    try:
        validate_leibniz(alg)
    except ValidationError as err:
        return err.triple, err.defect, str(err)
    return None


@pytest.mark.parametrize("alg, entry, triple", [
    (filiform(6), (0, 1, 3, 1), (0, 1, 0)),
    (filiform(6), (3, 4, 5, 2), (0, 2, 4)),  # -[e4,e5] = -2 e6
    (heisenberg(), (1, 2, 0, 1), (0, 1, 1)),  # -[e2,[e1,e2]] = -[e2,e3] = -e1
], ids=["filiform6_e1e2", "filiform6_e4e5", "heisenberg_e2e3"])
def test_validation_error_names_a_later_triple(alg, entry, triple):
    bad = perturbed(alg, *entry)
    with pytest.raises(ValidationError) as err:
        validate_leibniz(bad)
    assert err.value.triple == triple
    assert (err.value.triple, err.value.defect, str(err.value)) == dense_verdict(bad)


def test_sparse_check_agrees_with_the_dense_loop():
    # single-entry perturbations, seeded; some keep the identity
    rng = np.random.default_rng(8)
    bases = [dim5(), filiform5(), free_nilpotent5()] + [random_leibniz(s) for s in range(4)]
    verdicts = []
    for alg in bases:
        assert sparse_verdict(alg) is None
        n = alg.dim
        for _ in range(12):
            i, j, k = (int(v) for v in rng.integers(0, n, size=3))
            delta = Fraction(int(rng.choice([-2, -1, 1, 3])), int(rng.choice([1, 2])))
            bad = perturbed(alg, i, j, k, delta)
            got = sparse_verdict(bad)
            assert got == dense_verdict(bad), (alg.basis_names, (i, j, k, delta))
            assert is_lie(bad) == all(bad.c[a][b][e] == -bad.c[b][a][e]
                                      for a, b, e in product(range(n), repeat=3))
            verdicts.append(got)
    rejected = [v for v in verdicts if v is not None]
    assert len(rejected) < len(verdicts)
    assert len({v[0] for v in rejected}) > 10


def test_validate_leibniz_makes_no_dense_call_on_valid_input(monkeypatch):
    def dense(*args):
        raise AssertionError("dense leibniz_defect called")

    monkeypatch.setattr(algebra, "leibniz_defect", dense)
    validate_leibniz(filiform(12))
    with pytest.raises(AssertionError):
        validate_leibniz(perturbed(filiform(12), 0, 1, 3, 1))


def test_is_lie():
    assert not is_lie(dim5())
    assert is_lie(abelian3())
    assert is_lie(heisenberg())


# -- left center -------------------------------------------------------------

def test_left_center_dim5():
    got = {tuple(int(c) for c in v) for v in left_center(dim5())}
    assert got == {(0, 0, 1, 0, 0), (0, 0, 0, 1, 0), (0, 0, 0, 0, 1)}


def test_left_center_abelian_is_everything():
    assert len(left_center(abelian3())) == 3


def test_left_center_heisenberg():
    # independent oracle: the center vectors annihilate every basis vector
    alg = heisenberg()
    basis = left_center(alg)
    assert len(basis) == 1
    for v in basis:
        for j in range(3):
            assert bracket(alg, v, E(3, j)) == (0, 0, 0)
    assert tuple(int(c) for c in basis[0]) == (0, 0, 1)


def test_left_center_annihilates_for_corpus():
    for alg in corpus() + random_corpus(4, seed=5):
        for v in left_center(alg):
            for j in range(alg.dim):
                assert all(c == 0 for c in bracket(alg, v, E(alg.dim, j)))


# -- squares ideal -----------------------------------------------------------

def test_squares_ideal_dim5_equals_center():
    got = {tuple(int(c) for c in v) for v in squares_ideal(dim5())}
    assert got == {(0, 0, 1, 0, 0), (0, 0, 0, 1, 0), (0, 0, 0, 0, 1)}


def test_squares_ideal_of_lie_algebra_is_zero():
    assert squares_ideal(heisenberg()) == []
    assert squares_ideal(filiform5()) == []


def test_squares_ideal_single_generator():
    alg = LeibnizAlgebra.from_brackets(2, {(0, 0): {1: 1}})
    got = squares_ideal(alg)
    assert len(got) == 1 and tuple(int(c) for c in got[0]) == (0, 1)


def test_squares_ideal_inside_left_center():
    for alg in corpus() + random_corpus(4, seed=6):
        center_rows = left_center(alg)
        if not center_rows:
            assert squares_ideal(alg) == []
            continue
        center_rank = rank(Matrix.from_rows(center_rows))
        for v in squares_ideal(alg):
            assert rank(Matrix.from_rows(center_rows + [v])) == center_rank


# -- canonical extension -----------------------------------------------------

def test_extension_dim5_exact_values(dim5_ext):
    ext = dim5_ext
    assert ext.g0_dim == 2 and ext.center_dim == 3
    assert ext.complement_pivots == (0, 1)
    assert is_lie(ext.g0)
    assert all(v == 0 for row in ext.g0.c for vec in row for v in vec)  # abelian
    # rho_x = [[0,0,0],[x1,0,0],[x2,x1,0]] on center coordinates (e3,e4,e5)
    assert ext.rho[0] == Matrix.from_rows([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    assert ext.rho[1] == Matrix.from_rows([[0, 0, 0], [0, 0, 0], [1, 0, 0]])
    # omega(x,y) = (x1(y1+y2), x2(y1+y2), 0)
    assert ext.omega.at(0, 0) == (1, 0, 0)
    assert ext.omega.at(0, 1) == (1, 0, 0)
    assert ext.omega.at(1, 0) == (0, 1, 0)
    assert ext.omega.at(1, 1) == (0, 1, 0)


def test_extension_abelian_has_zero_quotient(abelian_ext):
    assert abelian_ext.g0_dim == 0
    assert abelian_ext.center_dim == 3
    assert oracles.cochain_dense(abelian_ext.omega) == ()


def aff1():
    """The affine Lie algebra aff(1): [e1,e2] = e2 = -[e2,e1], left center 0."""
    return LeibnizAlgebra.from_brackets(2, {(0, 1): {1: 1}, (1, 0): {1: -1}})


@pytest.mark.parametrize("alg, d, m", [(abelian3(), 0, 3), (aff1(), 2, 0)],
                         ids=["abelian3", "aff1"])
def test_extension_fields_keep_their_shapes_when_g0_or_the_center_is_zero(alg, d, m):
    ext = canonical_extension(alg)
    n = alg.dim
    assert (ext.g0_dim, ext.center_dim) == (d, m)
    shape = lambda mat: (mat.rows, mat.cols)
    assert type(ext).__slots__ == ("parent", "complement_pivots", "rep", "omega",
                                   "g0_matrices", "to_parent", "from_parent")
    assert shape(ext.to_parent) == shape(ext.from_parent) == (n, n)
    assert ext.to_parent @ ext.from_parent == Matrix.identity(n)
    assert [shape(r) for r in ext.rho] == [(m, m)] * d
    assert [shape(g) for g in ext.g0_matrices] == [(n, n)] * d
    assert (ext.omega.degree, ext.omega.domain_dim, ext.omega.coeff_dim) == (2, d, m)
    assert ext.rep.carrier_dim == m and len(ext.rep.left) == d
    assert len(ext.center_basis) == m and len(ext.complement_pivots) == d


def test_extension_heisenberg_area_form(heis_ext):
    ext = heis_ext
    assert ext.g0_dim == 2 and ext.center_dim == 1
    # oracle: bracket the lifts directly
    alg = heisenberg()
    lifts = [alg.basis_vector(p) for p in ext.complement_pivots]
    for p in range(2):
        for q in range(2):
            want = ext.split(bracket(alg, lifts[p], lifts[q]))[1]
            assert ext.omega.at(p, q) == want
    assert ext.omega.at(0, 1) == (1,)
    assert ext.omega.at(1, 0) == (-1,)
    assert ext.omega.at(0, 0) == (0,)
    # the action on the center of a Lie algebra is trivial
    assert all(r.is_zero() for r in ext.rho)


def test_extension_reassembles_bracket_exactly():
    for alg in corpus() + random_corpus(4, seed=7):
        ext = canonical_extension(alg)
        for i in range(alg.dim):
            for j in range(alg.dim):
                x, a = ext.split(alg.basis_vector(i))
                y, b = ext.split(alg.basis_vector(j))
                xy = bracket(ext.g0, x, y)
                zc = tuple(p + q for p, q in zip(oracles.left_of(ext.rep, x).mat_vec(b),
                                                 ext.omega.evaluate(x, y)))
                assert ext.unsplit(xy, zc) == bracket(alg, alg.basis_vector(i),
                                                      alg.basis_vector(j))


def test_extension_nonabelian_quotients():
    assert canonical_extension(filiform5()).g0_dim == 4
    assert canonical_extension(free_nilpotent5()).g0_dim == 3
    assert not is_lie(dim5()) and is_lie(canonical_extension(dim5()).g0)


@pytest.mark.parametrize("dim, brackets, triple", [
    (2, {(0, 1): {0: 1}}, (0, 1, 1)),
    (3, {(0, 0): {1: 1}, (1, 0): {2: 1}}, (0, 0, 0)),
    (3, {(0, 0): {1: 1}, (2, 1): {1: 1}}, (0, 2, 0)),
], ids=["quotient_out_of_range", "quotient_not_lie", "omega_not_a_cocycle"])
def test_canonical_extension_checks_the_leibniz_identity_first(dim, brackets, triple):
    # without the check each fails further on: an index out of range for
    # the quotient, a quotient that is not Lie, an omega that is not a cocycle
    bad = LeibnizAlgebra.from_brackets(dim, brackets, check=False)
    with pytest.raises(ValidationError) as err:
        canonical_extension(bad)
    assert err.value.triple == triple
    assert (err.value.triple, err.value.defect, str(err.value)) == dense_verdict(bad)


def test_canonical_extension_rejects_every_table_that_is_not_leibniz():
    # seeded sparse tables of small integers; most fail the identity
    rng = np.random.default_rng(21)
    rejected = 0
    for _ in range(300):
        n = int(rng.integers(3, 5))
        brackets = {}
        for i, j, k in np.argwhere(rng.random((n, n, n)) < 0.15):
            brackets.setdefault((int(i), int(j)), {})[int(k)] = int(rng.choice([-1, 1, 2]))
        alg = LeibnizAlgebra.from_brackets(n, brackets, check=False)
        want = sparse_verdict(alg)
        try:
            canonical_extension(alg)
            got = None
        except ValidationError as err:
            got = err.triple, err.defect, str(err)
        assert got == want, brackets
        rejected += want is not None
    assert 200 < rejected < 300


# -- representations ---------------------------------------------------------

def test_representation_axioms_reject_corruption():
    # a Representation is a plain record; the (LLM) oracle sees the change
    ext = canonical_extension(dim5())
    assert oracles.module_axiom_failure(ext.rep) is None
    bad = list(ext.rho)
    bad[0] = bad[0] + Matrix.from_rows([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    rep = Representation.anti_symmetric(ext.g0, bad, carrier_dim=3)
    assert oracles.module_axiom_failure(rep) == (0, 1)


def test_left_of_rejects_a_vector_of_another_length():
    # zip once cut [1, 0, 5] to [1, 0] and read [1] as [1, 0]
    n = Matrix.from_rows([[0, 0], [1, 0]])
    rep = Representation.anti_symmetric(LeibnizAlgebra.from_brackets(2, {}),
                                        [n, Matrix.zeros(2, 2)])
    assert oracles.left_of(rep, [1, 0]) == n
    for x in ([1], [1, 0, 5]):
        with pytest.raises(ValueError, match="length"):
            oracles.left_of(rep, x)


def test_a_representation_stores_no_right_action():
    assert Representation.__slots__ == ("algebra", "carrier_dim", "left", "flavor")


@pytest.mark.parametrize("make, sign", [
    (lambda g0, rho: Representation.symmetric(g0, rho, carrier_dim=3), 1),
    (lambda g0, rho: Representation.anti_symmetric(g0, rho, carrier_dim=3), 0),
    (lambda g0, rho: Representation.trivial(g0, 3), 0),
], ids=["symmetric", "anti_symmetric", "trivial"])
def test_symmetric_flavor_forces_right_action(make, sign):
    """dL beta(x) = -[beta, x]_R reads the right action the flavor fixes:
    [x, beta]_L on a symmetric module, 0 on an anti-symmetric one and on the
    trivial module."""
    ext = canonical_extension(dim5())
    rep = make(ext.g0, ext.rho)
    d = ext.g0.dim
    for k in range(3):
        got = leibniz_differential(rep, Cochain.from_function(0, d, 3, lambda: E(3, k)))
        for x in range(d):
            assert got.at(x) == tuple(sign * c for c in ext.rho[x].mat_vec(E(3, k)))


def test_random_corpus_is_valid_and_nontrivial():
    algs = random_corpus(10, seed=0)
    for alg in algs:
        assert alg.dim <= 5
        ext = canonical_extension(alg)
        assert 0 < ext.g0_dim < alg.dim
