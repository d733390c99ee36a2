"""Acceptance gate: every criterion at its stated tolerance, one pass/fail
line each (emitted outside pytest's capture so they always show).
"""

import time
from fractions import Fraction

import numpy as np
import pytest

import oracles
from leibrack.algebra import canonical_extension, is_lie
from leibrack.cohomology import (
    hom_representation,
    leibniz_differential,
    tau,
)
from leibrack.corpus import abelian3, dim5, heisenberg
from leibrack.exact import Matrix
from leibrack.linalg import gauss_legendre_01
from leibrack.rack import (
    build_rack_system,
    default_config,
    delta2,
    group_from_coords,
    i1,
    i2,
    iota2,
)
from leibrack.rack_report import dim5_f, dim5_i1_matrix, heisenberg_iota2
from leibrack.suites import (
    cocycle_suite,
    lie_specialization_suite,
    rack_axiom_suite,
    tangent_suite,
)
from oracles import i2_quadrature, random_corpus, tau_inverse

CFG = default_config()

_CAPTURE = None


@pytest.fixture(autouse=True)
def _capture_handle(capfd):
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def announce(num, ok, detail, elapsed):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num:2d} [{status}] {detail} ({elapsed:.2f}s)"
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)
    assert ok, detail


def builtin_systems(radius=0.5):
    for alg in (dim5(), heisenberg(), abelian3()):
        yield build_rack_system(canonical_extension(alg), radius)


def disk_point(rng, radius=0.25):
    while True:
        a = rng.uniform(-radius, radius, size=2)
        if np.hypot(*a) <= radius:
            return a


def test_criterion_1_exact_dim5_analysis():
    t0 = time.perf_counter()
    ext = canonical_extension(dim5())
    ok = (
        {tuple(map(int, v)) for v in ext.center_basis}
        == {(0, 0, 1, 0, 0), (0, 0, 0, 1, 0), (0, 0, 0, 0, 1)}
        and ext.g0_dim == 2
        and is_lie(ext.g0)
        and all(v == 0 for row in ext.g0.c for vec in row for v in vec)
        and ext.rho[0] == Matrix.from_rows([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
        and ext.rho[1] == Matrix.from_rows([[0, 0, 0], [0, 0, 0], [1, 0, 0]])
        and ext.omega.at(0, 0) == (1, 0, 0)
        and ext.omega.at(0, 1) == (1, 0, 0)
        and ext.omega.at(1, 0) == (0, 1, 0)
        and ext.omega.at(1, 1) == (0, 1, 0)
    )
    dt = time.perf_counter() - t0
    announce(1, ok and dt < 1.0,
             "dim5 extension data exact (center, g0, rho, omega)", dt)


def test_criterion_2_i1_closed_form():
    t0 = time.perf_counter()
    sys_ = build_rack_system(canonical_extension(dim5()), 0.5)
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(20):
        a = disk_point(rng)
        g = group_from_coords(sys_.chart, a)
        got = i1(sys_, sys_.omega, g)
        worst = max(worst, float(np.abs(got - dim5_i1_matrix(*a)).max()))
    dt = time.perf_counter() - t0
    announce(2, worst <= 1e-10 and dt < 1.0,
             f"I1 matches the closed-form 3x2 matrix, max dev {worst:.2e} <= 1e-10", dt)


def _sympy_dim5_f():
    """Independent symbolic iterated integration of the dim5 integrand."""
    import sympy as sp
    a1, a2, b1, b2, s, t = sp.symbols("a1 a2 b1 b2 s t")

    def rho(x1, x2):
        return sp.Matrix([[0, 0, 0], [x1, 0, 0], [x2, x1, 0]])

    def expm3(n):  # strictly lower triangular 3x3: cube vanishes
        return sp.eye(3) + n + (n * n) / 2

    hom = sp.Matrix([[a1, a1], [a2, a2], [0, 0]])
    inner = sp.integrate(expm3(rho(s * a1, s * a2)) * hom, (s, 0, 1))
    outer = sp.integrate(
        expm3(rho(t * b1, t * b2)) * (inner * sp.Matrix([b1, b2])), (t, 0, 1))
    return sp.expand(outer), (a1, a2, b1, b2)


def test_criterion_3_i2_closed_form_with_symbolic_oracle():
    import sympy as sp
    t0 = time.perf_counter()
    sym_f, (a1, a2, b1, b2) = _sympy_dim5_f()
    # the hard-coded closed form agrees with the symbolic oracle identically
    closed = sp.Matrix([
        a1 * (b1 + b2),
        (b1 * a1 / 2 + a2 + a1 ** 2 / 2) * (b1 + b2),
        (a1 * a2 + a1 ** 3 / 6 + b1 * a1 ** 2 / 4 + b2 * a1 / 2
         + b1 * a2 / 2 + b1 ** 2 * a1 / 6) * (b1 + b2)])
    symbolic_match = sp.expand(sym_f - closed) == sp.zeros(3, 1)

    sys_ = build_rack_system(canonical_extension(dim5()), 0.5)
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(20):
        a, b = disk_point(rng), disk_point(rng)
        g = group_from_coords(sys_.chart, a)
        h = group_from_coords(sys_.chart, b)
        got = i2(sys_, g, h)
        worst = max(worst, float(np.abs(got - dim5_f(a, b)).max()))
    dt = time.perf_counter() - t0
    announce(3, symbolic_match and worst <= 1e-9 and dt < 5.0,
             f"I2 matches closed-form f(a,b) (symbolic oracle concurs), "
             f"max dev {worst:.2e} <= 1e-9", dt)


def test_criterion_4_left_inverse_property():
    t0 = time.perf_counter()
    algebras = [dim5(), heisenberg()] + random_corpus(10, seed=0)
    worst = 0.0
    for alg in algebras:
        ext = canonical_extension(alg)
        sys_ = build_rack_system(ext, 0.5)
        d = ext.g0_dim
        if d == 0:
            continue
        omega_np = ext.omega.to_numpy()
        f = lambda g, h: i2(sys_, g, h)
        for p in range(d):
            for q in range(d):
                got = delta2(sys_, f, np.eye(d)[p], np.eye(d)[q], CFG)
                worst = max(worst, float(np.abs(got - omega_np[p, q]).max()))
    dt = time.perf_counter() - t0
    announce(4, worst <= 1e-5 and dt < 30.0,
             f"delta2(I2(omega)) = omega on 12 algebras, max dev {worst:.2e} <= 1e-5",
             dt)


def test_criterion_5_rack_axioms():
    t0 = time.perf_counter()
    worst = 0.0
    names = []
    ok = True
    for sys_ in builtin_systems():
        results = rack_axiom_suite(sys_, n_samples=200, seed=0)
        for r in results:
            worst = max(worst, r.max_defect)
            ok = ok and r.max_defect <= 1e-9 and r.passed
            names.append(r.name)
    dt = time.perf_counter() - t0
    announce(5, ok and dt < 60.0,
             f"self-distributivity/pointedness/injectivity on 200 samples x 3 "
             f"algebras, max defect {worst:.2e} <= 1e-9", dt)


def test_criterion_6_cocycle_identities():
    t0 = time.perf_counter()
    ok = True
    worst = 0.0
    for sys_ in builtin_systems():
        results = {r.name: r for r in cocycle_suite(sys_, n_triples=100, seed=1)}
        ok = ok and results["rack_cocycle_identity"].max_defect <= 1e-9
        ok = ok and results["ghost_identity"].max_defect <= 1e-9
        ok = ok and results["ghost_induces_cocycle"].max_defect <= 2e-9
        worst = max(worst, *(r.max_defect for r in results.values()))
    dt = time.perf_counter() - t0
    announce(6, ok, f"d_R I2 and ghost identity on 100 seeded triples, "
                    f"max defect {worst:.2e} <= 1e-9 (relation <= 2e-9)", dt)


def _representation_pool():
    pool = []
    for alg in [dim5(), heisenberg()] + random_corpus(4, seed=2):
        ext = canonical_extension(alg)
        if ext.g0_dim:
            pool.append(ext.rep)
    return pool


def test_criterion_7_chain_level_algebra():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    pool = _representation_pool()
    ok = True
    for count in range(50):
        rep = pool[count % len(pool)]
        dd, cd = rep.algebra.dim, rep.carrier_dim
        degree = int(rng.integers(0, 3))
        w = oracles.cochain_from_dense(degree, dd, cd, tuple(
            Fraction(int(rng.integers(-3, 4))) for _ in range(dd ** degree * cd)))
        ok = ok and leibniz_differential(rep, leibniz_differential(rep, w)).is_zero()
        w2 = oracles.cochain_from_dense(2, dd, cd, tuple(
            Fraction(int(rng.integers(-3, 4))) for _ in range(dd ** 2 * cd)))
        lhs = tau(leibniz_differential(rep, w2))
        rhs = leibniz_differential(hom_representation(rep), tau(w2))
        ok = ok and lhs == rhs
    # tau round trips exactly, degrees 1..3
    for degree in (1, 2, 3):
        w = oracles.cochain_from_dense(degree, 3, 2, tuple(
            Fraction(int(rng.integers(-3, 4))) for _ in range(3 ** degree * 2)))
        ok = ok and tau_inverse(tau(w)) == w
    dt = time.perf_counter() - t0
    announce(7, ok, "dL.dL = 0, dL.tau = tau.dL, tau.tau_inverse = id "
                    "(exact, 50 random cochains)", dt)


def test_criterion_8_lie_specialization():
    t0 = time.perf_counter()
    sys_ = build_rack_system(canonical_extension(heisenberg()), 0.5)
    results = {r.name: r for r in
               lie_specialization_suite(sys_, CFG, n_samples=50, seed=4)}
    ok = all(results[k].max_defect <= 1e-9 for k in
             ("lie_group_associativity", "lie_conjugation_equals_rack",
              "i2_from_iota2"))
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(20):
        a, b = rng.uniform(-0.05, 0.05, 2), rng.uniform(-0.05, 0.05, 2)
        g = group_from_coords(sys_.chart, a)
        h = group_from_coords(sys_.chart, b)
        worst = max(worst, float(np.abs(iota2(sys_, g, h, CFG)
                                        - heisenberg_iota2(a, b)).max()))
    dt = time.perf_counter() - t0
    announce(8, ok and worst <= 1e-9,
             f"Heisenberg: group laws, conjugation = rack, iota2 relation and "
             f"analytic value (dev {worst:.2e}) all <= 1e-9", dt)


def test_criterion_9_tangent_round_trip():
    from leibrack.corpus import filiform5, free_nilpotent5
    t0 = time.perf_counter()
    worst = 0.0
    algebras = [dim5(), heisenberg(), abelian3(), filiform5(),
                free_nilpotent5()] + random_corpus(3, seed=7)
    for alg in algebras:
        sys_ = build_rack_system(canonical_extension(alg), 0.5)
        res = tangent_suite(sys_, CFG)[0]
        worst = max(worst, res.max_defect)
    dt = time.perf_counter() - t0
    announce(9, worst <= 1e-4,
             f"tangent bracket reproduces structure constants on "
             f"{len(algebras)} corpus algebras, max dev {worst:.2e} <= 1e-4", dt)


def test_criterion_10_quadrature_exactness():
    # I2 itself is the phi1 closed form; quadrature of the same integrands
    # is its independent cross-check
    t0 = time.perf_counter()
    sys_ = build_rack_system(canonical_extension(dim5()), 0.5)
    rule8 = gauss_legendre_01(8)
    rule16 = gauss_legendre_01(16)
    rng = np.random.default_rng(6)
    worst = agree = 0.0
    for _ in range(20):
        g = group_from_coords(sys_.chart, rng.uniform(-0.1, 0.1, 2))
        h = group_from_coords(sys_.chart, rng.uniform(-0.1, 0.1, 2))
        q8 = i2_quadrature(sys_, g, h, rule8)
        q16 = i2_quadrature(sys_, g, h, rule16)
        closed = i2(sys_, g, h)
        worst = max(worst, float(np.abs(q8 - q16).max()))
        agree = max(agree, float(np.abs(q8 - closed).max()),
                    float(np.abs(q16 - closed).max()))
    dt = time.perf_counter() - t0
    announce(10, worst <= 1e-12 and agree <= 1e-12,
             f"order-8 vs order-16 quadrature of I2 on dim5 differ by {worst:.2e} "
             f"<= 1e-12; both match the phi1 closed form to {agree:.2e} <= 1e-12", dt)
