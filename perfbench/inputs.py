"""Input generators for the benchmark workloads.

Every input is described by a small JSON-able descriptor, so the pool of a
workload can be recorded next to its reference reports.  ``build`` turns a
descriptor into a ``LeibnizAlgebra``; the benchmark writes it out with
``fileio.write_algebra_file`` so the program under test only ever sees
files.  The package modules are imported lazily: this module must load in a
directory that holds only the benchmark.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

RHO_KINDS = ("diagonal", "jordan", "rotation", "aff")
FILIFORM_DIMS = (6, 8, 10, 12)

# nonzero eigenvalue choices for the semisimple part of rho; kept at most 2
# in magnitude so sampled group elements stay inside the log chart
_LAMBDAS = tuple(Fraction(x) for x in ("-2", "-1", "-1/2", "1/2", "1", "2"))


def _random_center_vector(rng, ks):
    """Coefficients {k: c} of a nonzero vector of the left center span(ks)."""
    while True:
        vec = {k: rng.choice((-1, 0, 1, 2)) for k in ks}
        vec = {k: c for k, c in vec.items() if c}
        if vec:
            return vec


def rho_semisimple(kind: str, seed: int):
    """A Leibniz algebra g0 (+) V with V left-central and rho not nilpotent.

    * diagonal: [e1,ek] = lambda_k ek on V = span(e2, e3, e4)
    * jordan:   a Jordan block with eigenvalue lambda on (e2, e3), mu on e4
    * rotation: [e1,e2] = a e2 + b e3, [e1,e3] = -b e2 + a e3, mu on e4
    * aff:      g0 = aff(1), [e1,e2] = e2 = -[e2,e1], acting on (e3, e4) with
                weights (a+1, a) and [e2,e4] = e3, plus a random omega

    For the one-dimensional g0 kinds, [e1,e1] is a random nonzero vector of
    V, which makes omega nonzero.  All kinds are non-Lie, so iota2 never runs.
    """
    from leibrack.algebra import LeibnizAlgebra, ValidationError

    rng = random.Random(f"{kind}:{seed}")
    lam = lambda: rng.choice(_LAMBDAS)
    if kind == "diagonal":
        br = {(0, k): {k: lam()} for k in (1, 2, 3)}
    elif kind == "jordan":
        x = lam()
        br = {(0, 1): {1: x}, (0, 2): {1: 1, 2: x}, (0, 3): {3: lam()}}
    elif kind == "rotation":
        a = Fraction(rng.choice(("0", "1/2", "-1/2", "1")))
        b = Fraction(rng.choice(("1", "-1", "1/2", "2")))
        br = {(0, 1): {1: a, 2: b}, (0, 2): {1: -b, 2: a}, (0, 3): {3: lam()}}
    elif kind == "aff":
        a = rng.choice((1, 2))
        while True:
            br = {(0, 1): {1: 1}, (1, 0): {1: -1}, (0, 2): {2: a + 1},
                  (0, 3): {3: a}, (1, 3): {2: 1}}
            for pair in ((0, 0), (1, 1), (0, 1), (1, 0)):
                for k in (2, 3):
                    if rng.random() < 0.35:
                        br.setdefault(pair, {})[k] = 1
            try:
                alg = LeibnizAlgebra.from_brackets(4, br)
            except ValidationError:
                continue
            if any(alg.c[p][q][k] for p, q in itertools.product((0, 1), repeat=2)
                   for k in (2, 3)):
                return alg
    else:
        raise ValueError(f"unknown rho_semisimple kind {kind!r}")
    br[(0, 0)] = _random_center_vector(rng, (1, 2, 3))
    return LeibnizAlgebra.from_brackets(4, br)


def filiform(n: int, signs) -> "LeibnizAlgebra":
    """The filiform Lie algebra [e1,ek] = e_{k+1} in the basis s_i e_i."""
    from leibrack.algebra import LeibnizAlgebra

    br = {}
    for k in range(1, n - 1):
        c = signs[0] * signs[k] * signs[k + 1]
        br[(0, k)] = {k + 1: c}
        br[(k, 0)] = {k + 1: -c}
    return LeibnizAlgebra.from_brackets(n, br)


def filiform_signs(n: int, variant: int) -> list[int]:
    rng = random.Random(f"filiform:{n}:{variant}")
    return [rng.choice((1, -1)) for _ in range(n)]


def build(desc: dict):
    """The algebra a descriptor names (None for a CLI built-in)."""
    kind = desc["kind"]
    if kind == "builtin":
        return None
    if kind == "random_leibniz":
        from leibrack.corpus import random_leibniz
        return random_leibniz(desc["seed"])
    if kind == "corpus":
        from leibrack import corpus
        return getattr(corpus, desc["name"])()
    if kind == "rho_semisimple":
        return rho_semisimple(desc["family"], desc["seed"])
    if kind == "filiform":
        return filiform(desc["n"], desc["signs"])
    raise ValueError(f"unknown input kind {kind!r}")


def materialize(entries, directory) -> dict[str, str]:
    """Write the input file of every entry; returns entry id -> path."""
    from leibrack.fileio import write_algebra_file

    paths = {}
    for entry in entries:
        alg = build(entry["input"])
        if alg is not None:
            path = f"{directory}/{entry['id']}.leib"
            write_algebra_file(alg, path)
            paths[entry["id"]] = path
    return paths


def argvs(entry, paths) -> list[list[str]]:
    """The CLI argument lists of an entry, with its input file filled in."""
    return [[paths.get(entry["id"], "") if a == "{file}" else a for a in argv]
            for argv in entry["argv"]]
