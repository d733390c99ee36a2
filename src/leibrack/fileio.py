"""The .leib algebra file format: JSON with exact rational coefficients.

    {
      "dim": 5,
      "basis": ["e1", "e2", "e3", "e4", "e5"],   // optional
      "brackets": [
        {"left": 0, "right": 1, "value": {"2": "1"}},
        {"left": 0, "right": 2, "value": {"3": "1/2"}}
      ]
    }

Indices are 0-based; omitted pairs mean a zero bracket; coefficients are
integers or "p/q" strings (never floats, so exact input stays exact).
``dim``, ``left`` and ``right`` must be JSON integers: a float, a string or
``true``/``false`` is a ParseError, never truncated or coerced, and so is a
boolean coefficient or a ``value`` key other than decimal digits.  ``dim`` may be at most ``MAX_DIM``: the structure
constants take dim^3 exact entries and the exact layer grows steeply with
the dimension, so a larger file is rejected before anything is allocated.
A file that is not UTF-8, nests too deeply for the JSON reader or holds a
number past Python's integer digit limit is a ParseError too.  Nothing is
merged silently: a key repeated in any JSON object (which ``json.loads``
would read as its last value), a second entry for the same (left, right)
pair, an index given twice in one ``value`` (as "1" and "01") and a
repeated basis name are ParseErrors.
Serialization is canonical (sorted, minimal) so parse/serialize round-trips
are byte-stable.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from .algebra import LeibnizAlgebra


MAX_DIM = 32
"""Largest accepted ``dim``; checked before the dim^3 structure constants
are allocated."""


class ParseError(ValueError):
    """Malformed algebra file."""


def _is_int(value) -> bool:
    """A JSON integer: int but not bool (bool is a subclass of int)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _unique_keys(pairs: list) -> dict:
    """``object_pairs_hook`` for json.loads: a dict, or a ParseError on a
    repeated key."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ParseError(f"duplicate key {key!r}")
        doc[key] = value
    return doc


def algebra_to_dict(alg: LeibnizAlgebra) -> dict:
    brackets = []
    for i in range(alg.dim):
        for j in range(alg.dim):
            value = {str(k): str(c) for k, c in enumerate(alg.c[i][j]) if c != 0}
            if value:
                brackets.append({"left": i, "right": j, "value": value})
    return {"dim": alg.dim, "basis": list(alg.basis_names), "brackets": brackets}


def algebra_from_dict(doc: dict) -> LeibnizAlgebra:
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")
    dim = doc.get("dim")
    if not _is_int(dim):
        raise ParseError(f"'dim' must be a JSON integer; got {dim!r}")
    if dim < 1:
        raise ParseError("'dim' must be a positive integer")
    if dim > MAX_DIM:
        raise ParseError(f"'dim' is {dim}; at most MAX_DIM = {MAX_DIM} is accepted")
    basis = doc.get("basis")
    if basis is not None:
        if not isinstance(basis, list) or len(basis) != dim or \
                not all(isinstance(b, str) for b in basis):
            raise ParseError("'basis' must list one name per dimension")
        if len(set(basis)) != dim:
            raise ParseError("'basis' repeats a name")
    entries = doc.get("brackets", [])
    if not isinstance(entries, list):
        raise ParseError("'brackets' must be a list")
    c = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
    seen = set()
    for pos, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ParseError(f"brackets[{pos}] must be an object")
        i, j, value = entry.get("left"), entry.get("right"), entry.get("value")
        if not (_is_int(i) and _is_int(j)) or value is None:
            raise ParseError(f"brackets[{pos}] needs integer 'left'/'right' and a 'value'")
        if not (0 <= i < dim and 0 <= j < dim):
            raise ParseError(f"brackets[{pos}]: index out of range")
        if (i, j) in seen:
            raise ParseError(f"brackets[{pos}]: a second entry for ({i}, {j})")
        seen.add((i, j))
        if not isinstance(value, dict):
            raise ParseError(f"brackets[{pos}]: 'value' must map indices to coefficients")
        ks = set()
        for key, coeff in value.items():
            # int() alone would also read " 2" and "1_1"
            if not (isinstance(key, str) and key.isascii() and key.isdigit()):
                raise ParseError(f"brackets[{pos}]: bad index {key!r}")
            k = int(key)
            if not 0 <= k < dim:
                raise ParseError(f"brackets[{pos}]: index {k} out of range")
            if k in ks:
                raise ParseError(f"brackets[{pos}]: index {k} given twice")
            ks.add(k)
            if isinstance(coeff, (float, bool)):
                raise ParseError(f"brackets[{pos}]: {coeff!r} not accepted, "
                                 "use integer or 'p/q' strings")
            try:
                c[i][j][k] = Fraction(coeff)
            except (ValueError, TypeError, ZeroDivisionError):
                raise ParseError(f"brackets[{pos}]: bad coefficient {coeff!r}") from None
    # a ValidationError from the Leibniz check propagates unchanged
    return LeibnizAlgebra.from_structure(c, basis_names=basis)


def parse_algebra_file(path) -> LeibnizAlgebra:
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 ({exc.reason} at byte {exc.start})") from None
    try:
        doc = json.loads(raw, object_pairs_hook=_unique_keys)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from None
    except (ValueError, RecursionError) as exc:
        # ValueError: a JSONDecodeError or an integer past Python's digit limit
        raise ParseError(f"{path}: unreadable JSON ({exc})") from None
    return algebra_from_dict(doc)


def write_algebra_file(alg: LeibnizAlgebra, path) -> None:
    Path(path).write_text(json.dumps(algebra_to_dict(alg), indent=2) + "\n")
