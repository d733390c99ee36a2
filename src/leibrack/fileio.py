"""The .leib algebra file format: JSON with exact rational coefficients.

    {
      "dim": 5,
      "basis": ["e1", "e2", "e3", "e4", "e5"],   // optional
      "brackets": [
        {"left": 0, "right": 1, "value": {"2": "1"}},
        {"left": 0, "right": 2, "value": {"3": "1/2"}}
      ]
    }

Indices are 0-based; omitted pairs mean a zero bracket.  A coefficient is
a JSON integer or an ASCII string of the form ``-?digits`` or
``-?digits/digits``, as ``algebra_to_dict`` writes them; anything else (a
float or a boolean, a string with an exponent, a decimal point, a sign
``+``, whitespace or a non-ASCII digit) is a ParseError, so exact input
stays exact and every coefficient is held to the integer digit limit
below.
Any key but ``dim``, ``basis`` and ``brackets`` at the top level, or
``left``, ``right`` and ``value`` in an entry, is a ParseError.
``dim``, ``left`` and ``right`` must be JSON integers: a float, a string or
``true``/``false`` is a ParseError, never truncated or coerced, and so is a
``value`` key other than decimal digits.  ``dim``
may be at most ``MAX_DIM``, checked before any bracket is read.
A file that is not UTF-8, nests too deeply for the JSON reader or holds a
number past Python's integer digit limit is a ParseError too.  Nothing is
merged silently: a key repeated in any JSON object (which ``json.loads``
would read as its last value), a second entry for the same (left, right)
pair, an index given twice in one ``value`` (as "1" and "01") and a
repeated basis name are ParseErrors.  A message that repeats a value from
the file shows at most its first 40 characters and its length.
Serialization is canonical (sorted, minimal) so parse/serialize round-trips
are byte-stable.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from pathlib import Path

from .algebra import LeibnizAlgebra


MAX_DIM = 32
"""Largest accepted ``dim``: ``validate_leibniz`` walks all dim^3 basis
triples, and the float suites grow steeply with the dimension."""


_COEFF = re.compile(r"-?[0-9]+(/[0-9]+)?")
"""The coefficient strings accepted (with ``fullmatch``)."""


class ParseError(ValueError):
    """Malformed algebra file."""


def _known_keys(doc: dict, keys: tuple, where: str) -> None:
    """A ParseError naming the first key of doc not in keys."""
    extra = [key for key in doc if key not in keys]
    if extra:
        raise ParseError(f"{where}unknown key {_shown(extra[0])}; expected only {keys}")


def _shown(value, limit: int = 40) -> str:
    """repr(value) for an error message, cut to its first limit characters
    and its length when longer, so a hostile value does not fill it."""
    text = repr(value)
    return text if len(text) <= limit else f"{text[:limit]}... ({len(text)} characters)"


def _is_int(value) -> bool:
    """A JSON integer: int but not bool (bool is a subclass of int)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _unique_keys(pairs: list) -> dict:
    """``object_pairs_hook`` for json.loads: a dict, or a ParseError on a
    repeated key."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ParseError(f"duplicate key {_shown(key)}")
        doc[key] = value
    return doc


def algebra_to_dict(alg: LeibnizAlgebra) -> dict:
    brackets = [{"left": i, "right": j, "value": {str(k): str(c) for k, c in t}}
                for i, row in enumerate(alg.terms) for j, t in enumerate(row) if t]
    return {"dim": alg.dim, "basis": list(alg.basis_names), "brackets": brackets}


def algebra_from_dict(doc: dict) -> LeibnizAlgebra:
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")
    _known_keys(doc, ("dim", "basis", "brackets"), "")
    dim = doc.get("dim")
    if not _is_int(dim):
        raise ParseError(f"'dim' must be a JSON integer; got {_shown(dim)}")
    if dim < 1:
        raise ParseError("'dim' must be a positive integer")
    if dim > MAX_DIM:
        raise ParseError(f"'dim' is {_shown(dim)}; at most MAX_DIM = {MAX_DIM} is accepted")
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
    terms = []
    seen = set()
    for pos, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ParseError(f"brackets[{pos}] must be an object")
        _known_keys(entry, ("left", "right", "value"), f"brackets[{pos}]: ")
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
            # int() alone would also read " 2" and "1_1", and raises past
            # Python's integer digit limit
            if not (isinstance(key, str) and key.isascii() and key.isdigit()):
                raise ParseError(f"brackets[{pos}]: bad index {_shown(key)}")
            try:
                k = int(key)
            except ValueError:
                raise ParseError(f"brackets[{pos}]: bad index {_shown(key)}") from None
            if not 0 <= k < dim:
                raise ParseError(f"brackets[{pos}]: index {_shown(k)} out of range")
            if k in ks:
                raise ParseError(f"brackets[{pos}]: index {k} given twice")
            ks.add(k)
            if not (_is_int(coeff) or isinstance(coeff, str) and _COEFF.fullmatch(coeff)):
                raise ParseError(f"brackets[{pos}]: {_shown(coeff)} not accepted, "
                                 "use integer or 'p/q' strings")
            try:
                terms.append((i, j, k, Fraction(coeff)))
            except (ValueError, ZeroDivisionError):
                # a zero denominator, or digits past Python's integer digit limit
                raise ParseError(f"brackets[{pos}]: bad coefficient {_shown(coeff)}") from None
    # a ValidationError from the Leibniz check propagates unchanged
    return LeibnizAlgebra.from_terms(dim, terms, basis_names=basis)


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
