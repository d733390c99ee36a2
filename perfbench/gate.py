"""Correctness gate: compare reports with the references captured at the
commit that defined the benchmark.

A reference is a fingerprint of the normalized report: the SHA-256 of its
canonical JSON, plus the verdict and each property's sample and skip counts
so that a mismatch can be described.  Normalizing sets aside the float
``max_defect`` values and the floats of ``i2_probe``, so a change in
rounding is not a mismatch; verdicts, pass flags, sample and skip counts
and the whole exact analysis must match.  The input's file path is reduced
to its name, because the inputs live in a temporary directory.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import os


def _drop_floats(value):
    if isinstance(value, float):
        return None
    if isinstance(value, list):
        return [_drop_floats(v) for v in value]
    if isinstance(value, dict):
        return {k: _drop_floats(v) for k, v in value.items()}
    return value


def normalize(report: dict) -> dict:
    out = copy.deepcopy(report)
    if "source" in out:
        out["source"] = os.path.basename(out["source"])
    for prop in out.get("properties", []):
        prop["max_defect"] = None
    if "i2_probe" in out:
        out["i2_probe"] = _drop_floats(out["i2_probe"])
    return out


def fingerprint(report: dict) -> dict:
    norm = normalize(report)
    canonical = json.dumps(norm, sort_keys=True, separators=(",", ":"))
    return {"digest": hashlib.sha256(canonical.encode()).hexdigest(),
            "verdict": norm.get("verdict"),
            "properties": [[p["name"], p["samples"], p["skipped"], p["pass"]]
                           for p in norm.get("properties", [])]}


def mismatch(reference: dict, report: dict) -> str | None:
    """None if the report matches its reference, else what differs."""
    got = fingerprint(report)
    if got["digest"] == reference["digest"]:
        return None
    for key in ("verdict", "properties"):
        if got[key] != reference[key]:
            return f"{key} {got[key]} != reference {reference[key]}"
    return "exact analysis or another reported field differs"


def headroom_dex(report: dict) -> float | None:
    """min over float properties of log10(tolerance / max_defect); a
    property with zero defect has unbounded headroom and is left out."""
    values = [math.log10(p["tolerance"] / p["max_defect"])
              for p in report.get("properties", []) if p["max_defect"] > 0]
    return min(values) if values else None


def self_check(reference: dict, report: dict) -> None:
    """On copies of a report that matches its reference, show that the gate
    accepts a changed max_defect and rejects a single altered skip count
    (or, for a report without properties, one altered exact count)."""
    same = copy.deepcopy(report)
    altered = copy.deepcopy(report)
    if report.get("properties"):
        same["properties"][0]["max_defect"] = 1.25e-13
        altered["properties"][0]["skipped"] += 1
    else:
        altered["exact_checks"]["center_dim"] += 1
    if mismatch(reference, same) is not None:
        raise SystemExit("gate self-check: a set-aside float counted as a mismatch")
    if mismatch(reference, altered) is None:
        raise SystemExit("gate self-check: an altered count was not caught")
