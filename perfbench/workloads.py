"""The four workloads: their candidate pools, and the per-seed selection.

A workload's pool is fixed when its references are captured
(``capture.py``); ``--seed`` then picks ``picks`` entries from every stratum
of the pool.  Strata group entries of about the same cost, so every seed
gets a pass of about the same size and the seed moves the inputs, not the
amount of work.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from inputs import FILIFORM_DIMS, RHO_KINDS, filiform_signs

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

RANDOM_POOL = 32        # random_leibniz algebras of dimension 4-5 kept
RANDOM_CANDIDATES = 40  # drawn; the first RANDOM_POOL that pass are kept
RANDOM_STRATA = 8       # cut by captured time in reference seconds


def _entry(id_, stratum, desc, *argvs):
    return {"id": id_, "stratum": stratum, "input": desc, "argv": [list(a) for a in argvs]}


def candidates(workload: str) -> dict:
    """The pool a workload is captured from.  ``stratify`` asks the capture
    to keep the first RANDOM_POOL entries of stratum "random" that pass and
    cut them into that many cost strata."""
    entries = []
    picks, stratify = 1, 0
    if workload == "leibniz_nilpotent":
        from leibrack.corpus import random_leibniz
        for k in range(8):
            entries.append(_entry(f"dim5-s{k}", "dim5", {"kind": "builtin", "name": "dim5"},
                                  ("example", "dim5", "--json", "--samples", "20",
                                   "--seed", str(k))))
        seed = 0
        while len(entries) < 8 + RANDOM_CANDIDATES:
            if random_leibniz(seed).dim >= 4:
                entries.append(_entry(f"rl{seed}", "random",
                                      {"kind": "random_leibniz", "seed": seed},
                                      ("integrate", "{file}", "--json", "--samples", "20",
                                       "--seed", str(seed))))
            seed += 1
        stratify = RANDOM_STRATA
    elif workload == "lie_iota2":
        for k in range(4):
            entries.append(_entry(f"heisenberg-s{k}", "heisenberg",
                                  {"kind": "builtin", "name": "heisenberg"},
                                  ("example", "heisenberg", "--json", "--samples", "10",
                                   "--seed", str(k))))
            for name in ("free_nilpotent5", "filiform5"):
                entries.append(_entry(f"{name}-s{k}", name, {"kind": "corpus", "name": name},
                                      ("integrate", "{file}", "--json", "--samples", "10",
                                       "--seed", str(k))))
    elif workload == "rho_semisimple":
        for kind in RHO_KINDS:
            for seed in range(8):
                entries.append(_entry(f"{kind}-{seed}", kind,
                                      {"kind": "rho_semisimple", "family": kind, "seed": seed},
                                      ("integrate", "{file}", "--json", "--samples", "20",
                                       "--seed", str(seed))))
        picks = 2
    elif workload == "exact_filiform":
        for n in FILIFORM_DIMS:
            for variant in range(6):
                entries.append(_entry(f"filiform{n}-v{variant}", f"n{n}",
                                      {"kind": "filiform", "n": n,
                                       "signs": filiform_signs(n, variant)},
                                      ("verify", "{file}", "--json"),
                                      ("analyze", "{file}", "--json")))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return {"workload": workload, "picks": picks,
            "stratify": stratify, "entries": entries}


def load_reference(workload: str) -> dict:
    path = REFERENCE_DIR / f"{workload}.json"
    if not path.is_file():
        raise SystemExit(f"no reference for workload {workload!r} ({path})")
    return json.loads(path.read_text())


def select(reference: dict, seed: int) -> list[dict]:
    """``picks`` entries from every stratum, in stratum order."""
    rng = random.Random(seed)
    strata: dict[str, list] = {}
    for entry in reference["entries"]:
        strata.setdefault(entry["stratum"], []).append(entry)
    chosen = []
    for members in strata.values():
        chosen += rng.sample(members, reference["picks"])
    return chosen
