"""The benchmark's reference reports as a tier-1 check: every entry of the
four workloads, the three float workloads and every stratum of the exact
one, each report run in-process and compared with its captured fingerprint
by the benchmark's own gate (``perfbench/gate.py``), so the benchmark's
correctness gate holds for every seed's selection.  Only reads
``perfbench/``."""

import json
import sys
from pathlib import Path

import pytest

from leibrack.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import gate  # noqa: E402
import inputs  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("leibniz_nilpotent", "lie_iota2", "rho_semisimple", "exact_filiform")


def _entries():
    return [pytest.param(entry, id=f"{name}/{entry['id']}") for name in WORKLOADS
            for entry in workloads.load_reference(name)["entries"]]


@pytest.mark.parametrize("entry", _entries())
def test_reference_report_matches(entry, tmp_path, capsys):
    paths = inputs.materialize([entry], str(tmp_path))
    for argv, reference in zip(inputs.argvs(entry, paths), entry["reports"], strict=True):
        code = main(argv)
        report = json.loads(capsys.readouterr().out)
        assert code == 0, report.get("verdict")
        assert gate.mismatch(reference, report) is None, gate.mismatch(reference, report)

