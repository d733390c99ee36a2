"""The benchmark's reference reports as a tier-1 check: the seed-0 selection
of the three float workloads, each report run in-process and compared with
its captured fingerprint by the benchmark's own gate (``perfbench/gate.py``).
Only reads ``perfbench/``."""

import json
import sys
from pathlib import Path

import pytest

from leibrack.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import gate  # noqa: E402
import inputs  # noqa: E402
import workloads  # noqa: E402

FLOAT_WORKLOADS = ("leibniz_nilpotent", "lie_iota2", "rho_semisimple")


def _selected():
    return [pytest.param(entry, id=f"{name}/{entry['id']}")
            for name in FLOAT_WORKLOADS
            for entry in workloads.select(workloads.load_reference(name), 0)]


@pytest.mark.parametrize("entry", _selected())
def test_reference_report_matches(entry, tmp_path, capsys):
    paths = inputs.materialize([entry], str(tmp_path))
    for argv, reference in zip(inputs.argvs(entry, paths), entry["reports"], strict=True):
        code = main(argv)
        report = json.loads(capsys.readouterr().out)
        assert code == 0, report.get("verdict")
        assert gate.mismatch(reference, report) is None, gate.mismatch(reference, report)
