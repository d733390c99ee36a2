"""The benchmark's tracer (``perfbench/tracer.py``) against this package:
installed from outside, it must wrap every binding of the functions it
traces and see every suite, so that no refactor can blind the benchmark's
per-layer metrics without a failing test.  Only reads ``perfbench/``."""

import sys
from pathlib import Path

from leibrack.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from tracer import SUITES, Tracer  # noqa: E402


def test_the_tracer_wraps_every_binding_and_sees_every_suite(capsys):
    tracer = Tracer()
    tracer.install()
    try:
        code = main(["example", "heisenberg", "--samples", "10", "--json"])
        unwrapped = tracer.unwrapped_bindings()
    finally:
        tracer.uninstall()
    capsys.readouterr()
    summary = tracer.summary()
    assert code == 0
    assert unwrapped == []
    # i1 runs only inside i2 here: the tracer must still see it
    for name in [f"suites.{suite}.calls" for suite in SUITES] + ["rack.i1.calls",
                                                                "rack.i2.calls",
                                                                "rack.iota2.calls"]:
        assert summary.get(name, 0) > 0, name
