"""The benchmark's tracer (``perfbench/tracer.py``) against this package:
installed from outside, it must wrap every binding of the functions it
traces and see every suite, so that no refactor can blind the benchmark's
per-layer metrics without a failing test.  Only reads ``perfbench/``."""

import sys
from pathlib import Path

from leibrack.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from tracer import SUITES, Tracer  # noqa: E402


def _traced(argv, capsys):
    """(exit code, unwrapped bindings, summary) of one report under a fresh tracer."""
    tracer = Tracer()
    tracer.install()
    try:
        code = main(argv)
        unwrapped = tracer.unwrapped_bindings()
    finally:
        tracer.uninstall()
    capsys.readouterr()
    return code, unwrapped, tracer.summary()


def test_the_tracer_wraps_every_binding_and_sees_every_suite(capsys):
    code, unwrapped, summary = _traced(["example", "heisenberg", "--samples", "10", "--json"],
                                       capsys)
    assert code == 0
    assert unwrapped == []
    # the i2 probe calls rack.i2 by name
    for name in [f"suites.{suite}.calls" for suite in SUITES] + ["rack.i2.calls",
                                                                "rack.iota2.calls"]:
        assert summary.get(name, 0) > 0, name
    # i2 reads g's split and no longer runs i1; the dim5 extra still calls it
    code, unwrapped, summary = _traced(["example", "dim5", "--samples", "10", "--json"], capsys)
    assert code == 0
    assert unwrapped == []
    assert summary.get("rack.i1.calls", 0) > 0
