import os

# one BLAS thread, as the benchmark and tools/report_digests.py pin it, so
# that the tests' wall time does not depend on other load on the machine;
# set before anything imports numpy, which reads these once
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import pytest  # noqa: E402

from leibrack.algebra import canonical_extension  # noqa: E402
from leibrack.corpus import abelian3, dim5, heisenberg  # noqa: E402
from leibrack.rack import build_rack_system  # noqa: E402


@pytest.fixture(scope="session")
def dim5_ext():
    return canonical_extension(dim5())


@pytest.fixture(scope="session")
def heis_ext():
    return canonical_extension(heisenberg())


@pytest.fixture(scope="session")
def abelian_ext():
    return canonical_extension(abelian3())


@pytest.fixture(scope="session")
def dim5_sys(dim5_ext):
    return build_rack_system(dim5_ext, chart_radius=0.5)


@pytest.fixture(scope="session")
def dim5_sys_wide(dim5_ext):
    # the realized G0 is unipotent, so log_float sums its finite series at
    # any radius, unless rounding hides the nilpotency of g - I and sends g
    # to the convergent series, gated at ||g - I|| < 1
    return build_rack_system(dim5_ext, chart_radius=8.0)


@pytest.fixture(scope="session")
def heis_sys(heis_ext):
    return build_rack_system(heis_ext, chart_radius=0.5)
