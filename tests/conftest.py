import os
import sys
from pathlib import Path

import pytest

from segrechains import new_manifold

# Subprocesses started by tests (the CLI, the demos) import the package from
# this checkout too, as pytest's `pythonpath` setting does for the tests.
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (str(Path(__file__).resolve().parents[1] / "src"),
                os.environ.get("PYTHONPATH")) if p
)


@pytest.fixture(scope="session")
def heisenberg():
    return new_manifold(1, 1, ["w1*zeta1"])


@pytest.fixture(scope="session")
def levi_flat():
    return new_manifold(1, 1, ["0"])


@pytest.fixture(scope="session")
def quartic():
    """The degenerate hypersurface z = conj(z) + i w^2 conj(w)^2."""
    return new_manifold(1, 1, ["w1^2*zeta1^2"])


@pytest.fixture(scope="session")
def c3_tube():
    return new_manifold(1, 2, ["w1*zeta1", "w1^2*zeta1 + w1*zeta1^2"])


@pytest.fixture
def digit_limit():
    """The interpreter's default str -> int digit limit (4,300), set for one
    test whatever PYTHONINTMAXSTRDIGITS says."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no str -> int digit limit")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(old)
