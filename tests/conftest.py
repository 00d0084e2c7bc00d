import os
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
