import os
import tempfile

import numpy as np
import pytest

from ymspec.algebra import build_algebra
from ymspec.lattice import LatticeSpec
from ymspec.spectrum import ModelSpec

from oracles import safe_hamiltonian

# Hypothesis caches source constants and unicode tables on disk even with
# database=None, from test collection on; keep that cache out of the tree
os.environ.setdefault(
    "HYPOTHESIS_STORAGE_DIRECTORY",
    os.path.join(tempfile.gettempdir(), "ymspec-hypothesis"),
)


@pytest.fixture(scope="session")
def su2():
    return build_algebra("su2")


@pytest.fixture(scope="session")
def su3():
    return build_algebra("su3")


@pytest.fixture(scope="session")
def so4():
    return build_algebra("so4")


@pytest.fixture(scope="session")
def lat8():
    return LatticeSpec(n=8, spacing=0.7)


@pytest.fixture(scope="session")
def lat4():
    return LatticeSpec(n=4, spacing=1.0)


@pytest.fixture
def rng():
    return np.random.default_rng(20240801)


@pytest.fixture(scope="session")
def su2_model_nmax8():
    return ModelSpec(algebra="su2", N_max=8, n_max=5)


# the whole H on the whole safe basis, every weight sector included; the
# spectrum path quantizes only the rows it solves
@pytest.fixture(scope="session")
def su2_hamiltonian_nmax8(su2_model_nmax8):
    return safe_hamiltonian(su2_model_nmax8)


@pytest.fixture(scope="session")
def su2_hamiltonian_nmax10(su2_model_nmax8):
    return safe_hamiltonian(su2_model_nmax8, N_max=10)
