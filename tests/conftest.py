import numpy as np
import pytest

from gmeasure import (
    FiniteMemoryModel,
    LongRangeLinearModel,
    PowerLaw,
    binary_alphabet,
    iid_model,
)
from gmeasure import coupling
from oracles import spawned_uniforms


@pytest.fixture(scope="session")
def alphabet():
    return binary_alphabet()


@pytest.fixture(scope="session")
def iid(alphabet):
    return iid_model(alphabet, (0.3, 0.7))


@pytest.fixture(scope="session")
def mem1(alphabet):
    # memory-1 table: P(x0 = s | x1 = c)
    return FiniteMemoryModel(
        alphabet, 1, {"00": 0.3, "10": 0.7, "01": 0.6, "11": 0.4}
    )


@pytest.fixture(scope="session")
def longrange(alphabet):
    # theta = 1/4, power-law decay k**-2 with total coefficient mass 1/2
    return LongRangeLinearModel(
        alphabet, 0.25, PowerLaw.from_mass(2.0, 0.5)
    )


def random_positive_table(alphabet, memory, rng):
    size = alphabet.size
    raw = rng.uniform(0.05, 1.0, size=(size, size**memory))
    return (raw / raw.sum(axis=0)).reshape(-1)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def use_spawned_stream(monkeypatch, seed, n_traj, depth):
    """Make the sampler read the per-trajectory stream of ``spawned_uniforms``
    in place of windows of one stream: each batch ``_couple`` draws gets the
    spawned rows of its trajectories, so only the uniforms change."""
    rows, start = spawned_uniforms(seed, n_traj, depth), 0
    couple = coupling._couple

    def spawned_couple(run, uniforms):
        nonlocal start
        start += len(uniforms)
        return couple(run, rows[start - len(uniforms) : start])

    monkeypatch.setattr(coupling, "_couple", spawned_couple)
