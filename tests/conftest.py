import pytest

from gibbslab import gibbs, models, transfer


class Solved:
    def __init__(self, model, tol=1e-13):
        self.model = model
        self.space = model.space
        self.phi = model.potential
        self.psi = model.observable
        self.T = transfer.build(model.space, model.potential)
        self.E = transfer.dominant_eigendata(self.T, tol=tol)
        self.mu = gibbs.gibbs_measure(self.T, self.E)


@pytest.fixture
def solves(monkeypatch):
    """Every (T, E) that transfer.dominant_eigendata certifies during
    the test, in order."""
    record = []
    solve = transfer.dominant_eigendata

    def recorded(T, **kwargs):
        E = solve(T, **kwargs)
        record.append((T, E))
        return E

    monkeypatch.setattr(transfer, "dominant_eigendata", recorded)
    return record


@pytest.fixture(scope="session")
def bernoulli():
    return Solved(models.bernoulli(0.7))


@pytest.fixture(scope="session")
def ising():
    return Solved(models.ising(1.0, 0.0))


@pytest.fixture(scope="session")
def golden():
    return Solved(models.golden_mean(0.0))


@pytest.fixture(scope="session")
def builtin_triple(bernoulli, ising, golden):
    return {"bernoulli": bernoulli, "ising": ising, "golden-mean": golden}
