import pytest

from pvireduce import Hyperparams, curriculum, generate_synthetic, pvi, reduction


@pytest.fixture(scope="session")
def synth_train():
    return generate_synthetic(5000, 3, (0.5, 0.3, 0.2), seed=1)


@pytest.fixture(scope="session")
def synth_test():
    return generate_synthetic(1000, 3, (0.5, 0.3, 0.2), seed=2)


@pytest.fixture(scope="session")
def small_train():
    return generate_synthetic(300, 3, (0.5, 0.3, 0.2), seed=11)


@pytest.fixture(scope="session")
def small_test():
    return generate_synthetic(120, 3, (0.5, 0.3, 0.2), seed=12)


@pytest.fixture
def hp():
    return Hyperparams()


@pytest.fixture
def fast_hp():
    # cheap settings for tests that only need mechanics, not convergence
    return Hyperparams(epochs=2)


@pytest.fixture
def sorts(monkeypatch):
    """The record count of every call to pvi._rank, the one difficulty sort, in call order."""
    calls = []
    real = pvi._rank

    def counting(records):
        calls.append(len(records))
        return real(records)

    for module in (pvi, reduction, curriculum):
        monkeypatch.setattr(module, "_rank", counting)
    return calls
