import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "default",
    max_examples=40,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def matvec_calls(monkeypatch):
    """One entry per data product A x the losses make while the test runs."""
    import sepqn.problems as problems_mod

    calls = []
    real = problems_mod._matvec

    def counting(data, x):
        calls.append(1)
        return real(data, x)

    monkeypatch.setattr(problems_mod, "_matvec", counting)
    return calls
