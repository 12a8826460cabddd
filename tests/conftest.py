import numpy as np
import pytest

import sumlearn.summaries
from sumlearn.data import ClinicalBatch
from sumlearn.summaries import SummaryParams

# one line per acceptance criterion, echoed after the test summary
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


# Worked fixtures for the summary operations: T = 4, one variable.
FIX_A = (np.array([1.0, 2.0, 3.0, 4.0]), np.ones(4), np.ones(4))
FIX_B = (np.array([1.0, 2.0, 3.0, 4.0]), np.ones(4),
         np.array([0.0, 0.0, 1.0, 1.0]))
FIX_C = (np.array([1.0, 2.0, 3.0, 4.0]), np.array([1.0, 0.0, 1.0, 1.0]),
         np.ones(4))


def random_batch(rng, n=8, d=3, t=12, p_obs=0.8):
    """A small random ClinicalBatch in normalized units."""
    X = rng.standard_normal((n, d, t))
    M = (rng.random((n, d, t)) < p_obs).astype(float)
    S = rng.standard_normal((n, 2))
    y = (rng.random(n) < 0.4).astype(float)
    return ClinicalBatch(
        X, M, S, y,
        [f"p{i}" for i in range(n)],
        [f"var{j}" for j in range(d)],
        ["s0", "s1"],
    )


def full_window_params(d, i=12, t=12, tau=0.1):
    return SummaryParams(
        C=np.full((d, i), float(t)),
        phi_plus=np.ones(d),
        phi_minus=-np.ones(d),
        tau_temp=tau,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def kernel_calls(monkeypatch):
    """The ``tangent`` argument of every summary_blocks call from here on,
    counted at the ``sumlearn.summaries`` binding, the only one through
    which the rest of the package reaches the kernel."""
    kernel = sumlearn.summaries.summary_blocks
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs.get("tangent", False))
        return kernel(*args, **kwargs)

    monkeypatch.setattr(sumlearn.summaries, "summary_blocks", counted)
    return calls
