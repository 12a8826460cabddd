import math
from functools import partial

import numpy as np
import pytest

import sumlearn.summaries
from sumlearn.data import (SERIES_HEADER, ClinicalBatch, _Coder, _codes, _names,
                           _read_rows, _Series)
from sumlearn.errors import ConflictError, ParseError, RangeError, SchemaError
from sumlearn.summaries import (
    EVER_MEASURED,
    FIRST_MEASURED,
    FRAC_ABOVE,
    FRAC_BELOW,
    INDICATOR_MEAN,
    INDICATOR_VARIANCE,
    LAST_MEASURED,
    MEAN,
    N_SUMMARIES,
    SLOPE,
    SLOPE_STDERR,
    SWITCH_COUNT,
    VARIANCE,
    SummaryParams,
)

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


def _view(i, X, M, w=1.0, phi=0.0, tau_temp=1.0):
    """Summary i of the production kernel for broadcastable (..., T)
    inputs; phi is the threshold of whichever threshold summary i is."""
    X, M, w = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (X, M, w)))
    shape, T = X.shape[:-1], X.shape[-1]
    # every leading index becomes a variable of a one-example batch
    phi = np.broadcast_to(phi, shape).reshape(-1)
    W = np.repeat(w.reshape(-1, 1, T), N_SUMMARIES, axis=1)
    H = sumlearn.summaries.summary_blocks(
        X.reshape(1, -1, T), M.reshape(1, -1, T), W, phi, phi, tau_temp)[0]
    return H[0, :, i].reshape(shape)[()]


def _mask_view(i, M, w=1.0, tau_temp=1.0):
    return _view(i, M, M, w, tau_temp=tau_temp)


# One summary at a time: s_frac_above(X, M, w, phi_plus, tau_temp),
# s_ever_measured(M, w, tau_temp), s_first_measured(M), ...
s_mean, s_variance, s_frac_above, s_frac_below, s_slope = (
    partial(_view, i) for i in (MEAN, VARIANCE, FRAC_ABOVE, FRAC_BELOW, SLOPE)
)
(s_ever_measured, s_indicator_mean, s_indicator_variance, s_switch_count,
 s_first_measured, s_last_measured, s_slope_stderr) = (
    partial(_mask_view, i)
    for i in (EVER_MEASURED, INDICATOR_MEAN, INDICATOR_VARIANCE, SWITCH_COUNT,
              FIRST_MEASURED, LAST_MEASURED, SLOPE_STDERR)
)


def read_series_rows(path, T, fixed):
    """The rows of ``timeseries.csv`` read and checked one by one, so that
    the first bad row raises the error that names it: the reference that
    ``sumlearn.data._read_series``, which reads in chunks, must agree with."""
    line_of = {}  # (pid, var, hour) -> line
    values = []
    rows = _read_rows(path, SERIES_HEADER)
    next(rows)  # the header
    for line_no, row in rows:
        pid, var = row[0].strip(), row[1].strip()
        try:
            hour = int(row[2])
        except ValueError:
            raise ParseError(f"bad hour {row[2]!r}", line=line_no) from None
        try:
            value = float(row[3])
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise ParseError(f"bad value {row[3]!r} (not a finite number)",
                             line=line_no)
        if not 1 <= hour <= T:
            raise RangeError(
                f"line {line_no}: hour {hour} outside [1, {T}] for patient {pid}"
            )
        if fixed is not None and var not in fixed:
            raise SchemaError(f"line {line_no}: unknown variable {var!r}")
        key = (pid, var, hour)
        if key in line_of:
            raise ConflictError(
                f"duplicate ({pid}, {var}, {hour}) at lines "
                f"{line_of[key]} and {line_no}"
            )
        line_of[key] = line_no
        values.append(value)
    pids, variables, hours = zip(*line_of) if line_of else ((), (), ())
    code_of = (_Coder(), _Coder())
    return _Series(*_names(code_of[0], _codes(pids, code_of[0])),
                   *_names(code_of[1], _codes(variables, code_of[1])),
                   np.array(hours, dtype=np.int64), np.array(values, dtype=float))


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
