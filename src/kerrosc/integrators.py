"""Quadrature and ODE integration shared by the solvers.

Every integral in the package runs on one Gauss-Legendre panel kernel,
`_panel_quadrature`; the Dormand-Prince 5(4) stepper serves only the
dense-matrix Schrodinger integrator.  Both budget tol**2 per unit time,
floored at 1e-13 near the rounding noise of their estimates, so below tol of
about 3.2e-7 a smaller tol changes nothing; the stepper then logs both
budgets at DEBUG on the ``kerrosc`` logger.  Its cubic-Hermite dense output
streams to the sample times without storing the steps.
"""

from __future__ import annotations

import functools
import logging
from typing import Callable

import numpy as np

__all__ = ["StepSizeError", "integrate_adaptive"]


class StepSizeError(RuntimeError):
    """Step control collapsed; carries the time at which it happened."""

    def __init__(self, message: str, t: float):
        super().__init__(message)
        self.t = t


# Dormand-Prince 5(4) tableau (FSAL: the 7th stage is f at the new point).
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                -92097 / 339200, 187 / 2100, 1 / 40])
_ERR = _B5 - _B4

logger = logging.getLogger(__name__)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
# Budget floor keeps the per-unit-step target above the rounding noise of the
# embedded estimate for state norms of order one.
_BUDGET_FLOOR = 1e-13
_GL_NODES = 8  # Gauss-Legendre nodes per quadrature panel
_PANEL_CAP = 1 << 10  # panels per interval, and per unit time beyond one
_CHUNK_NODES = 1 << 14  # integrand samples per evaluation


def _hermite(theta, y0, y1, f0, f1, h):
    t2 = theta * theta
    t3 = t2 * theta
    return ((2 * t3 - 3 * t2 + 1) * y0
            + (t3 - 2 * t2 + theta) * h * f0
            + (-2 * t3 + 3 * t2) * y1
            + (t3 - t2) * h * f1)


def integrate_adaptive(
    rhs: Callable[[float, np.ndarray], np.ndarray],
    y0: np.ndarray,
    t0: float,
    t_end: float,
    tol: float,
    sample_times: np.ndarray | None = None,
    max_steps: int = 20_000_000,
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate y' = rhs(t, y) from t0 to t_end with local error <= tol.

    Parameters
    ----------
    rhs : callable
        Right-hand side returning an ndarray of the same shape as y.
    y0 : ndarray
        Initial state (complex or real).
    t0, t_end : float
        Integration window, t_end >= t0.
    tol : float
        Tolerance; the accepted error per unit step is tol**2 (floored at
        1e-13) relative to the state norm.
    sample_times : ndarray, optional
        Sorted times in [t0, t_end] at which the solution is interpolated.
        Defaults to just (t0, t_end).

    Returns
    -------
    (times, states)
        The sample times and an array of shape (len(times), len(y0)).
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if t_end < t0:
        raise ValueError("t_end must not precede t0")
    y = np.array(y0, dtype=np.complex128)
    if sample_times is None:
        sample_times = np.array([t0, t_end])
    else:
        sample_times = np.asarray(sample_times, dtype=float)
        if sample_times.size and (sample_times[0] < t0 - 1e-12
                                  or sample_times[-1] > t_end + 1e-12):
            raise ValueError("sample times outside the integration window")
    out = np.empty((sample_times.size, y.size), dtype=np.complex128)
    next_sample = 0
    while next_sample < sample_times.size and sample_times[next_sample] <= t0:
        out[next_sample] = y
        next_sample += 1

    if t_end == t0:
        return sample_times, out

    budget = max(tol * tol, _BUDGET_FLOOR)
    if budget > tol * tol:
        logger.debug("integrate_adaptive: budget tol**2 = %.3g per unit step "
                     "is below the floor; using %.3g", tol * tol, budget)
    span = t_end - t0
    t = t0
    f = rhs(t, y)
    scale = np.linalg.norm(f) / max(np.linalg.norm(y), 1.0)
    h = min(span, 1e-2 / max(scale, 1e-8), span * 1e-3 + 1e-12)
    h_min = span * 1e-14

    k = np.empty((7, y.size), dtype=np.complex128)
    steps = 0
    while t < t_end:
        if steps >= max_steps:
            raise StepSizeError(f"step budget exhausted at t={t:.6g}", t)
        steps += 1
        h = min(h, t_end - t)
        if h < h_min:
            raise StepSizeError(f"step size underflow at t={t:.6g}", t)
        k[0] = f
        for i in range(1, 7):
            yi = y + h * (k[:i].T @ _A[i])
            k[i] = rhs(t + _C[i] * h, yi)
        y_new = y + h * (k.T @ _B5)
        err_vec = h * (k.T @ _ERR)
        scale = max(np.linalg.norm(y), np.linalg.norm(y_new), 1.0)
        err = np.linalg.norm(err_vec) / scale

        if err <= budget * h:
            t_new = t + h
            f_new = k[6].copy()  # FSAL; copy, the stage array is reused
            while (next_sample < sample_times.size
                   and sample_times[next_sample] <= t_new + 1e-15):
                s = min(sample_times[next_sample], t_new)
                theta = (s - t) / h
                out[next_sample] = _hermite(theta, y, y_new, f, f_new, h)
                next_sample += 1
            t, y, f = t_new, y_new, f_new
            if err == 0.0:
                factor = _MAX_FACTOR
            else:
                factor = min(_MAX_FACTOR,
                             _SAFETY * (budget * h / err) ** 0.25)
            h *= max(factor, _MIN_FACTOR)
        else:
            h *= max(_MIN_FACTOR, _SAFETY * (budget * h / err) ** 0.25)

    while next_sample < sample_times.size:
        out[next_sample] = y
        next_sample += 1
    return sample_times, out


@functools.cache
def _legendre_rule() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, 1], and the matrix whose row j
    integrates the interpolant of the node values from 0 to node j."""
    from numpy.polynomial import legendre  # lazy: not loaded by numpy
    x, w = legendre.leggauss(_GL_NODES)
    to_node = legendre.legval(x, legendre.legint(np.eye(_GL_NODES), lbnd=-1))
    matrix = np.linalg.solve(legendre.legvander(x, _GL_NODES - 1).T, to_node)
    rule = (0.5 * (x + 1.0), 0.5 * w, 0.5 * matrix.T)
    for arr in rule:
        arr.flags.writeable = False
    return rule


def _panel_quadrature(f, starts, ends, tol: float) -> np.ndarray:
    """Integrals, shaped (..., intervals), of f over each [start, end].

    f(t, running) gets node times t, shaped (intervals, panels, nodes), and
    returns integrands shaped like t, or several stacked on a first axis;
    running(v) integrates node values v from the interval's start to each
    node.  Panels double until each total moves by at most max(tol**2, 1e-13)
    per unit time, or relative to its size where that is larger; past 1024
    panels, or 1024 per unit time, StepSizeError gives the interval's start.
    """
    nodes, weights, matrix = _legendre_rule()
    budget = max(tol * tol, _BUDGET_FLOOR)
    starts = np.asarray(starts, dtype=float)
    spans = np.asarray(ends, dtype=float) - starts
    if np.any(spans < 0.0):
        raise ValueError("interval end precedes its start")
    out, todo, panels = None, np.arange(spans.size), 1
    while todo.size:
        over = todo[panels > np.maximum(_PANEL_CAP, _PANEL_CAP * spans[todo])]
        if over.size:
            t = float(starts[over[0]])
            raise StepSizeError(f"quadrature budget missed at t={t:.6g}", t)
        parts = []
        block = max(1, _CHUNK_NODES // (panels * _GL_NODES))
        for lo in range(0, todo.size, block):
            idx = todo[lo:lo + block]
            h = (spans[idx] / panels)[:, None, None]

            def running(v):
                vh = h * v
                panel = vh @ weights
                return (np.cumsum(panel, axis=-1) - panel)[..., None] \
                    + vh @ matrix.T

            v = np.asarray(f(starts[idx, None, None] + h
                             * (np.arange(panels)[:, None] + nodes), running))
            parts.append(((h * v) @ weights).sum(axis=-1))
        fine = np.concatenate(parts, axis=-1)
        if out is None:  # the first pass covers every interval
            out = fine
        else:
            done = (np.abs(fine - out[..., todo]) <= budget * np.maximum(
                spans[todo], np.abs(fine))).reshape(-1, todo.size).all(0)
            out[..., todo] = fine
            todo = todo[~done]
        panels *= 2
    return out
