"""Quadrature shared by the solvers, and the error of every adaptive loop.

Every integral in the package runs on one Gauss-Legendre panel kernel,
`_panel_quadrature`.  It budgets tol**2 per unit time, floored at 1e-13 near
the rounding noise of its estimate, so below tol of about 3.2e-7 a smaller
tol changes nothing.  The Schrodinger propagators of `kerrosc.oracle` run
under their own step-doubling controller, which budgets tol per unit step.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["StepSizeError"]


class StepSizeError(RuntimeError):
    """Step control collapsed; carries the time at which it happened."""

    def __init__(self, message: str, t: float):
        super().__init__(message)
        self.t = t


# Budget floor keeps the per-unit-time target above the rounding noise of the
# quadrature estimate for integrals of order one.
_BUDGET_FLOOR = 1e-13
_GL_NODES = 8  # Gauss-Legendre nodes per quadrature panel
_PANEL_CAP = 1 << 10  # panels per interval, and per unit time beyond one
_CHUNK_NODES = 1 << 14  # integrand samples per evaluation


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
