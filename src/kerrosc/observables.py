"""Diagnostics on evolved states: autocorrelation, revivals, Husimi function.

The autocorrelation F(t) = <initial|evolved> is summed analytically from the
factorized-evolution amplitudes; revival times are the filtered local maxima
of |F|^2.  The Husimi distribution Q(gamma) = |<gamma|psi>|^2 / pi is
evaluated on rectangular phase-space grids as the squared modulus of the
overlap, so it is non-negative by construction; the overlap is summed over
the whole grid in one rescaled Horner pass over the levels (`husimi_grid`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .evolution import WeiNormanSolution, _evolved_amplitudes, evolved_state
from .fock import (FockState, _freeze, _row_blocks, coherent_amplitudes,
                   default_truncation)

__all__ = [
    "AutocorrSeries",
    "PhaseSpaceGrid",
    "autocorrelation",
    "autocorrelation_series",
    "detect_revivals",
    "husimi_grid",
    "husimi_snapshot",
    "find_grid_peaks",
]

# Horner rescaling in husimi_grid: every _HORNER_CHECK levels, cells whose
# accumulator passed _HORNER_BIG are divided by it.  A level multiplies |acc|
# by at most |gamma|, so 8 levels stay finite for |gamma| < 1e19.
_HORNER_CHECK = 8
_HORNER_BIG = 1e150


@dataclass(frozen=True)
class AutocorrSeries:
    """Sampled overlap F(t) between the evolved and the initial state."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        _freeze(self, ("times",), float)
        _freeze(self, ("values",), np.complex128)
        if self.times.size != self.values.size or self.times.size == 0:
            raise ValueError("times and values must match and be non-empty")

    @property
    def abs_squared(self) -> np.ndarray:
        return np.abs(self.values) ** 2


def autocorrelation(sol: WeiNormanSolution, t: float) -> complex:
    """Overlap F(t) = <alpha|psi(t)>: a one-point `autocorrelation_series`."""
    return complex(autocorrelation_series(sol, np.array([t])).values[0])


def autocorrelation_series(sol: WeiNormanSolution,
                           times: np.ndarray | None = None) -> AutocorrSeries:
    """F(t) = <alpha|psi(t)> at `times`, default the solution grid, for the
    model `sol` was solved for (alpha is `sol.params.alpha`).

    Summed from the closed-form amplitudes, so F carries the exact global
    phase of the evolved state (from X1 and X3) and equals the inner product
    of the state vectors, not only in modulus.  Term n is at most the
    Poisson(|alpha eta_t|) probability of n, so each block of times sums
    `default_truncation(sqrt(m))` levels, m its largest |alpha eta_t|, and
    leaves out less than `fock.TAIL_MASS`.  The blocks are `_row_blocks`
    sized for the series' largest m, so no amplitude matrix exceeds
    `_BLOCK_CELLS` cells.
    """
    params = sol.params
    times = sol.times if times is None else np.asarray(times, dtype=float)
    reach = np.abs(params.alpha * sol.eta_at(times))
    values = np.empty(times.shape, dtype=np.complex128)
    width = default_truncation(math.sqrt(np.max(reach, initial=0.0)))
    bra = coherent_amplitudes(params.alpha, width).conj()
    for part in _row_blocks(times.size, width):
        n = default_truncation(math.sqrt(np.max(reach[part])))
        values[part] = _evolved_amplitudes(sol, times[part], n) @ bra[:n]
    return AutocorrSeries(times=times, values=values)


def detect_revivals(series: AutocorrSeries, threshold: float) -> np.ndarray:
    """Times of local maxima of |F|^2 above `threshold`, sorted.

    A 5-point median filter suppresses carrier-frequency ripple before the
    extremum search.
    """
    if not threshold > 0.0:  # NaN fails too
        raise ValueError(f"threshold must be positive, got {threshold}")
    if series.times.size < 3:
        raise ValueError("series too short for extremum detection")
    signal = series.abs_squared
    if signal.size >= 5:
        signal = _median5(signal)
    return series.times[_find_peaks(signal, threshold)]


def _median5(x: np.ndarray) -> np.ndarray:
    """5-point running median with zero padding at both ends: the middle of
    each window by `np.partition`, NaN where the window holds one, as
    `np.median` gives without importing `numpy.ma` for its NaN check."""
    windows = sliding_window_view(np.pad(x, 2), 5)
    middle = np.partition(windows, 2, axis=1)[:, 2]
    return np.where(np.isnan(windows).any(axis=1), np.nan, middle)


def _find_peaks(x: np.ndarray, height: float) -> np.ndarray:
    """Indices of the local maxima of x at or above `height`.

    A flat top, as the median filter makes, counts once at its middle sample
    (the left one of an even pair), and never at either end of x.
    """
    edges = np.flatnonzero(np.diff(x))
    starts = np.concatenate(([0], edges + 1))
    ends = np.concatenate((edges, [x.size - 1]))
    top = x[starts]
    k = 1 + np.flatnonzero((top[1:-1] > top[:-2]) & (top[1:-1] > top[2:]))
    mid = (starts[k] + ends[k]) // 2
    return mid[x[mid] >= height]


@dataclass(frozen=True)
class PhaseSpaceGrid:
    """Husimi values on a rectangular grid of gamma = x + i y.

    values[j, i] corresponds to gamma = x[i] + 1j * y[j].
    """

    x: np.ndarray
    y: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        _freeze(self, ("x", "y", "values"), float)
        if self.values.shape != (self.y.size, self.x.size):
            raise ValueError("values must have shape (len(y), len(x))")

    @property
    def cell_area(self) -> float:
        return float((self.x[1] - self.x[0]) * (self.y[1] - self.y[0]))

    def total_mass(self) -> float:
        """Riemann sum of Q over the grid; near one when the grid covers
        the state."""
        return float(np.sum(self.values) * self.cell_area)


def husimi_grid(state: FockState, x_range: tuple[float, float],
                y_range: tuple[float, float],
                resolution: int | tuple[int, int]) -> PhaseSpaceGrid:
    """Husimi function Q(gamma) = |<gamma|psi>|^2 / pi on a rectangular grid.

    The conjugate overlap e^{-|gamma|^2/2} sum_n conj(psi_n) gamma^n / sqrt(n!)
    is a polynomial in gamma, evaluated over the whole grid at once by
    Horner's scheme: acc <- conj(psi_{k-1}) + acc gamma / sqrt(k) for
    k = N-1 ... 1, one complex multiply and add per cell and level.  |acc|
    grows up to about e^{|gamma|^2/2}, so every `_HORNER_CHECK` levels the
    cells past `_HORNER_BIG` are divided by it: from then on such a cell
    holds the sum over its scale, the coefficients still to come are added
    divided by the same scale, and the count of divisions is folded into the
    final Gaussian factor.  The grid stays finite wherever that factor does.

    Parameters
    ----------
    state : FockState
        Pure state to project on coherent states.
    x_range, y_range : (float, float)
        Extents of Re gamma and Im gamma.
    resolution : int or (int, int)
        Samples per axis (at least 2 per axis).
    """
    if isinstance(resolution, tuple):
        nx, ny = resolution
    else:
        nx = ny = int(resolution)
    if nx < 2 or ny < 2:
        raise ValueError("resolution must be at least 2 per axis")
    x = np.linspace(x_range[0], x_range[1], nx)
    y = np.linspace(y_range[0], y_range[1], ny)
    gamma = x[None, :] + 1j * y[:, None]
    coeffs = state.amplitudes.conj()
    acc = np.full(gamma.shape, coeffs[-1])
    rescaled = np.zeros(gamma.shape)
    weight = None  # per-cell 1 / scale, once any cell has been rescaled
    for k in range(coeffs.size - 1, 0, -1):
        acc *= gamma
        acc *= 1.0 / math.sqrt(k)
        if weight is None:
            acc += coeffs[k - 1]
        else:
            acc += coeffs[k - 1] * weight
        if k % _HORNER_CHECK == 0:
            big = np.abs(acc) > _HORNER_BIG
            if big.any():
                if weight is None:
                    weight = np.ones(gamma.shape)
                acc[big] /= _HORNER_BIG
                weight[big] /= _HORNER_BIG
                rescaled[big] += 1.0
    log_gauss = rescaled * math.log(_HORNER_BIG) - 0.5 * np.abs(gamma) ** 2
    # |.|^2 of a complex number: Q >= 0 by construction
    q = (np.abs(acc) * np.exp(log_gauss)) ** 2 / math.pi
    return PhaseSpaceGrid(x=x, y=y, values=q)


def find_grid_peaks(grid: PhaseSpaceGrid,
                    rel_threshold: float = 0.2) -> list[tuple[float, float, float]]:
    """Local maxima over the 8-neighborhood above rel_threshold * max.

    A maximum exceeds its neighbours before it in raster order and is at
    least those after it, so a peak that falls exactly between two cells,
    with equal values on both, counts once, at the first of them.

    Returns (x, y, Q) triples sorted by descending height.
    """
    q = grid.values
    floor = rel_threshold * q.max()
    inner = q[1:-1, 1:-1]
    mask = inner > floor
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            if dx == 0 and dy == 0:
                continue
            nbr = q[1 + dy:q.shape[0] - 1 + dy, 1 + dx:q.shape[1] - 1 + dx]
            mask &= inner > nbr if (dy, dx) < (0, 0) else inner >= nbr
    jj, ii = np.nonzero(mask)
    peaks = [(float(grid.x[i + 1]), float(grid.y[j + 1]),
              float(inner[j, i])) for j, i in zip(jj, ii)]
    peaks.sort(key=lambda p: -p[2])
    return peaks


def husimi_snapshot(sol: WeiNormanSolution, t: float,
                    half_width: float | None = None, resolution: int = 201,
                    n_trunc: int | None = None) -> PhaseSpaceGrid:
    """Husimi grid of `evolved_state(sol, t, n_trunc)` on a centered square
    window.

    The default half-width |alpha| + 5, alpha of `sol.params`, covers every
    rotating component of the initial amplitude.
    """
    state = evolved_state(sol, t, n_trunc)
    if half_width is None:
        half_width = abs(sol.params.alpha) + 5.0
    rng = (-half_width, half_width)
    return husimi_grid(state, rng, rng, resolution)
