"""Diagnostics on evolved states: autocorrelation, revivals, Husimi function.

The autocorrelation F(t) = <initial|evolved> is summed analytically from the
factorized-evolution amplitudes; revival times are the filtered local maxima
of |F|^2.  The Husimi distribution Q(gamma) = |<gamma|psi>|^2 / pi is
evaluated on rectangular phase-space grids through the generic coherent-state
overlap, which keeps it non-negative by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .evolution import (
    ModelParams,
    WeiNormanSolution,
    _evolved_amplitudes,
    evolved_state,
)
from .fock import FockState, coherent_amplitudes, log_factorial

__all__ = [
    "AutocorrSeries",
    "PhaseSpaceGrid",
    "autocorrelation",
    "autocorrelation_series",
    "detect_revivals",
    "husimi_grid",
    "husimi_expectation",
    "husimi_snapshot",
    "find_grid_peaks",
]

_TAIL_EPS = 1e-12


@dataclass(frozen=True)
class AutocorrSeries:
    """Sampled overlap F(t) between the evolved and the initial state.

    `revival_times` holds the detected revivals once `with_revivals` has run.
    """

    times: np.ndarray
    values: np.ndarray
    revival_times: np.ndarray | None = None

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=np.complex128)
        if times.size != values.size or times.size == 0:
            raise ValueError("times and values must match and be non-empty")
        times.flags.writeable = False
        values.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    @property
    def abs_squared(self) -> np.ndarray:
        return np.abs(self.values) ** 2

    def with_revivals(self, threshold: float) -> "AutocorrSeries":
        """Copy of the series with `revival_times` filled at `threshold`."""
        return AutocorrSeries(times=self.times, values=self.values,
                              revival_times=detect_revivals(self, threshold))


def autocorrelation(params: ModelParams, sol: WeiNormanSolution,
                    t: float) -> complex:
    """Overlap F(t) = <alpha|psi(t)> summed from the closed-form amplitudes.

    Carries the exact global phase of the evolved state (from X1 and X3) so
    the value equals the inner product of the state vectors, not only in
    modulus.  The terms (conj(alpha) eta_t)^n / n! of the sum peak near
    n = |alpha eta_t| and are summed until their Poisson tail is below 1e-12.
    """
    eta = sol.eta_at(t)
    mag = abs(params.alpha * eta)
    n_top = int(math.ceil(mag + 12.0 * math.sqrt(mag + 1.0) + 20.0))
    return complex(np.vdot(coherent_amplitudes(params.alpha, n_top),
                           _evolved_amplitudes(params, sol, t, eta, n_top)))


def autocorrelation_series(params: ModelParams, sol: WeiNormanSolution,
                           times: np.ndarray | None = None) -> AutocorrSeries:
    if times is None:
        times = sol.times
    values = np.array([autocorrelation(params, sol, float(t)) for t in times])
    return AutocorrSeries(times=np.asarray(times, dtype=float), values=values)


def detect_revivals(series: AutocorrSeries, threshold: float) -> np.ndarray:
    """Times of local maxima of |F|^2 above `threshold`, sorted.

    A 5-point median filter suppresses carrier-frequency ripple before the
    extremum search.
    """
    if threshold <= 0.0:
        raise ValueError("threshold must be positive")
    if series.times.size < 3:
        raise ValueError("series too short for extremum detection")
    signal = series.abs_squared
    if signal.size >= 5:
        signal = _median5(signal)
    return series.times[_find_peaks(signal, threshold)]


def _median5(x: np.ndarray) -> np.ndarray:
    """5-point running median with zero padding at both ends."""
    return np.median(sliding_window_view(np.pad(x, 2), 5), axis=1)


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
    time: float | None = None

    def __post_init__(self):
        for name in ("x", "y", "values"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
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
                y_range: tuple[float, float], resolution: int | tuple[int, int],
                time: float | None = None,
                chunk: int = 8192) -> PhaseSpaceGrid:
    """Husimi function Q(gamma) = |<gamma|psi>|^2 / pi on a rectangular grid.

    Parameters
    ----------
    state : FockState
        Pure state to project on coherent states.
    x_range, y_range : (float, float)
        Extents of Re gamma and Im gamma.
    resolution : int or (int, int)
        Samples per axis (at least 2 per axis).
    time : float, optional
        Simulation-time stamp stored on the grid.
    """
    if isinstance(resolution, tuple):
        nx, ny = resolution
    else:
        nx = ny = int(resolution)
    if nx < 2 or ny < 2:
        raise ValueError("resolution must be at least 2 per axis")
    x = np.linspace(x_range[0], x_range[1], nx)
    y = np.linspace(y_range[0], y_range[1], ny)
    gamma = (x[None, :] + 1j * y[:, None]).ravel()
    n = np.arange(state.n_trunc)
    log_fact = 0.5 * log_factorial(state.n_trunc)
    q_flat = np.empty(gamma.size)
    for start in range(0, gamma.size, chunk):
        g = gamma[start:start + chunk]
        mag = np.abs(g)
        # Clamping avoids -inf * 0 at the n = 0 term of an on-axis node;
        # exp underflows to exactly zero for every n >= 1 anyway.
        log_mag = np.log(np.maximum(mag, 1e-300))
        # <gamma|psi> = sum_n conj(c^gamma_n) psi_n, built in log space.
        exponent = (log_mag[:, None] - 1j * np.angle(g)[:, None]) * n[None, :] \
            - log_fact[None, :] - 0.5 * (mag ** 2)[:, None]
        overlap = np.exp(exponent) @ state.amplitudes
        q_flat[start:start + chunk] = np.abs(overlap) ** 2 / math.pi
    return PhaseSpaceGrid(x=x, y=y, values=q_flat.reshape(ny, nx), time=time)


def husimi_expectation(grid: PhaseSpaceGrid, samples: np.ndarray) -> complex:
    """Anti-normal-ordered average: Riemann sum of Q * A over the grid.

    `samples` must hold A(gamma, conj(gamma)) on the same grid layout.
    """
    samples = np.asarray(samples)
    if samples.shape != grid.values.shape:
        raise ValueError(f"observable samples shaped {samples.shape} do not "
                         f"match the grid {grid.values.shape}")
    return complex(np.sum(grid.values * samples) * grid.cell_area)


def find_grid_peaks(grid: PhaseSpaceGrid,
                    rel_threshold: float = 0.2) -> list[tuple[float, float, float]]:
    """Strict local maxima over the 8-neighborhood above rel_threshold * max.

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
            mask &= inner > q[1 + dy:q.shape[0] - 1 + dy,
                              1 + dx:q.shape[1] - 1 + dx]
    jj, ii = np.nonzero(mask)
    peaks = [(float(grid.x[i + 1]), float(grid.y[j + 1]),
              float(inner[j, i])) for j, i in zip(jj, ii)]
    peaks.sort(key=lambda p: -p[2])
    return peaks


def husimi_snapshot(params: ModelParams, sol: WeiNormanSolution, t: float,
                    half_width: float | None = None, resolution: int = 201,
                    n_trunc: int | None = None) -> PhaseSpaceGrid:
    """Husimi grid of the evolved state at time t on a centered square window.

    The default half-width |alpha| + 5 covers every rotating component of the
    initial amplitude.
    """
    state = evolved_state(params, sol, t, n_trunc)
    if half_width is None:
        half_width = abs(params.alpha) + 5.0
    rng = (-half_width, half_width)
    return husimi_grid(state, rng, rng, resolution, time=t)
