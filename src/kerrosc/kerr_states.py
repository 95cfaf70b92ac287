"""Kerr states: coherent states rotated by the number-squared phase.

|beta, xi> = exp(-i xi n^2)|beta> keeps the Poissonian excitation statistics
of its coherent parent while acquiring non-Gaussian phase-space structure.
The family is the coherent-state family of a deformed annihilation operator
B = a f(n) with f(n) = exp(i xi (2n - 1)); the module provides the state
amplitudes, the deformed ladder matrices, the excitation distribution, the
Mandel Q parameter, and the closed-form normalized quadrature variances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .fock import (
    FockOperator,
    FockState,
    coherent_amplitudes,
    coherent_state,
    default_truncation,
)

__all__ = [
    "KerrStateParams",
    "MandelResult",
    "kerr_state",
    "deformed_ladder",
    "modified_displacement",
    "excitation_distribution",
    "quadrature_variance_ratios",
    "mandel_q",
    "mandel_q_state",
]


@dataclass(frozen=True)
class KerrStateParams:
    """Amplitude beta and dimensionless Kerr phase xi = chi * t; an array xi
    serves `quadrature_variance_ratios` alone."""

    beta: complex
    xi: float | np.ndarray = 0.0

    def __post_init__(self):
        object.__setattr__(self, "beta", complex(self.beta))
        xi = np.asarray(self.xi, dtype=float)
        object.__setattr__(self, "xi", xi if xi.ndim else float(xi))
        for name in ("beta", "xi"):
            if not np.isfinite(value := getattr(self, name)).all():
                raise ValueError(f"{name} must be finite, got {value!r}")


def kerr_state(params: KerrStateParams, n_trunc: int | None = None) -> FockState:
    """Amplitudes e^{-|b|^2/2} b^n e^{-i xi n^2} / sqrt(n!) on the truncated basis.

    Raises
    ------
    TruncationError
        If n_trunc < 1 or leaves Poisson tail mass `fock.TAIL_MASS` or more.
    """
    amps = coherent_state(params.beta, n_trunc).amplitudes
    kerr_phase = np.exp(-1j * float(params.xi) * np.arange(amps.size) ** 2)
    return FockState(amps * kerr_phase, normalized=True, renormalized=True)


def deformed_ladder(xi: float, n_trunc: int) -> FockOperator:
    """Deformed annihilation operator B with <n|B|n+1> = sqrt(n+1) f(n+1).

    f(n) = exp(i xi (2n - 1)); at xi = 0 this is the plain ladder operator.
    """
    mat = np.zeros((n_trunc, n_trunc), dtype=np.complex128)
    n = np.arange(1, n_trunc)
    mat[n - 1, n] = np.sqrt(n) * np.exp(1j * xi * (2.0 * n - 1.0))
    return FockOperator(mat)


def modified_displacement(params: KerrStateParams, n_trunc: int) -> FockOperator:
    """exp(beta B^dag - conj(beta) B); applied to vacuum it builds the state."""
    from scipy.linalg import expm  # lazy: slow import
    b = deformed_ladder(float(params.xi), n_trunc).matrix
    return FockOperator(expm(params.beta * b.conj().T
                             - np.conj(params.beta) * b))


def excitation_distribution(params: KerrStateParams,
                            n_trunc: int | None = None) -> np.ndarray:
    """Poisson probabilities P(n) = e^{-|b|^2} |b|^{2n} / n!; xi drops out."""
    if n_trunc is None:
        n_trunc = default_truncation(params.beta)
    return np.abs(coherent_amplitudes(params.beta, n_trunc)) ** 2


def quadrature_variance_ratios(params: KerrStateParams) -> tuple:
    """Normalized quadrature widths (dq_xi/dq_0, dp_xi/dp_0).

    Closed forms in |beta|, phi = arg beta and xi, broadcast over an array
    xi; both ratios equal one at xi = 0, where the state is coherent and
    minimum-uncertainty.
    """
    b2 = abs(params.beta) ** 2
    phi = np.angle(params.beta)
    xi = params.xi
    pair_term = 2.0 * b2 * np.exp(-2.0 * b2 * np.sin(2.0 * xi) ** 2) \
        * np.cos(2.0 * phi - 4.0 * xi - b2 * np.sin(4.0 * xi))
    mean_angle = phi - xi - b2 * np.sin(2.0 * xi)
    mean_sq = 4.0 * b2 * np.exp(-4.0 * b2 * np.sin(xi) ** 2)
    rq2 = 2.0 * b2 + 1.0 + pair_term - mean_sq * np.cos(mean_angle) ** 2
    rp2 = 2.0 * b2 + 1.0 - pair_term - mean_sq * np.sin(mean_angle) ** 2
    return np.sqrt(np.maximum(rq2, 0.0)), np.sqrt(np.maximum(rp2, 0.0))


class MandelResult(NamedTuple):
    q: float
    g2_zero: float


def mandel_q_state(state: FockState) -> MandelResult:
    """Mandel Q and g2(0) from the number moments of any Fock-space state."""
    p = state.occupations()
    n = np.arange(state.n_trunc)
    mean = float(np.dot(n, p))
    if mean <= 0.0:
        raise ValueError("vacuum state: Mandel Q undefined")
    mean_sq = float(np.dot(n ** 2, p))
    var = mean_sq - mean ** 2
    q = var / mean - 1.0
    return MandelResult(q=q, g2_zero=q / mean + 1.0)


def mandel_q(params: KerrStateParams,
             n_trunc: int | None = None) -> MandelResult:
    """Mandel Q of a Kerr state; zero, since the statistics stay Poissonian.

    Raises
    ------
    ValueError
        For beta = 0, where Q is undefined.
    """
    return mandel_q_state(kerr_state(params, n_trunc))
