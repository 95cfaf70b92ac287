"""Truncated Fock-space substrate: states, ladder operators, moments.

Everything downstream (driven-oscillator diagonalization, Kerr evolution,
phase-space diagnostics, the exact reference integrator) computes on the
dense complex vectors and matrices defined here.  Amplitudes of large-mean
coherent states are assembled in log space so truncations beyond n = 170
do not overflow the factorials.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FockState",
    "FockOperator",
    "TruncationError",
    "annihilation_operator",
    "position_operator",
    "momentum_operator",
    "displacement_operator",
    "coherent_state",
    "coherent_amplitudes",
    "number_state",
    "default_truncation",
    "checked_truncation",
    "log_factorial",
    "poisson_tail",
    "apply",
    "expectation",
    "inner",
]


# The truncation policy: `default_truncation` sizes a basis for a coherent
# amplitude, and `checked_truncation` refuses one that leaves TAIL_MASS or
# more of its Poisson mass above the top level.  A state may put at most
# BOUNDARY_POPULATION on its top level, the oracle's initial state on its top
# SUPPORT_MARGIN levels; the CLI's automatic basis adds those to the default.
TAIL_MASS = 1e-12
BOUNDARY_POPULATION = 1e-10
SUPPORT_MARGIN = 10
# A state marked normalized, or the oracle's initial state, has unit norm
# within UNIT_NORM_TOL.
UNIT_NORM_TOL = 1e-9


class TruncationError(ValueError):
    """Requested basis size cannot hold the state to the required tail mass."""


def _freeze(record, names, dtype=None, copy: bool = False) -> None:
    """Set each named field of a frozen record to a read-only array of dtype:
    a copy, or else a view, which leaves the caller's array writeable."""
    for name in names:
        value = getattr(record, name)
        arr = (np.array(value, dtype=dtype) if copy
               else np.asarray(value, dtype=dtype).view())
        arr.flags.writeable = False
        object.__setattr__(record, name, arr)


# Work that scales with a run's samples (the oracle's norm drift and fidelity
# columns, the CSV body) goes by rows in blocks of at most _BLOCK_CELLS
# cells, rows x columns, so its temporaries stay within a block.
_BLOCK_CELLS = 1 << 13


def _row_blocks(rows: int, width: int):
    """Slices over range(rows), in order, of _BLOCK_CELLS // width rows
    each (at least one)."""
    step = max(1, _BLOCK_CELLS // width)
    return (slice(start, start + step) for start in range(0, rows, step))


@dataclass(frozen=True)
class FockState:
    """Pure state as a complex amplitude vector over |0>, ..., |n_trunc - 1>.

    Parameters
    ----------
    amplitudes : ndarray
        Complex amplitudes; made read-only on construction.
    normalized : bool
        Marks states of unit norm within UNIT_NORM_TOL (1e-9); a vector
        further from it is refused with ValueError; the constructor never
        rescales.
    """

    amplitudes: np.ndarray
    normalized: bool = False

    def __post_init__(self):
        _freeze(self, ("amplitudes",), np.complex128, copy=True)
        if self.amplitudes.ndim != 1 or self.amplitudes.size < 1:
            raise ValueError("amplitudes must be a non-empty 1-D vector")
        if self.normalized and not abs(self.norm() - 1.0) <= UNIT_NORM_TOL:
            raise ValueError(f"normalized state has norm {self.norm():.12g}, "
                             f"more than {UNIT_NORM_TOL:g} from 1")

    @property
    def n_trunc(self) -> int:
        return self.amplitudes.size

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def occupations(self) -> np.ndarray:
        """|c_n|^2 for n = 0 .. n_trunc - 1."""
        return np.abs(self.amplitudes) ** 2


@dataclass(frozen=True)
class FockOperator:
    """Dense operator matrix on the truncated number basis."""

    matrix: np.ndarray

    def __post_init__(self):
        _freeze(self, ("matrix",), np.complex128, copy=True)
        mat = self.matrix
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("operator matrix must be square")

    @property
    def n_trunc(self) -> int:
        return self.matrix.shape[0]


def annihilation_operator(n_trunc: int) -> FockOperator:
    """Ladder-down operator: <n|a|n+1> = sqrt(n+1)."""
    mat = np.zeros((n_trunc, n_trunc), dtype=np.complex128)
    n = np.arange(1, n_trunc)
    mat[n - 1, n] = np.sqrt(n)
    return FockOperator(mat)


def position_operator(n_trunc: int) -> FockOperator:
    """q = (a + a^dag) / sqrt(2)."""
    a = annihilation_operator(n_trunc).matrix
    return FockOperator((a + a.conj().T) / math.sqrt(2.0))


def momentum_operator(n_trunc: int) -> FockOperator:
    """p = i (a^dag - a) / sqrt(2)."""
    a = annihilation_operator(n_trunc).matrix
    return FockOperator(1j * math.sqrt(0.5) * (a.conj().T - a))


def displacement_operator(alpha: complex, n_trunc: int) -> FockOperator:
    """exp(alpha a^dag - conj(alpha) a) by dense scaling-and-squaring."""
    from scipy.linalg import expm  # lazy: slow import
    a = annihilation_operator(n_trunc).matrix
    return FockOperator(expm(alpha * a.conj().T - np.conj(alpha) * a))


@functools.lru_cache(maxsize=None)
def _lgamma_table(size: int) -> np.ndarray:
    table = np.array([math.lgamma(k + 1.0) for k in range(size)])
    table.flags.writeable = False
    return table


def log_factorial(n: int) -> np.ndarray:
    """Read-only log(k!) for k = 0 .. n - 1, sliced from a cached table."""
    if n < 0:
        raise ValueError(f"log_factorial needs n >= 0, got {n}")
    return _lgamma_table(1 << max(n - 1, 63).bit_length())[:n]


def poisson_tail(mean: float, n_trunc: int) -> float:
    """Probability mass of Poisson(mean) at or above n_trunc.

    Summed in log space: above the mean the tail itself, so a tiny tail keeps
    its relative accuracy, else one minus the lower sum (the tail is then at
    least about 1/2).  Past n_trunc, term j falls by prod_{i<=j} (1 + i/mean)
    or more, which passes e^40 within 10 sqrt(mean) + 40 terms.
    """
    if mean <= 0.0:
        return 0.0
    upper = n_trunc > mean
    lo = n_trunc if upper else 0
    hi = n_trunc + int(10.0 * math.sqrt(mean)) + 40 if upper else n_trunc
    mass = np.sum(np.exp(np.arange(lo, hi) * math.log(mean) - mean
                         - log_factorial(hi)[lo:]))
    return float(mass if upper else 1.0 - mass)


def default_truncation(alpha: complex) -> int:
    """Basis size covering a coherent amplitude: mean + 10 sigma + 10 levels."""
    mu = abs(alpha) ** 2
    return int(math.ceil(mu + 10.0 * math.sqrt(mu + 1.0) + 10.0))


def checked_truncation(alpha: complex, n_trunc: int | None = None) -> int:
    """n_trunc, default `default_truncation(alpha)`, if at least 1 and the
    Poisson tail of |alpha|^2 beyond it is below TAIL_MASS."""
    n_trunc = default_truncation(alpha) if n_trunc is None else n_trunc
    if n_trunc < 1:
        raise TruncationError("n_trunc must be at least 1")
    mu = abs(alpha) ** 2
    if (tail := poisson_tail(mu, n_trunc)) >= TAIL_MASS:
        raise TruncationError(
            f"n_trunc={n_trunc} leaves tail mass {tail:.3e} >= {TAIL_MASS:g} "
            f"for |alpha|^2={mu:.6g}")
    return n_trunc


def coherent_amplitudes(alpha, n_trunc: int) -> np.ndarray:
    """Unnormalized coherent amplitudes e^{-|a|^2/2} a^n / sqrt(n!).

    Built as exp(n log alpha - log(n!)/2 - |alpha|^2/2) so large |alpha| and
    large n stay finite.  An array of amplitudes gives one row each, with the
    levels along a new last axis.
    """
    alpha = np.asarray(alpha, dtype=np.complex128)[..., None]
    mag = np.abs(alpha)
    # log|alpha| = -1000 at alpha = 0: every n >= 1 term underflows to
    # exactly 0 and the n = 0 term stays 1.
    log_mag = np.log(mag, out=np.full(mag.shape, -1e3), where=mag > 0.0)
    return np.exp(np.arange(n_trunc) * (log_mag + 1j * np.angle(alpha))
                  - 0.5 * (log_factorial(n_trunc) + mag ** 2))


def coherent_state(alpha: complex, n_trunc: int | None = None) -> FockState:
    """Coherent state |alpha> on a truncated basis.

    Parameters
    ----------
    alpha : complex
        Coherent amplitude.
    n_trunc : int, optional
        Basis size, default `default_truncation(alpha)`; `checked_truncation`
        refuses one whose Poisson tail mass reaches TAIL_MASS.

    Returns
    -------
    FockState
        Renormalized to unit norm after truncation.
    """
    amps = coherent_amplitudes(alpha, checked_truncation(alpha, n_trunc))
    amps /= np.linalg.norm(amps)
    return FockState(amps, normalized=True)


def number_state(n: int, n_trunc: int) -> FockState:
    if not 0 <= n < n_trunc:
        raise ValueError(f"level n={n} outside basis of size {n_trunc}")
    amps = np.zeros(n_trunc, dtype=np.complex128)
    amps[n] = 1.0
    return FockState(amps, normalized=True)


def apply(op: FockOperator, state: FockState) -> FockState:
    """Matrix-vector product Op|psi>; result carries no normalization claim."""
    if op.n_trunc != state.n_trunc:
        raise ValueError(f"dimension mismatch: operator {op.n_trunc}, "
                         f"state {state.n_trunc}")
    return FockState(op.matrix @ state.amplitudes)


def expectation(op: FockOperator, state: FockState) -> complex:
    """<psi|Op|psi> for a normalized state."""
    if op.n_trunc != state.n_trunc:
        raise ValueError(f"dimension mismatch: operator {op.n_trunc}, "
                         f"state {state.n_trunc}")
    return complex(np.vdot(state.amplitudes, op.matrix @ state.amplitudes))


def inner(bra: FockState, ket: FockState) -> complex:
    """<bra|ket> with the conjugation on the first argument."""
    if bra.n_trunc != ket.n_trunc:
        raise ValueError(f"dimension mismatch: {bra.n_trunc} vs {ket.n_trunc}")
    return complex(np.vdot(bra.amplitudes, ket.amplitudes))
