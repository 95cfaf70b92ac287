"""Grid-free Wei–Norman reference: G(t) and Im X1 in closed form.

The averaging factor of `drive_coefficient` is a Poisson series,
exp(mu (e^{-2 i chi t} - 1)) = e^{-mu} sum_k mu^k / k! e^{-2 i chi k t} with
mu = |alpha|^2, so for a zero, constant or cosine drive the coefficient is a
finite sum of pure exponentials, g(t) = sum_j c_j exp(-i nu_j t).  Then

    G(t) = sum_j c_j phi(nu_j, t),  phi(nu, t) = integral_0^t e^{-i nu s} ds,

and Im X1 = -Im integral_0^t g conj(G) is a double sum over pairs (j, l) of
c_j conj(c_l) D(nu_j, nu_l, t), with
D(a, b, t) = integral_0^t e^{-i a s} integral_0^s e^{i b u} du ds.

A resonance (nu = 0, e.g. the Kerr-free cosine drive at omega = Omega0) takes
the limit t of phi, and s of the inner integral, exactly.  The other
frequencies of the models used in the tests are multiples of 1/4, so no
division below meets cancellation.
"""

from __future__ import annotations

import math

import numpy as np

from kerrosc.evolution import ModelParams


def exponentials(params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """(c, nu) with g(t) = sum_j c_j exp(-i nu_j t), the Poisson series cut
    where its weights fall below rounding (K = mu + 12 sqrt(mu) + 20)."""
    drive, mu = params.drive, abs(params.alpha) ** 2
    k = np.arange(int(mu + 12.0 * math.sqrt(mu) + 20.0) + 1)
    log_mu = math.log(mu) if mu > 0.0 else -np.inf
    weights = np.exp(np.where(k > 0, k * log_mu, 0.0) - mu
                     - np.array([math.lgamma(j + 1.0) for j in k]))
    carrier = params.omega0 + params.chi + 2.0 * params.chi * k
    scale = weights / math.sqrt(2.0 * params.omega0)
    if drive.kind == "zero":
        return np.zeros(0, complex), np.zeros(0)
    if drive.kind == "constant":
        return drive.value * scale + 0j, carrier
    if drive.kind == "cosine":  # A cos(w t) = A/2 (e^{i w t} + e^{-i w t})
        half = 0.5 * drive.amplitude * scale + 0j
        return (np.concatenate((half, half)),
                np.concatenate((carrier - drive.frequency,
                                carrier + drive.frequency)))
    raise ValueError(f"no closed form for a {drive.kind} drive")


def _phi(nu, t):
    """integral_0^t e^{-i nu s} ds, t at nu = 0 (sinc is exact there)."""
    return t * np.exp(-0.5j * nu * t) * np.sinc(nu * t / (2.0 * math.pi))


def _double(a, b, t):
    """D(a, b, t) = integral_0^t e^{-i a s} integral_0^s e^{i b u} du ds."""
    safe_a = np.where(a == 0.0, 1.0, a)
    safe_b = np.where(b == 0.0, 1.0, b)
    # b = 0: the inner integral is s, and integral_0^t s e^{-i a s} ds
    at_b0 = np.where(a == 0.0, 0.5 * t * t,
                     (_phi(a, t) - t * np.exp(-1j * a * t)) / (1j * safe_a))
    return np.where(b == 0.0, at_b0,
                    (_phi(a - b, t) - _phi(a, t)) / (1j * safe_b))


def big_g(params: ModelParams, t) -> np.ndarray:
    """G(t) = integral_0^t g, at a time or an array of times."""
    c, nu = exponentials(params)
    t = np.asarray(t, dtype=float)
    return (c * _phi(nu, t[..., None])).sum(axis=-1)


def im_x1(params: ModelParams, t) -> np.ndarray:
    """Im X1(t) = -Im integral_0^t g conj(G); O(len(c)^2) per time."""
    c, nu = exponentials(params)
    t = np.asarray(t, dtype=float)[..., None, None]
    pairs = c[:, None] * c.conj()[None, :] * _double(nu[:, None],
                                                     nu[None, :], t)
    return -pairs.sum(axis=(-2, -1)).imag


def coefficients(params: ModelParams, t) -> tuple:
    """(X1, X2, X3) at t: X3 = -i G, X2 = -i conj(G), X1 = -|G|^2/2 + i Im X1."""
    g = big_g(params, t)
    return (-0.5 * np.abs(g) ** 2 + 1j * im_x1(params, t),
            -1j * g.conj(), -1j * g)
