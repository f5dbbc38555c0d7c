"""Independent answers the benchmark checks the package's outputs against.

Nothing here imports `mixedcirc`: the connection row is built from the gcd
class definitions, the spectrum is n * ifft(row), and spec counts come from
divisor counting, so a defect in the package cannot hide in its own check.
"""

from __future__ import annotations

import math

import numpy as np

RESIDUAL_TOL = 1e-9


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def connection_row(n: int, B, D, sigma) -> np.ndarray:
    """Hermitian difference row: 1 on undirected symbols, +i/-i on arcs."""
    row = np.zeros(n, dtype=complex)
    k = np.arange(1, n)
    g = np.gcd(k, n)
    for b in B:
        row[k[g == b]] = 1
    for d in D:
        r = 1 if sigma[d] == 1 else 3
        heads = k[(g == d) & ((k // d) % 4 == r)]
        row[heads] = 1j
        row[(n - heads) % n] = -1j
    return row


def spectrum(n: int, B, D, sigma) -> np.ndarray:
    """Integer eigenvalues rint(n * ifft(row)), as int64."""
    vals = n * np.fft.ifft(connection_row(n, B, D, sigma))
    return np.rint(vals.real).astype(np.int64)


def degree(n: int, B) -> int:
    """Undirected degree: residues 1 <= k < n with gcd(k, n) in B."""
    return sum(1 for k in range(1, n) if math.gcd(k, n) in B)


def _v2(x: np.ndarray) -> np.ndarray:
    """2-adic valuation of each entry; -1 marks a zero."""
    low = np.abs(x) & -np.abs(x)
    out = np.full(x.shape, -1, dtype=np.int64)
    nz = low != 0
    out[nz] = np.log2(low[nz]).astype(np.int64)
    return out


def mst_by_valuation(gamma: np.ndarray) -> bool:
    """All cyclic gaps have 2-adic valuation 1, all double gaps valuation 2."""
    gaps = np.roll(gamma, -1) - gamma
    double = np.roll(gamma, -2) - gamma
    return bool((_v2(gaps) == 1).all() and (_v2(double) == 2).all())


def transfer_residual(gamma: np.ndarray, w: int, t_prime: float) -> float:
    """|1 - |U(t)_{0,w}|| with U(t) = sum_r exp(2 pi i gamma_r t) P_r."""
    n = len(gamma)
    r = np.arange(n)
    phases = np.exp(2j * np.pi * (gamma * t_prime + r * ((-w) % n) / n))
    return abs(1.0 - abs(phases.sum() / n))


def count_specs(n: int) -> int:
    """Valid specs of order n: each proper divisor is out, in B, or (when it
    divides n/4) in D with one of two signs."""
    total = 1
    for d in divisors(n)[:-1]:
        total *= 4 if n % 4 == 0 and (n // 4) % d == 0 else 2
    return total


def sweep_moduli(n_max: int, mode: str) -> list[int]:
    step = 4 if mode == "pst" else 8
    return list(range(step, n_max + 1, step))
