"""Integer spectra of mixed circulant graphs, three ways.

Routes: a closed form summing the numthy Ramanujan kernels over the divisor
data, a by-residue-class closed form (even n), and a floating-point inverse
DFT of the Hermitian difference row, read off the index classes
(circulant.index_classes), that rounds to integers.  All three must agree;
tests sweep them against each other.  The by-class route and the reduced
form under the classification hypotheses add the auxiliary terms lambda1,
lambda2, lambda3 and delta, one function each, which read the spec's
divisor layers (GraphSpec.b_layer, d_layer, b_star).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .circulant import GraphSpec, _hermitian_row
from .numthy import (
    _check_ints,
    _is_int,
    _round_checked,
    euler_phi,
    factorize,
    ramanujan_sine_sum,
    ramanujan_sum,
    two_adic_valuation,
)


class WrongResidueClass(ValueError):
    """An auxiliary term was requested for an index outside its class."""


class HypothesesNotMet(ValueError):
    """The reduced eigenvalue form needs hypotheses this spec fails."""


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues gamma[0..n-1] of the Hermitian adjacency, all integers:
    ValueError unless n >= 1 and each eigenvalue obey numthy._is_int, so
    True is not 1."""

    n: int
    gamma: tuple[int, ...]

    def __post_init__(self):
        if not (_is_int(self.n) and self.n >= 1):
            raise ValueError(f"order must be an integer >= 1 (numthy._is_int), got {self.n!r}")
        if len(self.gamma) != self.n:
            raise ValueError(f"expected {self.n} eigenvalues, got {len(self.gamma)}")
        # the type set first: every spectrum a route builds holds plain ints
        if not (set(map(type, self.gamma)) <= {int} or all(map(_is_int, self.gamma))):
            raise ValueError("eigenvalues must be integers (numthy._is_int)")


def undirected_degree(spec: GraphSpec) -> int:
    """|C \\ C_bar| = sum of phi(n/d) over d in B; equals gamma[0]."""
    return sum(euler_phi(spec.n // d) for d in spec.B)


def eigenvalues_closed_form(spec: GraphSpec) -> Spectrum:
    """Exact spectrum as a sum of Ramanujan kernels over the divisor data.

    gamma_j = sum over d in B of c_{n/d}(j) plus sum over d in D of
    sigma(d) * s_{n/d}(j), and gamma_0 is the degree.  Each term is visited
    only where it can be nonzero: c_m(j) needs (m / rad m) | j, every prime
    of m at once (numthy.ramanujan_sum), and s_m(j) needs j = q * r * (odd)
    with q = 2**(v2(m)-2) and r = m_odd / rad(m_odd), m_odd the odd part of m.
    """
    n = spec.n
    gamma = [0] * n
    for d in spec.B:
        m = n // d
        step = m // math.prod(factorize(m))
        for j in range(step, n, step):
            gamma[j] += ramanujan_sum(m, j)
    for d in spec.D:
        m, sign = n // d, spec.sigma[d]
        q = 1 << (two_adic_valuation(m) - 2)
        m_odd = m // (4 * q)
        step = q * (m_odd // math.prod(factorize(m_odd)))
        for j in range(step, n, 2 * step):
            gamma[j] += sign * ramanujan_sine_sum(m, j)
    gamma[0] = undirected_degree(spec)
    return Spectrum(n=n, gamma=tuple(gamma))


def _kernel_sum(
    spec: GraphSpec, classes: Iterable[int], arcs: Iterable[int], j: int
) -> int:
    """The closed form's sum restricted to some divisors: c_{n/d}(j) for each
    d in classes plus sigma(d) * s_{n/d}(j) for each d in arcs.  At j = 0,
    c_{n/d} degenerates to phi(n/d) and s_{n/d} vanishes."""
    n = spec.n
    if j == 0:
        return sum(euler_phi(n // d) for d in classes)
    return sum(ramanujan_sum(n // d, j) for d in classes) + sum(
        spec.sigma[d] * ramanujan_sine_sum(n // d, j) for d in arcs
    )


# A kernel on layer i carries the factor 2**(i-1), so the scaled-down sums
# below are exact.

def lambda1(spec: GraphSpec, j: int) -> int:
    """Directed correction for odd j (layer-2 classes only)."""
    _check_ints(j)
    if j % 2 == 0:
        raise WrongResidueClass(f"lambda1 needs odd j, got {j}")
    return _kernel_sum(spec, (), spec.d_layer(2), j) // 2


def lambda2(spec: GraphSpec, j: int) -> int:
    """Directed correction for j = 2 (mod 4) (layer-3 classes only)."""
    _check_ints(j)
    if j % 4 != 2:
        raise WrongResidueClass(f"lambda2 needs j = 2 (mod 4), got {j}")
    return _kernel_sum(spec, (), spec.d_layer(3), j) // 4


def lambda3(spec: GraphSpec, j: int) -> int:
    """High-layer tail for j = 0 (mod 4): the kernel sum over layers >= 4,
    scaled down by 8."""
    _check_ints(j)
    if j % 4:
        raise WrongResidueClass(f"lambda3 needs j = 0 (mod 4), got {j}")
    classes = spec.B.difference(*(spec.b_layer(i) for i in range(4)))
    arcs = spec.D - spec.d_layer(2) - spec.d_layer(3)  # D has no layer below 2
    return _kernel_sum(spec, classes, arcs, j) // 8


def delta(spec: GraphSpec, j: int) -> int:
    """Aggregate quarter-class term for j = 0 (mod 4)."""
    _check_ints(j)
    if j % 4:
        raise WrongResidueClass(f"delta needs j = 0 (mod 4), got {j}")
    total = _kernel_sum(spec, spec.b_star(2), (), j) // 2
    total += _kernel_sum(spec, spec.b_layer(3), (), j) // 4
    return total + 2 * lambda3(spec, j)


def eigenvalues_by_class(spec: GraphSpec) -> Spectrum:
    """Exact spectrum from the three-residue-class formulas; needs even n."""
    n = spec.n
    if n % 2:
        raise ValueError(f"by-class route needs even n, got {n}")
    b0, b1, b2, b3 = (spec.b_layer(i) for i in range(4))
    gamma = [undirected_degree(spec)]
    for j in range(1, n):
        if j % 2:
            val = sum(ramanujan_sum(n // d, j) for d in b0)
            val -= sum(ramanujan_sum(n // (2 * d), j) for d in b1)
            val += 2 * lambda1(spec, j)
        elif j % 4 == 2:
            h = j // 2
            val = sum(ramanujan_sum(n // d, h) for d in b0)
            val += sum(ramanujan_sum(n // (2 * d), h) for d in b1)
            val -= 2 * sum(ramanujan_sum(n // (4 * d), h) for d in b2)
            val += 4 * lambda2(spec, j)
        else:
            jp = j >> two_adic_valuation(j)
            q_sign = (-1) ** ((j // 4) & 1)
            val = sum(ramanujan_sum(n // d, jp) for d in b0)
            val += sum(ramanujan_sum(n // (2 * d), jp) for d in b1)
            val += 2 * sum(ramanujan_sum(n // (4 * d), jp) for d in b2)
            val += 4 * sum(q_sign * ramanujan_sum(n // (8 * d), jp) for d in b3)
            val += 8 * lambda3(spec, j)
        gamma.append(val)
    return Spectrum(n=n, gamma=tuple(gamma))


def _oracle_spectra(rows: np.ndarray) -> np.ndarray:
    """n * ifft of each Hermitian difference row of a (k, n) matrix, rounded, as
    floats: gamma[j] = sum over c of row[c] * w^(jc), w = exp(2*pi*i/n).  One
    numthy._round_checked call covers every row: NonIntegerResidual, naming
    "row k: gamma[j]", if any value strays from an integer by ORACLE_TOL or more."""
    return _round_checked(rows.shape[1] * np.fft.ifft(rows, axis=1), "row {}: gamma[{}]")


def eigenvalues_oracle(spec: GraphSpec) -> Spectrum:
    """Floating-point spectrum of the Hermitian adjacency: _oracle_spectra on
    the spec's row (circulant._hermitian_row), read off the index classes."""
    rounded = _oracle_spectra(_hermitian_row(spec)[None])[0]
    return Spectrum(n=spec.n, gamma=tuple(rounded.astype(np.int64).tolist()))


def spectrum_of(spec: GraphSpec) -> Spectrum:
    """Convenience: exact spectrum of a validated spec."""
    return eigenvalues_closed_form(spec)


def reduced_eigenvalues(spec: GraphSpec) -> Spectrum:
    """Four-case spectrum valid under the classification hypotheses.

    Needs 4 | n, D's layer 2 contained in {n/4}, and the scaled-set chain
    B_0 = 2*B_1star = 4*B_2star; otherwise HypothesesNotMet.
    """
    n = spec.n
    if n % 4:
        raise HypothesesNotMet(f"need 4 | n, got n = {n}")
    if spec.d_layer(2) - {n // 4}:
        raise HypothesesNotMet("directed layer 2 must be contained in {n/4}")
    if not spec.scaled_chain(2):
        raise HypothesesNotMet("scaled-set chain B0 = 2*B1star = 4*B2star fails")
    half = 1 if n // 2 in spec.B else 0
    quarter = 1 if n // 4 in spec.B else 0
    turn = spec.sigma.get(n // 4, 0)  # 0 when n/4 is not a directed divisor
    gamma = [undirected_degree(spec)]
    for j in range(1, n):
        if j % 4 == 1:
            gamma.append(-half - 2 * turn)
        elif j % 4 == 3:
            gamma.append(-half + 2 * turn)
        elif j % 4 == 2:
            gamma.append(half - 2 * quarter + 4 * lambda2(spec, j))
        else:
            gamma.append(half + 2 * quarter + 4 * delta(spec, j))
    return Spectrum(n=n, gamma=tuple(gamma))
