"""Integer spectra of mixed circulant graphs, three ways.

Routes: a closed form summing the numthy Ramanujan kernels over the divisor
data, a by-residue-class closed form (even n), and a floating-point inverse
DFT of the Hermitian difference row, built from the spec's gcd classes, that
rounds to integers.  All three must agree; tests sweep them against each
other.  The by-class route and the reduced form under the classification
hypotheses add the auxiliary terms lambda1, lambda2, lambda3 and delta, one
function each, which read the spec's divisor layers (GraphSpec.b_layer,
d_layer, b_star).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

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


class IndexClasses(NamedTuple):
    """A partition of the indices 0..n-1 of order-n spectra into classes, and
    what the gap kernel (transfer._potentials) reads of it: of[j] is the
    class of j, reps[c] the first index of class c, and cycle = k =
    gcd(n, 4), which divides every distance between two indices of one
    class, so that j mod k is constant on each class; k is the gcd of n and
    those distances (index_classes).  The gap gcd g, that of every
    delta_j - delta_0, is then gcd(gamma_C - gamma_of[0] - (reps[C] mod k)
    * d0 over every class C, k * d0): with P_j = gamma_j - gamma_0 - j*d0,
    delta_j - d0 = P_{j+1} - P_j for j < n-1 and -n*d0 - P_{n-1} for j =
    n-1, which telescope to g = gcd(every P_j, n*d0).  Two indices j, j' of
    one class give P_j - P_j' = (j' - j) * d0, so that lattice holds k * d0,
    and each P_j is gamma_C - gamma_0 - (reps[C] mod k) * d0 plus a multiple
    of k * d0."""

    of: np.ndarray
    reps: np.ndarray
    cycle: int


def index_classes(n: int) -> IndexClasses:
    """The index classes of order n >= 2: j and j' share one when g = gcd(j,
    n) = gcd(j', n) and, where 4 | n/g, j/g = j'/g (mod 4).  They are the
    orbits of the units u = 1 (mod 4) of Z_n, which map every gcd class and
    half class of a spec onto itself, so the spectrum of any integral mixed
    circulant of order n is constant on each; there are at most 2*tau(n)
    (W. So, Discrete Math. 306 (2006)).  The sweep checks the constancy on
    its class table.  cycle = k = gcd(n, 4): j' = u*j - t*n with 4 | u - 1,
    so k divides j' - j; and the class of 1 holds a unit u with gcd(u - 1,
    n) = k, by the CRT: u = 1 (mod k), u = 5 (mod 8) where 8 | n, and u != 0,
    1 modulo each odd prime of n (u = 1 at n = 2 and 4, where k = n)."""
    if not (_is_int(n) and n >= 2):
        raise ValueError(f"index classes need an order n >= 2 with gaps, got {n!r}")
    j = np.arange(n)
    g = np.gcd(j, n)
    key = 4 * g + ((j // g) & 3) * (n // g % 4 == 0)
    seen = np.zeros(4 * n + 4, dtype=bool)  # the distinct keys, marked rather than sorted
    seen[key] = True
    keys = np.flatnonzero(seen)
    of = np.searchsorted(keys, key)
    reps = np.full(len(keys), n)
    np.minimum.at(reps, of, j)
    return IndexClasses(of, reps, math.gcd(n, 4))


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
    the spec's row (circulant._hermitian_row), built from its gcd classes by
    brute gcd."""
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
