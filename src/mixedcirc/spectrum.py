"""Integer spectra of mixed circulant graphs, three ways.

Routes: a closed form summing the numthy Ramanujan kernels over the divisor
data, a by-residue-class closed form (even n), and a floating-point inverse
DFT of the Hermitian difference row that rounds to integers.  All three must
agree; tests sweep them against each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .circulant import (
    ConnectionSet,
    DivisorPartition,
    GraphSpec,
    hermitian_adjacency,
    partition_divisors,
)
from .numthy import (
    NonIntegerResidual,
    euler_phi,
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
    """Eigenvalues gamma[0..n-1] of the Hermitian adjacency, all integers."""

    n: int
    gamma: tuple[int, ...]

    def __post_init__(self):
        if len(self.gamma) != self.n:
            raise ValueError(f"expected {self.n} eigenvalues, got {len(self.gamma)}")

    def __getitem__(self, j: int) -> int:
        return self.gamma[j]

    def __len__(self) -> int:
        return self.n


@dataclass(frozen=True)
class AuxTerms:
    """Class-restricted correction terms entering the case formulas.

    lambda1 is defined for odd j, lambda2 for j = 2 (mod 4), lambda3 and delta
    for j = 0 (mod 4); the other fields are None.
    """

    j: int
    lambda1: Optional[int] = None
    lambda2: Optional[int] = None
    lambda3: Optional[int] = None
    delta: Optional[int] = None


def undirected_degree(spec: GraphSpec) -> int:
    """|C \\ C_bar| = sum of phi(n/d) over d in B; equals gamma[0]."""
    return sum(euler_phi(spec.n // d) for d in spec.B)


def eigenvalues_closed_form(spec: GraphSpec) -> Spectrum:
    """Exact spectrum as a sum of Ramanujan kernels over the divisor data.

    gamma_j = sum over d in B of c_{n/d}(j) plus sum over d in D of
    sigma(d) * s_{n/d}(j), and gamma_0 is the degree.  Each term is visited
    only where it can be nonzero: c_{n/d}(j) needs 2**max(v2(n/d)-1, 0) | j,
    and s_{n/d}(j) needs j = q * (odd) with q = 2**(v2(n/d)-2).
    """
    n = spec.n
    gamma = [0] * n
    for d in spec.B:
        m = n // d
        step = 1 << max(two_adic_valuation(m) - 1, 0)
        for j in range(step, n, step):
            gamma[j] += ramanujan_sum(m, j)
    for d in spec.D:
        m = n // d
        q = 1 << (two_adic_valuation(m) - 2)
        for j in range(q, n, 2 * q):
            gamma[j] += spec.sigma[d] * ramanujan_sine_sum(m, j)
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

def _lambda1(spec: GraphSpec, dp: DivisorPartition, j: int) -> int:
    return _kernel_sum(spec, (), dp.d_layer(2), j) // 2


def _lambda2(spec: GraphSpec, dp: DivisorPartition, j: int) -> int:
    return _kernel_sum(spec, (), dp.d_layer(3), j) // 4


def _lambda3(spec: GraphSpec, dp: DivisorPartition, j: int) -> int:
    # Tail of the kernel sum over layers >= 4, scaled down by 8.
    layers = range(4, two_adic_valuation(spec.n) + 1)
    return sum(_kernel_sum(spec, dp.b_layer(i), dp.d_layer(i), j) for i in layers) // 8


def _delta(spec: GraphSpec, dp: DivisorPartition, j: int) -> int:
    total = _kernel_sum(spec, dp.b_star(2), (), j) // 2
    total += _kernel_sum(spec, dp.b_layer(3), (), j) // 4
    return total + 2 * _lambda3(spec, dp, j)


def lambda1(spec: GraphSpec, j: int) -> int:
    """Directed correction for odd j (layer-2 classes only)."""
    if j % 2 == 0:
        raise WrongResidueClass(f"lambda1 needs odd j, got {j}")
    return _lambda1(spec, partition_divisors(spec), j)


def lambda2(spec: GraphSpec, j: int) -> int:
    """Directed correction for j = 2 (mod 4) (layer-3 classes only)."""
    if j % 4 != 2:
        raise WrongResidueClass(f"lambda2 needs j = 2 (mod 4), got {j}")
    return _lambda2(spec, partition_divisors(spec), j)


def lambda3(spec: GraphSpec, j: int) -> int:
    """High-layer tail for j = 0 (mod 4)."""
    if j % 4:
        raise WrongResidueClass(f"lambda3 needs j = 0 (mod 4), got {j}")
    return _lambda3(spec, partition_divisors(spec), j)


def delta(spec: GraphSpec, j: int) -> int:
    """Aggregate quarter-class term for j = 0 (mod 4)."""
    if j % 4:
        raise WrongResidueClass(f"delta needs j = 0 (mod 4), got {j}")
    return _delta(spec, partition_divisors(spec), j)


def aux_terms(spec: GraphSpec, j: int) -> AuxTerms:
    """All auxiliary terms defined for this j's residue class."""
    dp = partition_divisors(spec)
    if j % 2:
        return AuxTerms(j=j, lambda1=_lambda1(spec, dp, j))
    if j % 4 == 2:
        return AuxTerms(j=j, lambda2=_lambda2(spec, dp, j))
    return AuxTerms(j=j, lambda3=_lambda3(spec, dp, j), delta=_delta(spec, dp, j))


def eigenvalues_by_class(spec: GraphSpec) -> Spectrum:
    """Exact spectrum from the three-residue-class formulas; needs even n."""
    n = spec.n
    if n % 2:
        raise ValueError(f"by-class route needs even n, got {n}")
    dp = partition_divisors(spec)
    gamma = [undirected_degree(spec)]
    for j in range(1, n):
        if j % 2:
            val = sum(ramanujan_sum(n // d, j) for d in dp.b_layer(0))
            val -= sum(ramanujan_sum(n // (2 * d), j) for d in dp.b_layer(1))
            val += 2 * _lambda1(spec, dp, j)
        elif j % 4 == 2:
            h = j // 2
            val = sum(ramanujan_sum(n // d, h) for d in dp.b_layer(0))
            val += sum(ramanujan_sum(n // (2 * d), h) for d in dp.b_layer(1))
            val -= 2 * sum(ramanujan_sum(n // (4 * d), h) for d in dp.b_layer(2))
            val += 4 * _lambda2(spec, dp, j)
        else:
            jp = j >> two_adic_valuation(j)
            q_sign = (-1) ** ((j // 4) & 1)
            val = sum(ramanujan_sum(n // d, jp) for d in dp.b_layer(0))
            val += sum(ramanujan_sum(n // (2 * d), jp) for d in dp.b_layer(1))
            val += 2 * sum(ramanujan_sum(n // (4 * d), jp) for d in dp.b_layer(2))
            val += 4 * sum(q_sign * ramanujan_sum(n // (8 * d), jp) for d in dp.b_layer(3))
            val += 8 * _lambda3(spec, dp, j)
        gamma.append(val)
    return Spectrum(n=n, gamma=tuple(gamma))


def eigenvalues_oracle(cs: ConnectionSet, n: int, tol: float = 1e-6) -> Spectrum:
    """Floating-point spectrum n * ifft(row) of the Hermitian adjacency, rounded.

    gamma[j] = sum over c of row[c] * w^(jc), w = exp(2*pi*i/n), which is n
    times the inverse DFT of the difference row.  Raises NonIntegerResidual
    if any value strays from an integer by tol or more.
    """
    vals = n * np.fft.ifft(hermitian_adjacency(cs, n).row)
    rounded = np.rint(vals.real)
    resid = np.abs(vals - rounded)
    if resid.max() >= tol:
        worst = int(resid.argmax())
        raise NonIntegerResidual(
            f"gamma[{worst}] = {vals[worst]} is {resid[worst]:.3e} from an integer"
        )
    return Spectrum(n=n, gamma=tuple(int(x) for x in rounded))


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
    dp = partition_divisors(spec)
    if dp.d_layer(2) - {n // 4}:
        raise HypothesesNotMet("directed layer 2 must be contained in {n/4}")
    if not dp.scaled_chain(2):
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
            gamma.append(half - 2 * quarter + 4 * _lambda2(spec, dp, j))
        else:
            gamma.append(half + 2 * quarter + 4 * _delta(spec, dp, j))
    return Spectrum(n=n, gamma=tuple(gamma))
