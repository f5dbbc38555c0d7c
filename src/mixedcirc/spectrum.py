"""Integer spectra of mixed circulant graphs, three ways.

Routes: a layered closed form over the divisor partition, a by-residue-class
closed form (even n), and a floating-point character-sum evaluation that
rounds to integers.  All three must agree; tests sweep them against each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .circulant import (
    ConnectionSet,
    DivisorPartition,
    GraphSpec,
    _scaled,
    build_connection_set,
    partition_divisors,
)
from .numthy import (
    NonIntegerResidual,
    euler_phi,
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


def _csum(m: int, q: int) -> int:
    # Ramanujan sum extended to q = 0, where it degenerates to phi(m).
    return euler_phi(m) if q == 0 else ramanujan_sum(m, q)


def _odd_part(j: int) -> int:
    return 0 if j == 0 else j >> two_adic_valuation(j)


def undirected_degree(spec: GraphSpec) -> int:
    """|C \\ C_bar| = sum of phi(n/d) over d in B; equals gamma[0]."""
    return sum(euler_phi(spec.n // d) for d in spec.B)


def _layered_eigenvalue(spec: GraphSpec, dp: DivisorPartition, j: int) -> int:
    """One eigenvalue by the layered closed form (j >= 1)."""
    n = spec.n
    t = two_adic_valuation(n)
    jp = _odd_part(j)
    total = sum(ramanujan_sum(n // d, jp) for d in dp.b_layer(0))
    for i in range(1, t + 1):
        half_step = 1 << (i - 1)
        for d in dp.b_layer(i):
            if j % half_step:
                continue
            e = j // half_step
            total += (-1) ** (e & 1) * half_step * ramanujan_sum(n // ((1 << i) * d), jp)
        quarter_step = 1 << (i - 2) if i >= 2 else 0
        if i < 2:
            continue
        for d in dp.d_layer(i):
            if j % quarter_step:
                continue
            e = j // quarter_step
            if e % 2 == 0:
                continue
            m = n // ((1 << i) * d)
            sign = (-1) ** (((m - 1) // 2) & 1) * (-1) ** (((e + 1) // 2) & 1)
            total += spec.sigma[d] * sign * half_step * ramanujan_sum(m, e)
    return total


def eigenvalues_closed_form(spec: GraphSpec) -> Spectrum:
    """Exact spectrum from the layered divisor formula."""
    dp = partition_divisors(spec)
    gamma = [undirected_degree(spec)]
    gamma += [_layered_eigenvalue(spec, dp, j) for j in range(1, spec.n)]
    return Spectrum(n=spec.n, gamma=tuple(gamma))


def _lambda1(spec: GraphSpec, dp: DivisorPartition, j: int) -> int:
    n = spec.n
    total = 0
    for d in dp.d_layer(2):
        m = n // (4 * d)
        sign = (-1) ** (((m - 1) // 2) & 1) * (-1) ** (((j + 1) // 2) & 1)
        total += spec.sigma[d] * sign * ramanujan_sum(m, j)
    return total


def _lambda2(spec: GraphSpec, dp: DivisorPartition, j: int) -> int:
    n = spec.n
    h = j // 2  # odd since j = 2 (mod 4)
    total = 0
    for d in dp.d_layer(3):
        m = n // (8 * d)
        sign = (-1) ** (((m - 1) // 2) & 1) * (-1) ** (((h + 1) // 2) & 1)
        total += spec.sigma[d] * sign * ramanujan_sum(m, h)
    return total


def _lambda3(spec: GraphSpec, dp: DivisorPartition, j: int) -> int:
    # Tail of the layered formula over layers >= 4, scaled down by 8.
    n = spec.n
    t = two_adic_valuation(n)
    jp = _odd_part(j)
    total = 0
    for i in range(4, t + 1):
        half_step = 1 << (i - 1)
        quarter_step = 1 << (i - 2)
        for d in dp.b_layer(i):
            if j % half_step:
                continue
            e = j // half_step
            total += (-1) ** (e & 1) * (1 << (i - 4)) * _csum(n // ((1 << i) * d), jp)
        for d in dp.d_layer(i):
            if j % quarter_step:
                continue
            e = j // quarter_step
            if e % 2 == 0:  # covers j = 0 as well: the indicator wants e odd
                continue
            m = n // ((1 << i) * d)
            sign = (-1) ** (((m - 1) // 2) & 1) * (-1) ** (((e + 1) // 2) & 1)
            total += spec.sigma[d] * sign * (1 << (i - 4)) * ramanujan_sum(m, e)
    return total


def _delta(spec: GraphSpec, dp: DivisorPartition, j: int) -> int:
    n = spec.n
    jp = _odd_part(j)
    total = sum(_csum(n // (4 * d), jp) for d in dp.b_star(2))
    q_sign = (-1) ** ((j // 4) & 1)
    total += sum(q_sign * _csum(n // (8 * d), jp) for d in dp.b_layer(3))
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
            jp = _odd_part(j)
            q_sign = (-1) ** ((j // 4) & 1)
            val = sum(ramanujan_sum(n // d, jp) for d in dp.b_layer(0))
            val += sum(ramanujan_sum(n // (2 * d), jp) for d in dp.b_layer(1))
            val += 2 * sum(ramanujan_sum(n // (4 * d), jp) for d in dp.b_layer(2))
            val += 4 * sum(q_sign * ramanujan_sum(n // (8 * d), jp) for d in dp.b_layer(3))
            val += 8 * _lambda3(spec, dp, j)
        gamma.append(val)
    return Spectrum(n=n, gamma=tuple(gamma))


def eigenvalues_oracle(cs: ConnectionSet, n: int, tol: float = 1e-6) -> Spectrum:
    """Floating-point character sums over the connection set, rounded.

    gamma[j] = sum over undirected c of w^(jc) plus i * sum over directed c of
    (w^(jc) - w^(-jc)), w = exp(2*pi*i/n).  Raises NonIntegerResidual if any
    value strays from an integer by tol or more.
    """
    j = np.arange(n).reshape(-1, 1)
    vals = np.zeros(n, dtype=complex)
    if cs.undirected:
        c = np.array(sorted(cs.undirected)).reshape(1, -1)
        vals += np.exp(2j * np.pi * j * c / n).sum(axis=1)
    if cs.directed:
        c = np.array(sorted(cs.directed)).reshape(1, -1)
        w = np.exp(2j * np.pi * j * c / n)
        vals += (1j * (w - w.conj())).sum(axis=1)
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
    b0 = dp.b_layer(0)
    if not (b0 == _scaled(dp.b_star(1), 2) == _scaled(dp.b_star(2), 4)):
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
