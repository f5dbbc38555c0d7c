"""Mixed circulant graph construction: specs, connection sets, adjacency, formats.

A graph here lives on vertex set Z_n.  Undirected edges come from gcd classes
G_n(d) = {1 <= k < n : gcd(k, n) = d} for d in B; arcs come from the half
classes G_n^r(d) = {k in G_n(d) : k/d = r (mod 4)} (r = 1 or 3) for d in D,
with sigma(d) = +1 picking r = 1 and sigma(d) = -1 picking r = 3.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .numthy import MAX_N


class SpecError(ValueError):
    """A graph description violates the validity rules."""


class BadModulus(SpecError):
    """Directed classes demanded but 4 does not divide n."""


class BadDivisor(SpecError):
    """A member of B or D is not an admissible divisor."""


class Overlap(SpecError):
    """B and D intersect."""


class SigmaDomainMismatch(SpecError):
    """sigma is not a map from exactly D into {+1, -1}."""


class UnknownFormat(ValueError):
    """Unsupported export format name."""


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


@dataclass(frozen=True, eq=True)
class GraphSpec:
    """Validated description (n, B, D, sigma) of a mixed circulant graph.

    Construction checks the validity rules: n is a positive integer no
    larger than MAX_N; every b in B is a proper divisor of n; D nonempty
    forces 4 | n and every d in D divides n/4; B and D are disjoint; sigma
    maps exactly D into {+1, -1}.  A bool is not an integer here, although
    Python treats True as 1.  B and D may be any iterables: their members
    are checked before they are frozen, so a set cannot merge True into 1.
    """

    n: int
    B: frozenset[int]
    D: frozenset[int]
    sigma: Mapping[int, int] = field(default_factory=dict)

    def __post_init__(self):
        n, B, D, sigma = self.n, tuple(self.B), tuple(self.D), dict(self.sigma)
        if not _is_int(n) or n < 1:
            raise BadModulus(f"order must be a positive integer, got {n!r}")
        if n > MAX_N:
            raise BadModulus(f"modulus {n} exceeds supported cap {MAX_N}")
        for b in B:
            if not _is_int(b) or b < 1 or b >= n or n % b != 0:
                raise BadDivisor(f"B member {b!r} is not a proper divisor of {n}")
        if D:
            if n % 4:
                raise BadModulus(f"D nonempty requires 4 | n, got n = {n}")
            for d in D:
                if not _is_int(d) or d < 1 or (n // 4) % d != 0:
                    raise BadDivisor(f"D member {d!r} does not divide n/4 = {n // 4}")
        b_set, d_set = frozenset(B), frozenset(D)
        both = b_set & d_set
        if both:
            raise Overlap(f"B and D share divisors {sorted(both)}")
        if not all(_is_int(d) for d in sigma) or set(sigma) != d_set:
            raise SigmaDomainMismatch(
                f"sigma domain {sorted(sigma)} != D {sorted(d_set)}"
            )
        bad_signs = {d: s for d, s in sigma.items() if not _is_int(s) or s not in (1, -1)}
        if bad_signs:
            raise SigmaDomainMismatch(f"sigma values must be +1 or -1, got {bad_signs}")
        object.__setattr__(self, "B", b_set)
        object.__setattr__(self, "D", d_set)
        object.__setattr__(self, "sigma", sigma)

    __hash__ = None  # type: ignore[assignment]


@dataclass(frozen=True)
class ConnectionSet:
    """Symbol-difference sets: undirected residues and arc-head residues."""

    undirected: frozenset[int]
    directed: frozenset[int]


@dataclass(frozen=True)
class HermitianMatrix:
    """Circulant Hermitian adjacency matrix, stored as its difference row.

    row[c] is the entry at (u, u+c); values are exactly 0, 1, 1j or -1j.
    """

    order: int
    row: tuple[complex, ...]

    def entry(self, u: int, v: int) -> complex:
        return self.row[(v - u) % self.order]

    def to_numpy(self):
        import numpy as np

        n = self.order
        out = np.empty((n, n), dtype=complex)
        for u in range(n):
            for v in range(n):
                out[u, v] = self.row[(v - u) % n]
        return out


@dataclass(frozen=True)
class DivisorPartition:
    """B and D split into layers by the 2-adic valuation of n/d."""

    n: int
    b_layers: Mapping[int, frozenset[int]]
    d_layers: Mapping[int, frozenset[int]]

    def b_layer(self, i: int) -> frozenset[int]:
        return self.b_layers.get(i, frozenset())

    def d_layer(self, i: int) -> frozenset[int]:
        return self.d_layers.get(i, frozenset())

    def b_star(self, i: int) -> frozenset[int]:
        """Layer i of B with the distinguished divisor n/2**i removed."""
        if i < 1:
            raise ValueError(f"starred layers start at 1, got {i}")
        layer = self.b_layer(i)
        if self.n % (1 << i) == 0:
            layer = layer - {self.n >> i}
        return layer

    def scaled_chain(self, depth: int) -> bool:
        """The scaled-set chain B0 = 2*B1star = ... = 2**depth * B_depth star."""
        b0 = self.b_layer(0)
        return all(_scaled(self.b_star(i), 1 << i) == b0 for i in range(1, depth + 1))


def _scaled(s: frozenset[int], k: int) -> frozenset[int]:
    """The divisor set k*s, for comparing layers in the scaled-set chains."""
    return frozenset(k * d for d in s)


def gcd_class(n: int, d: int) -> frozenset[int]:
    """G_n(d): residues 1 <= k < n with gcd(k, n) = d.

    d = n is tolerated and yields the empty set; any other non-divisor or
    out-of-range d is rejected.
    """
    if n < 1:
        raise ValueError(f"modulus must be positive, got {n}")
    if d < 1 or n % d != 0 or d > n:
        raise ValueError(f"{d} is not a divisor of {n} in range")
    if d == n:
        return frozenset()
    return frozenset(k for k in range(1, n) if math.gcd(k, n) == d)


def gcd_class_mod4(n: int, d: int, r: int) -> frozenset[int]:
    """G_n^r(d): the half of G_n(d) whose members have k/d = r (mod 4).

    Defined for 4 | n, d | n/4, r in {1, 3}.  Equivalently d * G_{n/d}^r(1):
    every k in G_n(d) is d times a unit of Z_{n/d}, and n/d = 0 (mod 4) makes
    that unit odd, so the two residue classes partition G_n(d).
    """
    if n % 4:
        raise BadModulus(f"need 4 | n for directed classes, got n = {n}")
    if r not in (1, 3):
        raise ValueError(f"residue class must be 1 or 3, got {r}")
    if d < 1 or (n // 4) % d != 0:
        raise BadDivisor(f"{d} does not divide n/4 = {n // 4}")
    return frozenset(k for k in gcd_class(n, d) if (k // d) % 4 == r)


def validate_spec(
    n: int,
    B: Iterable[int] = (),
    D: Iterable[int] = (),
    sigma: Mapping[int, int] | None = None,
) -> GraphSpec:
    """Build a GraphSpec, which checks the validity rules, with empty
    defaults for B, D and sigma."""
    return GraphSpec(n=n, B=B, D=D, sigma=sigma or {})


def build_connection_set(spec: GraphSpec) -> ConnectionSet:
    """Assemble the undirected and directed symbol sets from the divisor data."""
    und: set[int] = set()
    for b in spec.B:
        und |= gcd_class(spec.n, b)
    dirr: set[int] = set()
    for d in spec.D:
        dirr |= gcd_class_mod4(spec.n, d, 1 if spec.sigma[d] == 1 else 3)
    return ConnectionSet(undirected=frozenset(und), directed=frozenset(dirr))


def hermitian_adjacency(cs: ConnectionSet, n: int) -> HermitianMatrix:
    """Adjacency with 1 on undirected edges, +i on arcs, -i on reversed arcs."""
    row = [complex(0)] * n
    for c in cs.undirected:
        row[c % n] = complex(1)
    for c in cs.directed:
        row[c % n] = 1j
        row[(-c) % n] = -1j
    if row[0] != 0:
        raise SpecError("connection set touches difference 0 (loops forbidden)")
    return HermitianMatrix(order=n, row=tuple(row))


def partition_divisors(spec: GraphSpec) -> DivisorPartition:
    """Split B into layers 0..v2(n) and D into layers 2..v2(n) by v2(n/d).

    A GraphSpec is validated, so n and every n // d are positive ints and
    each valuation is read off the lowest set bit without further checks.
    """
    n = spec.n
    t = (n & -n).bit_length() - 1
    b_layers: dict[int, set[int]] = {i: set() for i in range(t + 1)}
    d_layers: dict[int, set[int]] = {i: set() for i in range(2, t + 1)}
    for layers, members in ((b_layers, spec.B), (d_layers, spec.D)):
        for d in members:
            m = n // d
            layers[(m & -m).bit_length() - 1].add(d)
    return DivisorPartition(
        n=spec.n,
        b_layers={i: frozenset(s) for i, s in b_layers.items()},
        d_layers={i: frozenset(s) for i, s in d_layers.items()},
    )


def spec_to_json(spec: GraphSpec) -> str:
    """Canonical JSON: sorted keys, ascending arrays, compact separators."""
    obj = {
        "n": spec.n,
        "B": sorted(spec.B),
        "D": sorted(spec.D),
        "sigma": {str(d): spec.sigma[d] for d in sorted(spec.D)},
    }
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def parse_spec(text: str) -> GraphSpec:
    """Parse the JSON spec format and validate it."""
    try:
        obj = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or a number past the digit limit
        raise SpecError(f"malformed JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise SpecError("spec must be a JSON object")
    unknown = set(obj) - {"n", "B", "D", "sigma"}
    if unknown:
        raise SpecError(f"unknown fields {sorted(unknown)}")
    if "n" not in obj:
        raise SpecError("missing field 'n'")
    n = obj["n"]
    B = obj.get("B", [])
    D = obj.get("D", [])
    sigma_raw = obj.get("sigma", {})
    if not isinstance(B, list) or not isinstance(D, list):
        raise SpecError("'B' and 'D' must be arrays")
    if not isinstance(sigma_raw, dict):
        raise SpecError("'sigma' must be an object")
    try:
        sigma = {int(k): v for k, v in sigma_raw.items()}
    except ValueError:
        raise SpecError("sigma keys must be decimal divisor strings") from None
    return validate_spec(n, B, D, sigma)


def export_graph(spec: GraphSpec, fmt: str) -> str:
    """Serialize the graph: 'json' gives the canonical spec, 'dot' the digraph."""
    if fmt == "json":
        return spec_to_json(spec)
    if fmt == "dot":
        return _to_dot(spec)
    raise UnknownFormat(f"unsupported format {fmt!r}")


def _to_dot(spec: GraphSpec) -> str:
    n = spec.n
    cs = build_connection_set(spec)
    lines = [f"digraph mixedcirc_{n} {{"]
    for v in range(n):
        lines.append(f"  {v};")
    edges: set[tuple[int, int]] = set()
    for u in range(n):
        for c in cs.undirected:
            v = (u + c) % n
            edges.add((min(u, v), max(u, v)))
    for u, v in sorted(edges):
        lines.append(f"  {u} -> {v} [dir=none];")
    for u in range(n):
        for c in sorted(cs.directed):
            lines.append(f"  {u} -> {(u + c) % n};")
    lines.append("}")
    return "\n".join(lines) + "\n"
