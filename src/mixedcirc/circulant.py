"""Mixed circulant graph construction: specs, adjacency, formats.

A graph here lives on vertex set Z_n.  Undirected edges come from gcd classes
G_n(d) = {1 <= k < n : gcd(k, n) = d} for d in B; arcs come from the half
classes G_n^r(d) = {k in G_n(d) : k/d = r (mod 4)} (r = 1 or 3) for d in D,
with sigma(d) = +1 picking r = 1 and sigma(d) = -1 picking r = 3.  The
connection set is always such a union of classes, so the Hermitian row is
built from a validated spec and no other set can be written down.  A spec
also answers for its divisor layers, over which the paper states its
criteria: B_i and D_i hold the members d with v2(n/d) = i, and the starred
B_i* drops n/2**i from B_i.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np

from .numthy import MAX_N, _check_kernel, _is_int, two_adic_valuation


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


@dataclass(frozen=True, eq=True)
class GraphSpec:
    """Validated description (n, B, D, sigma) of a mixed circulant graph.

    Construction checks the validity rules: n is a positive integer no
    larger than MAX_N; every b in B is a proper divisor of n; D nonempty
    forces 4 | n and every d in D divides n/4; B and D are disjoint; sigma
    maps exactly D into {+1, -1}, and is stored read-only.  Integers obey
    numthy._is_int, so True is not 1.  B and D may be any iterables: their
    members are checked before they are frozen, so no set merges True into 1.
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
        object.__setattr__(self, "sigma", MappingProxyType(sigma))

    __hash__ = None  # type: ignore[assignment]

    def _layer(self, members: frozenset[int], i: int) -> frozenset[int]:
        return frozenset(d for d in members if two_adic_valuation(self.n // d) == i)

    def b_layer(self, i: int) -> frozenset[int]:
        """B_i: the members b of B with v2(n/b) = i."""
        return self._layer(self.B, i)

    def d_layer(self, i: int) -> frozenset[int]:
        """D_i: the members d of D with v2(n/d) = i (empty below 2)."""
        return self._layer(self.D, i)

    def b_star(self, i: int) -> frozenset[int]:
        """B_i*: layer i of B less n/2**i (layer i is empty unless 2**i | n)."""
        if i < 1:
            raise ValueError(f"starred layers start at 1, got {i}")
        return self.b_layer(i) - {self.n >> i}

    def scaled_chain(self, depth: int) -> bool:
        """The scaled-set chain B0 = 2*B1star = ... = 2**depth * B_depth star."""
        b0 = self.b_layer(0)
        return all(_scaled(self.b_star(i), 1 << i) == b0 for i in range(1, depth + 1))


def _scaled(s: frozenset[int], k: int) -> frozenset[int]:
    """The divisor set k*s, for comparing layers in the scaled-set chains."""
    return frozenset(k * d for d in s)


def gcd_class(n: int, d: int) -> frozenset[int]:
    """G_n(d): residues 1 <= k < n with gcd(k, n) = d.

    n and d are checked as a numthy kernel's modulus and argument; d = n is
    tolerated and yields the empty set, and any other non-divisor is rejected.
    """
    _check_kernel(n, d)
    if n % d != 0:
        raise ValueError(f"{d} is not a divisor of {n}")
    return frozenset(k for k in range(1, n) if math.gcd(k, n) == d)


def gcd_class_mod4(n: int, d: int, r: int) -> frozenset[int]:
    """G_n^r(d): the half of G_n(d) whose members have k/d = r (mod 4).

    Defined for 4 | n, d | n/4, r in {1, 3}.  Equivalently d * G_{n/d}^r(1):
    every k in G_n(d) is d times a unit of Z_{n/d}, and n/d = 0 (mod 4) makes
    that unit odd, so the two residue classes partition G_n(d).
    """
    _check_kernel(n, d)
    if n % 4:
        raise BadModulus(f"need 4 | n for directed classes, got n = {n}")
    if not _is_int(r) or r not in (1, 3):
        raise ValueError(f"residue class must be 1 or 3, got {r!r}")
    if (n // 4) % d != 0:
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


def _class_rows(n: int, values: np.ndarray) -> np.ndarray:
    """Hermitian difference rows of order n from a (..., n+1) table of class
    values by divisor: entry c of a row is its value at g = gcd(c, n), or that
    value's conjugate unless c/g = 1 (mod 4).  So a class valued 1 is undirected,
    and one valued sigma*i, d | n/4, is sigma*i on G_n^1(d), -sigma*i on G_n^3(d)."""
    c = np.arange(n)
    g = np.gcd(c, n)
    rows = values[..., g]
    rows.imag[..., c // g % 4 != 1] *= -1
    return rows


def _hermitian_row(spec: GraphSpec) -> np.ndarray:
    """Difference row of the Hermitian adjacency as a complex array: row[c],
    the entry at (u, u+c), is 1 on G_n(b) for b in B, +i on G_n^r(d) for d
    in D (r = 1 where sigma(d) = +1, else 3) and -i on its negatives, else 0
    (_class_rows).  The classes of a valid spec are disjoint, so no entry
    overwrites another."""
    values = np.zeros(spec.n + 1, dtype=complex)
    values[list(spec.B)] = 1
    values[list(spec.D)] = [spec.sigma[d] * 1j for d in spec.D]
    return _class_rows(spec.n, values)


def hermitian_adjacency(spec: GraphSpec) -> tuple[complex, ...]:
    """_hermitian_row of spec as a tuple of Python complex numbers."""
    return tuple(_hermitian_row(spec).tolist())


def spec_to_dict(spec: GraphSpec) -> dict:
    """Canonical spec object: ascending arrays, sigma keyed by decimal strings."""
    return {
        "n": spec.n,
        "B": sorted(spec.B),
        "D": sorted(spec.D),
        "sigma": {str(d): spec.sigma[d] for d in sorted(spec.D)},
    }


def spec_to_json(spec: GraphSpec) -> str:
    """Canonical JSON of spec_to_dict: sorted keys, compact separators."""
    return json.dumps(spec_to_dict(spec), sort_keys=True, separators=(",", ":"))


def _unique_names(pairs: list) -> dict:
    """json object_pairs_hook: the object, unless it repeats a name."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        raise ValueError("an object repeats a name")
    return obj


def parse_spec(text: str) -> GraphSpec:
    """Parse the JSON spec format and validate it."""
    try:
        obj = json.loads(text, object_pairs_hook=_unique_names)
    except ValueError as exc:  # JSONDecodeError, a number past the digit limit or a repeat
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
        sigma = {}
    # only the keys str(d) that spec_to_dict writes: not "02", " +2 ", "1_0" or
    # non-ASCII digits, so no two keys name one divisor
    if [str(d) for d in sigma] != list(sigma_raw):
        raise SpecError("sigma keys must be decimal divisor strings")
    return validate_spec(n, B, D, sigma)


def export_graph(spec: GraphSpec, fmt: str) -> str:
    """Serialize the graph: 'json' gives the canonical spec, 'dot' the digraph."""
    if fmt == "json":
        return spec_to_json(spec)
    if fmt == "dot":
        return _to_dot(spec)
    raise UnknownFormat(f"unsupported format {fmt!r}")


def _to_dot(spec: GraphSpec) -> str:
    """The digraph: every vertex, then each undirected edge once as u -> v,
    u < v, v - u being in the symmetric undirected set, then every arc."""
    n = spec.n
    row = hermitian_adjacency(spec)
    undirected = [c for c in range(n) if row[c] == 1]
    arcs = [c for c in range(n) if row[c] == 1j]
    lines = [f"digraph mixedcirc_{n} {{", *(f"  {v};" for v in range(n))]
    lines += (f"  {u} -> {u + c} [dir=none];" for u in range(n) for c in undirected if u + c < n)
    lines += (f"  {u} -> {(u + c) % n};" for u in range(n) for c in arcs)
    return "\n".join(lines) + "\n}\n"
