"""Exhaustive enumeration and cross-validation sweeps.

Every valid spec at a given order can be enumerated deterministically; the
crosscheck runs the three independent transfer deciders against each other
over whole families and reports any disagreement.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import chain, combinations, islice, product
from typing import Iterator

import numpy as np

from .circulant import GraphSpec, build_connection_set, spec_to_json, validate_spec
from .numthy import divisors
from .spectrum import Spectrum, eigenvalues_oracle
from .transfer import classify_mst, classify_pst, gap_profiles, verify_numeric

DEFAULT_BUDGET = 10**6


class BudgetExceeded(RuntimeError):
    """The requested sweep would enumerate more specs than the cap allows."""


@dataclass
class SweepReport:
    """Outcome of one crosscheck sweep."""

    mode: str
    n_range: list[int]
    specs_checked: int = 0
    mismatches: list[dict] = field(default_factory=list)
    pst_positive: int = 0
    mst_positive: int = 0
    wall_time: float = 0.0


def _subsets_lex(items: list[int]) -> list[tuple[int, ...]]:
    # all subsets as ascending tuples, in lexicographic tuple order
    subs = chain.from_iterable(combinations(items, r) for r in range(len(items) + 1))
    return sorted(subs)


def enumerate_specs(n: int) -> Iterator[GraphSpec]:
    """Yield every valid spec of order n, ordered by (B, D, sigma).

    B runs over subsets of the proper divisors of n; when 4 | n, D runs over
    subsets of the divisors of n/4 disjoint from B, each with every sign
    assignment (+1 before -1 per divisor).  The order is frozen: golden
    outputs depend on it.
    """
    if n < 2:
        raise ValueError(f"enumeration needs n >= 2, got {n}")
    proper = [d for d in divisors(n) if d < n]
    d_pool = divisors(n // 4) if n % 4 == 0 else []
    for b_tuple in _subsets_lex(proper):
        b_set = set(b_tuple)
        avail = [d for d in d_pool if d not in b_set]
        for d_tuple in _subsets_lex(avail):
            for signs in product((1, -1), repeat=len(d_tuple)):
                yield validate_spec(n, b_tuple, d_tuple, dict(zip(d_tuple, signs)))


def count_specs(n: int) -> int:
    """Closed-form spec count: 4 per divisor of n/4, 2 per other proper divisor."""
    proper = [d for d in divisors(n) if d < n]
    if n % 4 == 0:
        d_pool = set(divisors(n // 4))
    else:
        d_pool = set()
    directed_choices = sum(1 for d in proper if d in d_pool)
    return 2 ** (len(proper) - directed_choices) * 4**directed_choices


CHUNK_SPECS = 64  # specs per spectrum matrix: keeps crosscheck memory flat in the order


def _class_rows(n: int) -> tuple[dict[tuple[int, int], int], np.ndarray]:
    """Oracle spectrum of every single-class spec of order n, stacked.

    Returns the int64 table with one row per class and the row index of
    each class key: (d, 0) is the undirected class G_n(d) of a proper
    divisor d; (d, +1) and (d, -1) are the two half classes of d | n/4.
    Each row goes through the connection-set builder and eigenvalues_oracle,
    with its integer-rounding check, exactly as a whole spec would.
    """
    specs = {(d, 0): validate_spec(n, [d]) for d in divisors(n) if d < n}
    if n % 4 == 0:
        for d in divisors(n // 4):
            for s in (1, -1):
                specs[d, s] = validate_spec(n, [], [d], {d: s})
    table = np.array(
        [eigenvalues_oracle(build_connection_set(s), n).gamma for s in specs.values()],
        dtype=np.int64,
    )
    return {key: i for i, key in enumerate(specs)}, table


def _spectrum_chunks(n: int) -> Iterator[tuple[list[GraphSpec], np.ndarray]]:
    """Every spec of order n in enumeration order, CHUNK_SPECS at a time,
    each chunk with the int64 matrix of its oracle spectra, one row per spec.

    The DFT is linear and the classes of a valid spec are disjoint, so a
    spec's oracle spectrum is the sum of its classes' rows: the 0/1
    incidence matrix of the chunk (specs x classes) times the class table.
    """
    index, table = _class_rows(n)
    specs = enumerate_specs(n)
    while chunk := list(islice(specs, CHUNK_SPECS)):
        rows, cols = [], []
        for i, spec in enumerate(chunk):
            for d in spec.B:
                rows.append(i)
                cols.append(index[d, 0])
            for d in spec.D:
                rows.append(i)
                cols.append(index[d, spec.sigma[d]])
        incidence = np.zeros((len(chunk), len(table)), dtype=np.int64)
        incidence[rows, cols] = 1
        yield chunk, incidence @ table


def _moduli(n_max: int, mode: str) -> list[int]:
    if mode == "pst":
        return [n for n in range(4, n_max + 1, 4)]
    if mode == "mst":
        return [n for n in range(8, n_max + 1, 8)]
    raise ValueError(f"mode must be 'pst' or 'mst', got {mode!r}")


def crosscheck(
    n_max: int,
    mode: str = "pst",
    budget: int = DEFAULT_BUDGET,
    tol: float = 1e-9,
) -> SweepReport:
    """Run all three deciders over every valid spec with order up to n_max.

    Legs per spec: the divisor-set classifier on the spec, the gap-valuation
    test on the oracle (FFT) spectrum, and exact witness feasibility
    verified numerically at tolerance tol.  The two spectral legs read one
    gap profile per spec.  Any disagreement is recorded.

    The oracle spectrum is linear in the divisor data, so it is taken once
    per divisor class per order (see _class_rows).  Each order's specs are
    then read CHUNK_SPECS at a time as an int64 matrix of spectra (see
    _spectrum_chunks), and one gap_profiles call profiles the whole chunk.
    A Spectrum is built from its chunk row only for a spec whose witness
    exists; a witness failing the numeric check is a mismatch, not a fault.
    """
    moduli = _moduli(n_max, mode)
    total = sum(count_specs(n) for n in moduli)
    if total > budget:
        raise BudgetExceeded(f"{total} specs exceed budget {budget}")
    report = SweepReport(mode=mode, n_range=moduli)
    start = time.perf_counter()
    for n in moduli:
        if mode == "pst":
            targets = (n // 2,)
        else:
            targets = (n // 4, n // 2, 3 * n // 4)
        for chunk, gammas in _spectrum_chunks(n):
            for spec, prof, row in zip(chunk, gap_profiles(gammas), gammas):
                report.specs_checked += 1
                if mode == "pst":
                    by_class = classify_pst(spec) is not None
                    by_vals = prof.m is not None
                    report.pst_positive += by_class
                else:
                    by_class = classify_mst(spec)
                    by_vals = prof.quarter
                    report.mst_positive += by_class
                by_num = _numeric_transfer(prof, row, targets, tol)
                if not (by_class == by_vals == by_num):
                    report.mismatches.append(
                        {
                            "spec": spec_to_json(spec),
                            "classifier": by_class,
                            "valuation": by_vals,
                            "numeric": by_num,
                        }
                    )
    report.wall_time = time.perf_counter() - start
    return report


def _numeric_transfer(prof, row: np.ndarray, targets, tol: float) -> bool:
    """Transfer 0 -> b has an exact witness that verifies numerically on
    row, the spectrum prof was read from, for every b in targets."""
    times = [prof.witness(b) for b in targets]
    if None in times:
        return False
    spectrum = Spectrum(prof.n, tuple(row.tolist()))
    return all(verify_numeric(spectrum, 0, b, t, tol)[0] for b, t in zip(targets, times))


def search_specs(n: int, mode: str = "pst") -> list[GraphSpec]:
    """All specs of order n the classifier marks positive, enumeration order."""
    if mode == "pst":
        return [s for s in enumerate_specs(n) if classify_pst(s) is not None]
    if mode == "mst":
        return [s for s in enumerate_specs(n) if classify_mst(s)]
    raise ValueError(f"mode must be 'pst' or 'mst', got {mode!r}")
