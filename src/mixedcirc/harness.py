"""Exhaustive enumeration and cross-validation sweeps.

Every valid spec at a given order can be enumerated deterministically; the
crosscheck runs the three independent transfer deciders against each other
over whole families and reports any disagreement.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cache
from itertools import chain, combinations, product
from typing import Iterable, Iterator, Sequence

import numpy as np

from .circulant import GraphSpec, SpecError, build_connection_set, spec_to_json, validate_spec
from .numthy import divisors
from .spectrum import Spectrum, eigenvalues_oracle
from .transfer import NUMERIC_TOL, classify_mst, classify_pst, gap_profiles, verify_numeric

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


def _mode(mode: str) -> tuple:
    """Order step, vertex-0 targets in quarters of n, divisor-set leg (reads B and D
    only) and gap-valuation leg of a mode; read per call, so patched classifiers count."""
    if mode == "pst":
        return 4, (2,), lambda s: classify_pst(s) is not None, lambda p: p.m is not None
    if mode == "mst":
        return 8, (1, 2, 3), classify_mst, lambda p: p.quarter
    raise ValueError(f"mode must be 'pst' or 'mst', got {mode!r}")


def _pools(n: int) -> tuple[list[int], list[int]]:
    """Divisors order n offers: its proper divisors for B, those of n/4 for D."""
    if n < 2:
        raise SpecError(f"enumeration needs n >= 2, got {n}")
    validate_spec(n)  # refuses an order over MAX_N as an input error
    return divisors(n)[:-1], divisors(n // 4) if n % 4 == 0 else []


def _budgeted(orders: Sequence[int], budget: int) -> list[int]:
    """List the orders, or raise BudgetExceeded at the first order whose running
    spec count passes budget; orders after it are never counted."""
    total = 0
    for n in orders:
        total += count_specs(n)
        if total > budget:
            raise BudgetExceeded(f"{total} specs through order {n} exceed budget {budget}")
    return list(orders)


def _subsets_lex(items: list[int]) -> list[tuple[int, ...]]:
    # all subsets as ascending tuples, in lexicographic tuple order
    subs = chain.from_iterable(combinations(items, r) for r in range(len(items) + 1))
    return sorted(subs)


@cache
def _flips(k: int) -> tuple[tuple[tuple[int, ...], ...], np.ndarray]:
    """The 2**k sign choices on k divisors in enumeration order, as tuples and as a
    read-only flip matrix (True where the sign is -1); every caller shares them."""
    signs = tuple(product((1, -1), repeat=k))
    flips = np.array(signs) < 0  # k = 0 gives one row of width 0
    flips.flags.writeable = False
    return signs, flips


def _shapes(n: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every divisor shape (B, D) of order n as ascending tuples, in the frozen order:
    B over subsets of the proper divisors, then D over those of n/4's divisors not in B."""
    proper, d_pool = _pools(n)
    for b_tuple in _subsets_lex(proper):
        avail = [d for d in d_pool if d not in b_tuple]
        for d_tuple in _subsets_lex(avail):
            yield b_tuple, d_tuple


def _variant(n: int, B: Iterable[int], d_tuple: tuple, signs: tuple) -> GraphSpec:
    """The validated spec of shape (B, D) with signs on D in ascending order."""
    return validate_spec(n, B, d_tuple, dict(zip(d_tuple, signs)))


def enumerate_specs(n: int) -> Iterator[GraphSpec]:
    """Yield every valid spec of order n, ordered by (B, D, sigma): each shape
    of _shapes with every sign choice, +1 before -1 per divisor.  The order
    is frozen: golden outputs depend on it."""
    for b_tuple, d_tuple in _shapes(n):
        for signs in _flips(len(d_tuple))[0]:
            yield _variant(n, b_tuple, d_tuple, signs)


def count_specs(n: int) -> int:
    """Closed-form spec count: 4 per divisor of n/4, 2 per other proper divisor."""
    proper, d_pool = _pools(n)  # every divisor of n/4 is a proper divisor of n
    return 2 ** (len(proper) - len(d_pool)) * 4 ** len(d_pool)


CHUNK_SPECS = 64  # specs per spectrum matrix: keeps crosscheck memory flat in the order


def _class_rows(n: int) -> tuple[dict[tuple[int, int], int], np.ndarray]:
    """Oracle spectrum of every single-class spec of order n, stacked.

    Returns the int64 table with one row per class and the row index of
    each class key: (d, 0) is the undirected class G_n(d) of a proper
    divisor d; (d, +1) and (d, -1) are the two half classes of d | n/4.
    Each row goes through the connection-set builder and eigenvalues_oracle,
    with its integer-rounding check, exactly as a whole spec would.
    """
    proper, d_pool = _pools(n)
    specs = {(d, 0): validate_spec(n, [d]) for d in proper}
    specs |= {(d, s): validate_spec(n, [], [d], {d: s}) for d in d_pool for s in (1, -1)}
    table = np.array(
        [eigenvalues_oracle(build_connection_set(s), n).gamma for s in specs.values()],
        dtype=np.int64,
    )
    return {key: i for i, key in enumerate(specs)}, table


def _shape_chunks(n: int) -> Iterator[tuple[list, np.ndarray]]:
    """Every spec of order n in enumeration order, CHUNK_SPECS at a time, as
    (shape, signs) labels with the int64 matrix of their oracle spectra.

    shape is the validated all-+1 spec of a (B, D), shared by its whole sign
    block.  The DFT is linear and the classes of a valid spec are disjoint,
    so each row is the incidence matrix (labels x classes) times the class
    table: a block shares its B columns and, per d in D, takes the +1 or -1
    column as the flip matrix says.  A block is cut where its chunk is full.
    """
    index, table = _class_rows(n)
    labels, incidence = [], np.zeros((CHUNK_SPECS, len(table)), dtype=np.int64)
    for b_tuple, d_tuple in _shapes(n):
        signs, flips = _flips(len(d_tuple))
        shape = _variant(n, b_tuple, d_tuple, signs[0])
        b_cols = [index[d, 0] for d in b_tuple]
        plus_cols, minus_cols = ([index[d, s] for d in d_tuple] for s in (1, -1))
        done = 0
        while done < len(signs):
            take = min(len(signs) - done, CHUNK_SPECS - len(labels))
            rows, block = slice(len(labels), len(labels) + take), flips[done : done + take]
            incidence[rows, b_cols] = 1
            incidence[rows, plus_cols] = ~block
            incidence[rows, minus_cols] = block
            labels.extend((shape, s) for s in signs[done : done + take])
            done += take
            if len(labels) == CHUNK_SPECS:
                yield labels, incidence @ table
                labels, incidence[:] = [], 0
    if labels:
        yield labels, incidence[: len(labels)] @ table


def crosscheck(
    n_max: int,
    mode: str = "pst",
    budget: int = DEFAULT_BUDGET,
    tol: float = NUMERIC_TOL,
) -> SweepReport:
    """Run all three deciders over every valid spec with order up to n_max:
    the multiples of 4 for transfer 0 -> n/2 ("pst"), or of 8 for 0 -> n/4,
    n/2, 3n/4 ("mst").  Raises BudgetExceeded before building any spec.

    Legs per spec: the divisor-set classifier, the gap-valuation test on the
    oracle (FFT) spectrum, and exact witness feasibility verified
    numerically at tolerance tol.  Any disagreement is recorded.

    The classifier reads B and D only, never sigma, so it runs once per
    (B, D) shape, on the shape's validated all-+1 spec.  The oracle is taken
    once per divisor class per order (_class_rows); the sign variants are
    read CHUNK_SPECS at a time as int64 rows of spectra (_shape_chunks), and
    one gap_profiles call profiles a chunk.  A variant gets its own
    GraphSpec only when it is a mismatch, and a Spectrum only when its
    witness exists; a witness failing the numeric check is a mismatch.
    """
    step, quarters, classifier, valuation = _mode(mode)
    report = SweepReport(mode=mode, n_range=_budgeted(range(step, n_max + 1, step), budget))
    positive, judged = 0, None
    start = time.perf_counter()
    for n in report.n_range:
        targets = tuple(k * n // 4 for k in quarters)
        for labels, gammas in _shape_chunks(n):
            report.specs_checked += len(labels)
            for (shape, signs), prof, row in zip(labels, gap_profiles(gammas), gammas):
                if shape is not judged:
                    judged, by_class = shape, classifier(shape)
                by_vals = valuation(prof)
                positive += by_class
                by_num = _numeric_transfer(prof, row, targets, tol)
                if not (by_class == by_vals == by_num):
                    report.mismatches.append(
                        {
                            "spec": spec_to_json(_variant(n, shape.B, sorted(shape.D), signs)),
                            "classifier": by_class,
                            "valuation": by_vals,
                            "numeric": by_num,
                        }
                    )
    setattr(report, f"{mode}_positive", positive)
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


def search_specs(n: int, mode: str = "pst", budget: int = DEFAULT_BUDGET) -> list[GraphSpec]:
    """All specs of order n the mode's classifier marks positive, in enumeration
    order; BudgetExceeded, before building any spec, if order n has over budget.
    The classifier reads B and D only, so it runs once per (B, D) shape on its
    all-+1 spec; a positive shape adds all its sign choices, built only then."""
    _, _, classifier, _ = _mode(mode)
    _budgeted([n], budget)
    hits = []
    for b_tuple, d_tuple in _shapes(n):
        signs = _flips(len(d_tuple))[0]
        if classifier(_variant(n, b_tuple, d_tuple, signs[0])):
            hits.extend(_variant(n, b_tuple, d_tuple, s) for s in signs)
    return hits
