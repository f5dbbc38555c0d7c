"""Command-line interface.

Results go to standard output as JSON objects carrying "schema": 1; a short
human-readable summary goes to standard error.  Exit codes: 0 success,
1 crosscheck found a mismatch, 2 invalid input.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from .circulant import SpecError, UnknownFormat, export_graph, parse_spec, spec_to_json
from .harness import BudgetExceeded, crosscheck, search_specs, DEFAULT_BUDGET
from .numthy import MAX_N
from .spectrum import eigenvalues_closed_form
from .transfer import (
    NUMERIC_TOL,
    TransferVerdict,
    antipodal_verdict,
    mst_verdict,
    pair_verdict,
)

SCHEMA = 1


def _emit(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")


def _fail(message: str, kind: str = "input") -> int:
    _emit({"schema": SCHEMA, "error": {"type": kind, "message": message}})
    print(f"error: {message}", file=sys.stderr)
    return 2


def _load_spec(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise SpecError(f"cannot read {path}: {exc}") from None
    return parse_spec(text)


def _fraction_json(t: Fraction | None):
    if t is None:
        return None
    return {"p": t.numerator, "q": t.denominator}


def _report_verdict(v: TransferVerdict) -> int:
    phase = None
    if v.phase is not None:
        phase = {"re": round(v.phase.real, 12), "im": round(v.phase.imag, 12)}
    out = {
        "schema": SCHEMA,
        "kind": v.kind,
        "pair": list(v.pair),
        "m": v.m,
        "t_prime": _fraction_json(v.t_prime),
        "phase": phase,
        "residual": v.residual,
    }
    _emit(out)
    print(f"verdict: {v.kind}", file=sys.stderr)
    return 0


def _cmd_spectrum(args) -> int:
    spec = _load_spec(args.spec)
    spectrum = eigenvalues_closed_form(spec)
    _emit({"schema": SCHEMA, "n": spectrum.n, "gamma": list(spectrum.gamma)})
    print(f"spectrum of order {spectrum.n} computed", file=sys.stderr)
    return 0


def _cmd_check_pst(args) -> int:
    spec = _load_spec(args.spec)
    if args.pair is not None:
        a, b = args.pair
        if a == b:
            raise SpecError("--pair vertices must be distinct")
        if not (0 <= a < spec.n and 0 <= b < spec.n):
            raise SpecError(f"--pair vertices must lie in 0..{spec.n - 1}")
        verdict = pair_verdict(spec, a, b, tol=args.tol)
    else:
        verdict = antipodal_verdict(spec, tol=args.tol)
    return _report_verdict(verdict)


def _cmd_check_mst(args) -> int:
    spec = _load_spec(args.spec)
    return _report_verdict(mst_verdict(spec, tol=args.tol))


def _cmd_search(args) -> int:
    if args.n < 2:
        raise SpecError(f"enumeration needs n >= 2, got {args.n}")
    if args.n > MAX_N:
        raise SpecError(f"modulus {args.n} exceeds supported cap {MAX_N}")
    hits = search_specs(args.n, args.mode)
    _emit(
        {
            "schema": SCHEMA,
            "n": args.n,
            "mode": args.mode,
            "count": len(hits),
            "specs": [json.loads(spec_to_json(s)) for s in hits],
        }
    )
    print(f"{len(hits)} spec(s) of order {args.n} pass the {args.mode} test", file=sys.stderr)
    return 0


def _cmd_crosscheck(args) -> int:
    report = crosscheck(args.n_max, args.mode, budget=args.budget, tol=args.tol)
    # wall_time stays off stdout so identical runs stay byte-identical
    _emit(
        {
            "schema": SCHEMA,
            "mode": report.mode,
            "n_range": report.n_range,
            "specs_checked": report.specs_checked,
            "pst_positive": report.pst_positive,
            "mst_positive": report.mst_positive,
            "mismatches": report.mismatches,
        }
    )
    print(
        f"checked {report.specs_checked} specs in {report.wall_time:.2f}s, "
        f"{len(report.mismatches)} mismatch(es)",
        file=sys.stderr,
    )
    return 1 if report.mismatches else 0


def _cmd_export(args) -> int:
    spec = _load_spec(args.spec)
    payload = export_graph(spec, args.format)
    sys.stdout.write(payload if payload.endswith("\n") else payload + "\n")
    print(f"exported order {spec.n} as {args.format}", file=sys.stderr)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixedcirc",
        description="Integral mixed circulant graphs: spectra and state transfer.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="exact integer spectrum of a spec file")
    sp.add_argument("--spec", required=True, help="path to a JSON spec")
    sp.set_defaults(func=_cmd_spectrum)

    pst = sub.add_parser("check-pst", help="decide perfect state transfer")
    pst.add_argument("--spec", required=True)
    pst.add_argument("--pair", nargs=2, type=int, metavar=("A", "B"))
    pst.add_argument("--tol", type=float, default=NUMERIC_TOL)
    pst.set_defaults(func=_cmd_check_pst)

    mst = sub.add_parser("check-mst", help="decide quarter-orbit multiple transfer")
    mst.add_argument("--spec", required=True)
    mst.add_argument("--tol", type=float, default=NUMERIC_TOL)
    mst.set_defaults(func=_cmd_check_mst)

    sr = sub.add_parser("search", help="list positive specs of one order")
    sr.add_argument("--n", type=int, required=True)
    sr.add_argument("--mode", choices=("pst", "mst"), default="pst")
    sr.set_defaults(func=_cmd_search)

    cc = sub.add_parser("crosscheck", help="sweep the three deciders for agreement")
    cc.add_argument("--n-max", type=int, required=True)
    cc.add_argument("--mode", choices=("pst", "mst"), default="pst")
    cc.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    cc.add_argument("--tol", type=float, default=NUMERIC_TOL)
    cc.set_defaults(func=_cmd_crosscheck)

    ex = sub.add_parser("export", help="serialize a spec as dot or canonical json")
    ex.add_argument("--spec", required=True)
    ex.add_argument("--format", choices=("dot", "json"), default="dot")
    ex.set_defaults(func=_cmd_export)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage already; normalize other codes
        return int(exc.code or 0)
    # only input errors become exit 2; any other exception is a fault and
    # propagates with its traceback
    try:
        # subcommands without --tol pass; nan fails both comparisons
        if not 0 < getattr(args, "tol", 1.0) < math.inf:
            raise SpecError(f"--tol must be finite and positive, got {args.tol}")
        return args.func(args)
    except (SpecError, UnknownFormat, BudgetExceeded) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
