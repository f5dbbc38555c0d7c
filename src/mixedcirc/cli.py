"""Command-line interface.

Results go to standard output as JSON objects carrying "schema": 1; a short
human-readable summary goes to standard error.  Exit codes: 0 success,
1 crosscheck found a mismatch, 2 invalid input.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from .circulant import SpecError, UnknownFormat, export_graph, parse_spec, spec_to_dict
from .harness import BudgetExceeded, crosscheck, search_specs, DEFAULT_BUDGET
from .spectrum import eigenvalues_closed_form
from .transfer import TransferVerdict, antipodal_verdict, mst_verdict, pair_verdict

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
        verdict = pair_verdict(spec, a, b)
    else:
        verdict = antipodal_verdict(spec)
    return _report_verdict(verdict)


def _cmd_check_mst(args) -> int:
    spec = _load_spec(args.spec)
    return _report_verdict(mst_verdict(spec))


def _cmd_search(args) -> int:
    hits = search_specs(args.n, args.mode, budget=args.budget)
    specs = [spec_to_dict(s) for s in hits]
    _emit({"schema": SCHEMA, "n": args.n, "mode": args.mode, "count": len(hits), "specs": specs})
    print(f"{len(hits)} spec(s) of order {args.n} pass the {args.mode} test", file=sys.stderr)
    return 0


def _cmd_crosscheck(args) -> int:
    report = crosscheck(args.n_max, args.mode, budget=args.budget)
    # wall_time stays off stdout so identical runs stay byte-identical
    fields = ("mode", "n_range", "specs_checked", "pst_positive", "mst_positive", "mismatches")
    _emit({"schema": SCHEMA, **{f: getattr(report, f) for f in fields}})
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


@functools.cache  # one parser per process: parse_args keeps no state between calls
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
    pst.set_defaults(func=_cmd_check_pst)

    mst = sub.add_parser("check-mst", help="decide quarter-orbit multiple transfer")
    mst.add_argument("--spec", required=True)
    mst.set_defaults(func=_cmd_check_mst)

    sr = sub.add_parser("search", help="list positive specs of one order")
    sr.add_argument("--n", type=int, required=True)
    sr.add_argument("--mode", choices=("pst", "mst"), default="pst")
    sr.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    sr.set_defaults(func=_cmd_search)

    cc = sub.add_parser("crosscheck", help="sweep the three deciders for agreement")
    cc.add_argument("--n-max", type=int, required=True)
    cc.add_argument("--mode", choices=("pst", "mst"), default="pst")
    cc.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
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
        return args.func(args)
    except (SpecError, UnknownFormat, BudgetExceeded) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
