"""Command-line front end.

Subcommands: compute (distances), bounds (the W_{p,q} sandwich), verify
(oracle-backed suites), sample (comonotone coupling atoms), oracle (exact
LP on two discrete inputs). Data goes to stdout, diagnostics to stderr.
A copula file holds d-column data rows, ranked column by column.

Exit codes: 0 success, 1 failed verification, 2 parse/usage error (argparse,
or the library's InputError: it checks every argument's value), 4 numerical
failure.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys

from .copulas import COUPLING_GRID_N, comonotone_coupling
from .distributions import Empirical
from .grids import InputError
from .io import load_copula, load_distribution
from .oracle import DEFAULT_ATOM_CAP, DiscreteMeasureND, power_cost, solve_ot
from .verify import SUITES, run_suites
from .wasserstein import (
    DistanceReport,
    w1_cdf,
    wp_quantile,
    wp_shared_nd,
    wp_via_M,
    wpq_bounds,
)

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 4


def _json_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _emit_report(report: DistanceReport, fmt: str) -> None:
    d = report.to_dict()
    if fmt == "json":
        print(_json_dumps(d))
    elif fmt == "csv":
        writer = csv.writer(sys.stdout)
        keys = sorted(d)
        writer.writerow(keys)
        writer.writerow([d[k] for k in keys])
    else:
        print(f"W_{report.p:g} = {report.value:.12g}   (power {report.power_value:.12g})")
        print(f"method: {report.method.value}, error estimate {report.error_estimate:.3g}")
        if report.bounds is not None:
            lo, hi = report.bounds
            print(f"W_{{{report.p:g},{report.q:g}}}^{report.p:g} in [{lo:.12g}, {hi:.12g}]")


def _load_margins(paths: list[str]):
    return [load_distribution(p) for p in paths]


def _shared_inputs(args):
    """The copula (None without --copula) and both margin lists."""
    C = None if args.copula is None else load_copula(args.copula)
    return C, _load_margins(args.margins_f), _load_margins(args.margins_g)


def cmd_compute(args) -> int:
    if args.copula:
        if not (args.margins_f and args.margins_g):
            raise InputError("--copula needs --margins-f and --margins-g")
        if args.inputs:
            raise InputError("compute takes two distribution files or --copula, not both")
        if args.method != "quantile":
            raise InputError(f"--copula sums quantile routes, not --method {args.method}")
        report = wp_shared_nd(*_shared_inputs(args), args.p, args.grid_tol)
    else:
        if args.margins_f or args.margins_g:
            raise InputError("--margins-f and --margins-g need --copula")
        if len(args.inputs) != 2:
            raise InputError("compute needs two distribution files (or --copula)")
        F, G = load_distribution(args.inputs[0]), load_distribution(args.inputs[1])
        if args.method == "cdf":
            if args.p != 1.0:
                raise InputError("the CDF-integral route is specific to p = 1")
            report = w1_cdf(F, G, args.grid_tol)
        elif args.method == "via-m":
            report = wp_via_M(F, G, args.p, args.grid_tol)
        else:
            report = wp_quantile(F, G, args.p, args.grid_tol)
    _emit_report(report, args.format)
    return EXIT_OK


def cmd_bounds(args) -> int:
    report = wpq_bounds(*_shared_inputs(args), args.p, args.q, args.grid_tol)
    _emit_report(report, args.format)
    return EXIT_OK


def cmd_verify(args) -> int:
    results = run_suites(args.suite, seed=args.seed, corrupt=args.corrupt == "formula")
    all_ok = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        line = f"{status} {r.name}: checks={r.checks} max_gap={r.max_gap:.3e}"
        if r.detail:
            line += f" [{r.detail}]"
        print(line)
        all_ok = all_ok and r.passed
    return EXIT_OK if all_ok else EXIT_FAILED


def cmd_sample(args) -> int:
    F = load_distribution(args.inputs[0])
    G = load_distribution(args.inputs[1])
    pair = comonotone_coupling(F, G, args.grid_n)
    merged: dict[tuple[float, float], float] = {}
    for x, y, m in pair.atoms:
        merged[(x, y)] = merged.get((x, y), 0.0) + float(m)
    rows = [("x", "y", "mass")] + [(x, y, m) for (x, y), m in sorted(merged.items())]
    if args.output is None:
        csv.writer(sys.stdout).writerows(rows)
        return EXIT_OK
    try:
        with open(args.output, "w", newline="") as out:
            csv.writer(out).writerows(rows)
    except OSError as exc:
        raise InputError(f"cannot write {args.output}: {exc}") from exc
    return EXIT_OK


def cmd_oracle(args) -> int:
    F = load_distribution(args.inputs[0])
    G = load_distribution(args.inputs[1])
    if not (isinstance(F, Empirical) and isinstance(G, Empirical)):
        raise InputError("the oracle needs finitely supported inputs")
    mu = DiscreteMeasureND.from_empirical(F)
    nu = DiscreteMeasureND.from_empirical(G)
    value, witness = solve_ot(mu, nu, power_cost(args.p), atom_cap=args.atom_cap)
    out = {"p": args.p, "power_value": value, "value": value ** (1.0 / args.p)}
    out.update(witness.to_dict())
    print(_json_dumps(out))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wassercop",
        description="Wasserstein distances via quantile and copula formulas, "
        "certified against an exact discrete optimal-transport oracle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--format", choices=("json", "csv", "human"), default="json")
        sp.add_argument("--grid-tol", type=float, default=None, help="quadrature tolerance")
        sp.add_argument("--p", type=float, required=True, help="order p >= 1")

    sp = sub.add_parser("compute", help="compute a distance between two laws")
    add_common(sp)
    sp.add_argument("inputs", nargs="*", help="two distribution files (.csv or .json)")
    sp.add_argument("--method", choices=("quantile", "cdf", "via-m"), default="quantile")
    sp.add_argument("--copula", help="d-column data rows (CSV) whose ranks give the shared copula")
    sp.add_argument("--margins-f", nargs="+", help="margin files of the first law")
    sp.add_argument("--margins-g", nargs="+", help="margin files of the second law")
    sp.set_defaults(fn=cmd_compute)

    sp = sub.add_parser("bounds", help="two-sided bounds on the q-norm distance power")
    add_common(sp)
    sp.add_argument("--q", type=float, required=True, help="norm order q >= 1, q != p")
    sp.add_argument("--copula", default=None, help="required unless there is a single margin")
    sp.add_argument("--margins-f", nargs="+", required=True)
    sp.add_argument("--margins-g", nargs="+", required=True)
    sp.set_defaults(fn=cmd_bounds)

    sp = sub.add_parser("verify", help="run oracle-backed verification suites")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--suite", action="append", choices=sorted(SUITES), default=None)
    sp.add_argument(
        "--corrupt",
        choices=("formula",),
        default=None,
        help="debug: perturb formula values to prove the harness can fail",
    )
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("sample", help="write the comonotone coupling atoms")
    sp.add_argument("inputs", nargs=2, help="two distribution files")
    sp.add_argument("--grid-n", type=int, default=COUPLING_GRID_N,
                    help="midpoint cells for a pair that is not purely atomic")
    sp.add_argument("-o", "--output", default=None)
    sp.set_defaults(fn=cmd_sample)

    sp = sub.add_parser("oracle", help="exact LP value and coupling witness")
    sp.add_argument("inputs", nargs=2, help="two finitely supported laws")
    sp.add_argument("--p", type=float, required=True, help="order p >= 1")
    sp.add_argument("--atom-cap", type=int, default=DEFAULT_ATOM_CAP)
    sp.set_defaults(fn=cmd_oracle)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OverflowError as exc:
        # a term |x - y|^p, or their sum W_p^p, beyond the float range
        cause = f"W_p^p overflows a float at p = {args.p:g}" if "p" in args else exc
        print(f"error: {cause}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
