"""Command-line front end.

Subcommands: compute (distances), bounds (the W_{p,q} sandwich), verify
(oracle-backed suites), sample (comonotone coupling atoms), oracle (exact
LP on two discrete inputs). Data goes to stdout, diagnostics to stderr.

Exit codes: 0 success, 1 failed verification, 2 parse/usage error,
3 moment-gate failure, 4 numerical failure.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys

from .copulas import COUPLING_GRID_N, comonotone_coupling
from .distributions import Empirical, check_order
from .io import ParseError, load_copula, load_distribution
from .oracle import DiscreteMeasureND, power_cost, solve_ot
from .verify import SUITES, run_suites
from .wasserstein import (
    DistanceReport,
    MomentGateError,
    w1_cdf,
    wp_quantile,
    wp_shared_nd,
    wp_via_M,
    wpq_bounds,
)

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_MOMENT = 3
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


def _grid_size(text: str) -> int:
    n = int(text)
    if n < 2:
        raise argparse.ArgumentTypeError(f"grid size must be >= 2, got {n}")
    return n


def _order(text: str) -> float:
    try:
        p = float(text)
        check_order(p)
    except ValueError:
        raise argparse.ArgumentTypeError(f"order must be finite and >= 1, got {text!r}") from None
    return p


def _tolerance(text: str) -> float:
    tol = float(text)
    if not tol > 0:
        raise argparse.ArgumentTypeError(f"tolerance must be > 0, got {text!r}")
    return tol


def _load_margins(paths: list[str]):
    return [load_distribution(p) for p in paths]


def _atom_cap(text: str) -> int:
    cap = int(text)
    if cap < 1:
        raise argparse.ArgumentTypeError(f"atom cap must be >= 1, got {cap}")
    return cap


def _shared_inputs(args):
    """The copula (None without --copula) and both margin lists, with every
    shape mismatch a usage error."""
    nf, ng = len(args.margins_f), len(args.margins_g)
    if nf != ng:
        raise ParseError(f"--margins-f and --margins-g give {nf} and {ng} margins; they must match")
    C = None
    if args.copula is not None:
        C = load_copula(args.copula, ranks_auto=args.ranks == "auto")
        if C.dim != nf:
            raise ParseError(f"copula dimension {C.dim} does not match {nf} margins")
    return C, _load_margins(args.margins_f), _load_margins(args.margins_g)


def cmd_compute(args) -> int:
    if args.copula:
        if not (args.margins_f and args.margins_g):
            raise ParseError("--copula needs --margins-f and --margins-g")
        if args.inputs:
            raise ParseError("compute takes two distribution files or --copula, not both")
        report = wp_shared_nd(*_shared_inputs(args), args.p, args.grid_tol)
    else:
        if args.margins_f or args.margins_g or args.ranks == "auto":
            raise ParseError("--margins-f, --margins-g and --ranks auto need --copula")
        if len(args.inputs) != 2:
            raise ParseError("compute needs two distribution files (or --copula)")
        F, G = load_distribution(args.inputs[0]), load_distribution(args.inputs[1])
        if args.method == "cdf":
            if args.p != 1.0:
                raise ParseError("the CDF-integral route is specific to p = 1")
            report = w1_cdf(F, G, args.grid_tol)
        elif args.method == "via-m":
            report = wp_via_M(F, G, args.p, args.grid_tol)
        else:
            report = wp_quantile(F, G, args.p, args.grid_tol)
    _emit_report(report, args.format)
    return EXIT_OK


def cmd_bounds(args) -> int:
    if args.copula is None and len(args.margins_f) > 1:
        raise ParseError("--copula is required for more than one margin")
    try:
        report = wpq_bounds(*_shared_inputs(args), args.p, args.q, args.grid_tol)
    except ValueError as exc:
        if "p = q" in str(exc):
            raise ParseError(str(exc)) from exc
        raise
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
        raise ParseError(f"cannot write {args.output}: {exc}") from exc
    return EXIT_OK


def cmd_oracle(args) -> int:
    F = load_distribution(args.inputs[0])
    G = load_distribution(args.inputs[1])
    if not (isinstance(F, Empirical) and isinstance(G, Empirical)):
        raise ParseError("the oracle needs finitely supported inputs")
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

    def add_common(sp, with_p=True):
        sp.add_argument("--format", choices=("json", "csv", "human"), default="json")
        sp.add_argument("--grid-tol", type=_tolerance, default=None, help="quadrature tolerance")
        if with_p:
            sp.add_argument("--p", type=_order, required=True, help="order p >= 1")

    sp = sub.add_parser("compute", help="compute a distance between two laws")
    add_common(sp)
    sp.add_argument("inputs", nargs="*", help="two distribution files (.csv or .json)")
    sp.add_argument("--method", choices=("quantile", "cdf", "via-m"), default="quantile")
    sp.add_argument("--copula", help="empirical copula rows (CSV) for the shared-copula sum")
    sp.add_argument("--margins-f", nargs="+", help="margin files of the first law")
    sp.add_argument("--margins-g", nargs="+", help="margin files of the second law")
    sp.add_argument("--ranks", choices=("given", "auto"), default="given")
    sp.set_defaults(fn=cmd_compute)

    sp = sub.add_parser("bounds", help="two-sided bounds on the q-norm distance power")
    add_common(sp)
    sp.add_argument("--q", type=_order, required=True, help="norm order q >= 1, q != p")
    sp.add_argument("--copula", default=None, help="required unless there is a single margin")
    sp.add_argument("--margins-f", nargs="+", required=True)
    sp.add_argument("--margins-g", nargs="+", required=True)
    sp.add_argument("--ranks", choices=("given", "auto"), default="given")
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
    sp.add_argument("--grid-n", type=_grid_size, default=COUPLING_GRID_N,
                    help="midpoint cells for a pair that is not purely atomic")
    sp.add_argument("-o", "--output", default=None)
    sp.set_defaults(fn=cmd_sample)

    sp = sub.add_parser("oracle", help="exact LP value and coupling witness")
    sp.add_argument("inputs", nargs=2, help="two finitely supported laws")
    sp.add_argument("--p", type=_order, required=True, help="order p >= 1")
    sp.add_argument("--atom-cap", type=_atom_cap, default=64)
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
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MomentGateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MOMENT
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
