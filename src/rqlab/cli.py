"""Command-line front end.

Subcommands: spectrum, eigenfunction, verify, disjoint, sweep, ritz,
plotdata, selftest.  Exit codes are a stable contract: 0 success, 1 invalid
configuration, 2 numerical/solver failure, 3 identity violation.  All
configuration is by flags; ``--config FILE`` supplies defaults from a JSON
object with the same keys as the envelope's config echo, each value checked
as its flag is (explicit flags win).  Output is a schema-versioned JSON
envelope, a CSV table, or a plain text table.

Every command but spectrum reads eigenvalues and eigenpairs from the
solver's per-order store, so within one process an order is rescanned only
for a longer prefix and each eigenfunction is extracted once; spectrum
scans directly with its own step and ceiling.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import __version__, invariants
from .disjointness import compare_spectra, follow_up_candidates, sweep_conjecture
from .errors import ConfigError, IdentityViolationError, RQLabError, SolverError
from .exppoly import ExpPoly
from .problem import ANTISYMMETRIC, SYMMETRIC, ProblemSpec, root_system
from .reporting import (
    dumps_envelope,
    format_csv,
    format_table,
    make_envelope,
    not_applicable,
    rollup_from_reports,
    to_jsonable,
)
from .ritz import assemble, ritz_values
from .selftest import run_selftest
from .solver import (
    DEFAULT_LAMBDA_CEILING,
    antisym_equals_next_sym,
    cached_eigenpair,
    cached_spectrum,
    eigenpair_from_function,
    indicator_series,
    scan_spectrum,
    simple_eigenpair,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SOLVER = 2
EXIT_IDENTITY = 3


class _Parser(argparse.ArgumentParser):
    """argparse that reports bad flags through the exit-code contract."""

    def error(self, message):
        raise ConfigError(message)


def _parity(value: str) -> str:
    table = {
        "sym": SYMMETRIC,
        "symmetric": SYMMETRIC,
        "antisym": ANTISYMMETRIC,
        "antisymmetric": ANTISYMMETRIC,
        "a": ANTISYMMETRIC,
        "s": SYMMETRIC,
    }
    try:
        return table[value.lower()]
    except KeyError:
        raise ConfigError(f"unknown parity {value!r}") from None


def _positive_int(value: str) -> int:
    n = int(value)
    if n < 1:
        raise ConfigError(f"expected a positive integer, got {value}")
    return n


def _positive_float(value: str) -> float:
    x = float(value)
    if not x > 0:
        raise ConfigError(f"expected a positive number, got {value}")
    return x


def build_parser() -> _Parser:
    parser = _Parser(prog="rqlab", description=__doc__)
    parser.add_argument("--version", action="version", version=f"rqlab {__version__}")
    sub = parser.commands = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("json", "csv", "table"), default="table")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--config", default=None, help="JSON file with flag defaults")

    p = sub.add_parser("spectrum", help="scan eigenvalues with a Ritz cross-check column")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--p", type=_positive_int, required=True)
    p.add_argument("--parity", type=_parity, default=SYMMETRIC)
    p.add_argument("--count", type=_positive_int, required=True)
    p.add_argument("--lambda-max", type=_positive_float, default=None,
                   help="eigenvalue ceiling (default: internal scan ceiling)")
    p.add_argument("--step", type=_positive_float, default=0.05,
                   help="scan step in the root coordinate")
    p.add_argument("--ritz-k", type=_positive_int, default=20)
    common(p)

    p = sub.add_parser("eigenfunction", help="extract one eigenfunction in detail")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--p", type=_positive_int, required=True)
    p.add_argument("--parity", type=_parity, default=SYMMETRIC)
    p.add_argument("--index", type=int, default=0)
    common(p)

    p = sub.add_parser("verify", help="run the identity suite on computed eigenpairs")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--p", type=_positive_int, required=True)
    p.add_argument("--m", type=_positive_int, default=None,
                   help="partner order for the bilinear family (default: adjacent)")
    p.add_argument("--count", type=_positive_int, default=2)
    p.add_argument("--tol", type=_positive_float, default=1e-8)
    p.add_argument("--inject-fault", action="store_true", help=argparse.SUPPRESS)
    common(p)

    p = sub.add_parser("disjoint", help="gap table between two symmetric spectra")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--m", type=_positive_int, required=True)
    p.add_argument("--p", type=_positive_int, required=True)
    p.add_argument("--count", type=_positive_int, required=True)
    p.add_argument("--collision-tol", type=_positive_float, default=1e-4)
    common(p)

    p = sub.add_parser("sweep", help="all-order gap sweep with candidate follow-up")
    p.add_argument("--p", type=_positive_int, required=True)
    p.add_argument("--n-max", type=_positive_int, required=True)
    p.add_argument("--count", type=_positive_int, default=5)
    p.add_argument("--collision-tol", type=_positive_float, default=1e-4)
    common(p)

    p = sub.add_parser("ritz", help="variational upper bounds from the trial basis")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--p", type=_positive_int, required=True)
    p.add_argument("--parity", type=_parity, default=SYMMETRIC)
    p.add_argument("--K", type=_positive_int, default=20)
    p.add_argument("--count", type=_positive_int, default=1)
    p.add_argument("--cross-check", action="store_true",
                   help="also scan the determinant spectrum for comparison")
    common(p)

    p = sub.add_parser("plotdata", help="emit (lambda, Lambda, indicator) series")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--p", type=_positive_int, required=True)
    p.add_argument("--parity", type=_parity, default=SYMMETRIC)
    p.add_argument("--lambda-to", type=_positive_float, required=True,
                   help="eigenvalue ceiling for the series")
    p.add_argument("--step", type=_positive_float, default=0.02)
    common(p)

    p = sub.add_parser("selftest", help="closed forms, identity anchors, property sweeps")
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--cases", type=_positive_int, default=200)
    common(p)

    return parser


# --------------------------------------------------------------------------
# command implementations: each returns (results, rows, columns, rollup, exit)
# --------------------------------------------------------------------------


def _report_rows(reports):
    rows = []
    for r in reports:
        rows.append(
            {
                "identity": r.identity_id,
                "index": "/".join(str(i) for i in r.index),
                "lhs": r.lhs,
                "rhs": r.rhs,
                "rel_residual": r.rel_residual,
                "verdict": r.verdict,
                "notes": r.notes,
            }
        )
    return rows, ["identity", "index", "lhs", "rhs", "rel_residual", "verdict", "notes"]


def _cmd_spectrum(args):
    spec = ProblemSpec(args.n, args.p, args.parity)
    ceiling = DEFAULT_LAMBDA_CEILING
    if args.lambda_max is not None:
        ceiling = root_system(spec.p, args.lambda_max).rho
    slice_ = scan_spectrum(spec, args.count, step=args.step, lambda_ceiling=ceiling)
    k = max(args.ritz_k, args.count)
    bounds = ritz_values(assemble(spec, k), k)  # upper bounds, up to the eigensolve's rounding
    ritz = bounds[:args.count]
    rows = []
    suspects = list(slice_.metadata.suspects)
    for i, lam in enumerate(slice_.eigenvalues):
        if lam - ritz[i] > k * sys.float_info.epsilon * bounds[-1]:
            raise SolverError(f"Lambda_{i} = {lam!r} exceeds its Ritz upper bound {ritz[i]!r}: "
                              "the scan skipped a root; use a smaller --step")
        pair = simple_eigenpair(spec, lam, i)
        row = {
            "index": i,
            "Lambda": lam,
            "lambda": root_system(spec.p, lam).rho,
            "ritz": ritz[i],
            "ritz_rel_gap": abs(ritz[i] - lam) / lam,
        }
        if pair is None:
            suspects.append(row["lambda"])
        else:
            r = pair.residuals
            row.update(
                nullspace_quality=r.nullspace_quality,
                operator_residual_rel=r.operator_residual / max(r.operator_scale, 1e-300),
                boundary_residual_rel=r.boundary_residual / max(r.boundary_scale, 1e-300),
            )
        rows.append(row)
    metadata = dataclasses.replace(slice_.metadata, suspects=tuple(suspects))
    results = {
        "spec": dataclasses.asdict(spec),
        "eigenvalues": slice_.eigenvalues,
        "ritz": ritz,
        "rows": rows,
        "scan_metadata": to_jsonable(metadata),
    }
    columns = [
        "index", "Lambda", "lambda", "ritz", "ritz_rel_gap",
        "nullspace_quality", "operator_residual_rel", "boundary_residual_rel",
    ]
    return results, rows, columns, {"pass": True}, EXIT_OK


def _cmd_eigenfunction(args):
    spec = ProblemSpec(args.n, args.p, args.parity)
    if args.index < 0:
        raise ConfigError("--index must be >= 0")
    pair = cached_eigenpair(args.n, args.p, args.parity, args.index)
    if pair is None:
        raise SolverError(f"eigenpair {args.index} flagged non-simple")
    roots = root_system(spec.p, pair.Lambda).roots
    rows = [
        {"root_re": r.real, "root_im": r.imag, "coeff_re": c.real, "coeff_im": c.imag}
        for r, c in zip(roots, pair.kernel_coeffs)
    ]
    results = {
        "spec": dataclasses.asdict(spec),
        "index": pair.index,
        "Lambda": pair.Lambda,
        "kernel": rows,
        "poly_coeffs": pair.poly_coeffs,
        "residuals": to_jsonable(pair.residuals),
        "normalized": pair.normalized,
        "expression": str(pair.z),
    }
    return results, rows, ["root_re", "root_im", "coeff_re", "coeff_im"], {"pass": True}, EXIT_OK


def _corrupted_pair(pair):
    """Negative control: a visibly perturbed copy that must fail the suite."""
    bump = ExpPoly.monomial(2, 0.01 * max(pair.z.magnitude_bound(), 1.0))
    return eigenpair_from_function(pair.spec, pair.Lambda, pair.z + bump, index=pair.index)


def _cmd_verify(args):
    reports = invariants.run_identity_suite(
        args.n, args.p, count=args.count, m=args.m, tol=args.tol
    )
    try:
        reports.extend(antisym_equals_next_sym(args.n, args.p, args.count, tol=args.tol))
    except SolverError as exc:
        reports.append(not_applicable("parity-shift", (args.n, args.p), notes=str(exc)))
    if args.inject_fault:
        first = cached_eigenpair(args.n, args.p, SYMMETRIC, 0)
        if first is not None:
            reports.append(invariants.check_stone_identity(_corrupted_pair(first), args.tol))
    rollup = rollup_from_reports(reports)
    rows, columns = _report_rows(reports)
    results = {"reports": to_jsonable(reports)}
    return results, rows, columns, rollup, EXIT_OK if rollup["pass"] else EXIT_IDENTITY


def _cmd_disjoint(args):
    table = compare_spectra(args.n, args.m, args.p, args.count, args.collision_tol)
    rows = []
    for i, li in enumerate(table.eigenvalues_n):
        for j, lj in enumerate(table.eigenvalues_m):
            rows.append(
                {"i": i, "Lambda_n": li, "j": j, "Lambda_m": lj, "rel_gap": table.gaps[i][j]}
            )
    condition_reports, _ = follow_up_candidates(table, args.collision_tol)
    results = {
        "table": to_jsonable(table),
        "condition_reports": to_jsonable(condition_reports),
    }
    rollup = {
        "pass": True,
        "min_gap": table.min_gap,
        "candidates": len(table.candidates),
    }
    return results, rows, ["i", "Lambda_n", "j", "Lambda_m", "rel_gap"], rollup, EXIT_OK


def _cmd_sweep(args):
    summary = sweep_conjecture(args.p, args.n_max, args.count, args.collision_tol)
    rows = [
        {
            "n": sp.n,
            "m": sp.m,
            "min_gap": sp.min_gap,
            "min_pair": f"{sp.min_pair[0]}/{sp.min_pair[1]}",
            "candidates": sp.candidate_count,
            "error": sp.error,
        }
        for sp in summary.pairs
    ]
    rollup = {
        "pass": not summary.partial,
        "partial": summary.partial,
        "candidates": len(summary.candidates),
        "global_min_gap": summary.global_min_gap,
    }
    exit_code = EXIT_OK
    if summary.partial and all(sp.error for sp in summary.pairs):
        exit_code = EXIT_SOLVER
    return (
        {"summary": to_jsonable(summary)},
        rows,
        ["n", "m", "min_gap", "min_pair", "candidates", "error"],
        rollup,
        exit_code,
    )


def _cmd_ritz(args):
    spec = ProblemSpec(args.n, args.p, args.parity)
    if args.count > args.K:
        raise ConfigError("--count cannot exceed --K")
    values = ritz_values(assemble(spec, args.K), args.count)
    rows = [{"index": i, "ritz": v} for i, v in enumerate(values)]
    columns = ["index", "ritz"]
    if args.cross_check:
        scanned = cached_spectrum(args.n, args.p, args.parity, args.count)
        for row, lam in zip(rows, scanned):
            row["determinant"] = lam
            row["rel_gap"] = abs(row["ritz"] - lam) / lam
        columns = ["index", "ritz", "determinant", "rel_gap"]
    return {"spec": dataclasses.asdict(spec), "rows": rows}, rows, columns, {"pass": True}, EXIT_OK


def _cmd_plotdata(args):
    spec = ProblemSpec(args.n, args.p, args.parity)
    lam_max = root_system(spec.p, args.lambda_to).rho
    steps = int(lam_max / args.step)
    grid = (i * args.step for i in range(1, steps + 1))
    rows = [
        {"lambda": lam, "Lambda": lam ** (2 * spec.p), "indicator": f}
        for lam, f, _ in indicator_series(spec, grid)
    ]
    results = {"spec": dataclasses.asdict(spec), "rows": rows}
    return results, rows, ["lambda", "Lambda", "indicator"], {"pass": True}, EXIT_OK


def _cmd_selftest(args):
    reports = run_selftest(seed=args.seed, cases=args.cases)
    rollup = rollup_from_reports(reports)
    rows, columns = _report_rows(reports)
    results = {"reports": to_jsonable(reports), "seed": args.seed, "cases": args.cases}
    return results, rows, columns, rollup, EXIT_OK if rollup["pass"] else EXIT_IDENTITY


_HANDLERS = {
    "spectrum": _cmd_spectrum,
    "eigenfunction": _cmd_eigenfunction,
    "verify": _cmd_verify,
    "disjoint": _cmd_disjoint,
    "sweep": _cmd_sweep,
    "ritz": _cmd_ritz,
    "plotdata": _cmd_plotdata,
    "selftest": _cmd_selftest,
}


def _apply_config_file(parser: _Parser, argv: list[str]) -> argparse.Namespace:
    args = parser.parse_args(argv)
    if getattr(args, "config", None):
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                overrides = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}") from exc
        if not isinstance(overrides, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = set(overrides) - set(vars(args))
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        command = overrides.pop("command", args.command)
        if command != args.command:
            raise ConfigError(f"config file is for command {command!r}, not {args.command!r}")
        # each value goes through its flag's converter and choices: as flag
        # tokens right after the command, so explicit flags still win
        flags = {a.dest: a.option_strings[0]
                 for a in parser.commands.choices[args.command]._actions if a.option_strings}
        tokens = []
        for key, value in overrides.items():
            if value is True:
                tokens.append(flags[key])  # a switch, or a missing value the parser reports
            elif value is not False and value is not None:
                tokens.append(f"{flags[key]}={value}")
        at = argv.index(args.command) + 1
        args = parser.parse_args(argv[:at] + tokens + argv[at:])
    return args


def _emit(text: str, out_path: str | None):
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write {out_path}: {exc}") from exc
    else:
        sys.stdout.write(text)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = _apply_config_file(parser, argv)
        handler = _HANDLERS[args.command]
        results, rows, columns, rollup, exit_code = handler(args)
        config_echo = {k: v for k, v in vars(args).items() if k != "config"}
        if args.format == "json":
            text = dumps_envelope(make_envelope(args.command, config_echo, results, rollup))
        elif args.format == "csv":
            text = format_csv(rows, columns)
        else:
            text = format_table(rows, columns)
        _emit(text, args.out)
        return exit_code
    except ConfigError as exc:
        print(f"rqlab: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except IdentityViolationError as exc:
        print(f"rqlab: identity violation: {exc}", file=sys.stderr)
        return EXIT_IDENTITY
    except (SolverError, RQLabError) as exc:
        print(f"rqlab: solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
