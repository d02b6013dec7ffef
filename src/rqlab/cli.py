"""Command-line front end.

Subcommands: spectrum, eigenfunction, verify, disjoint, sweep, ritz,
plotdata, selftest.  Exit codes are a stable contract: 0 success, 1 invalid
configuration, 2 numerical/solver failure, 3 identity violation.  All
configuration is by flags; ``--config FILE`` supplies defaults from a JSON
object with the same keys as the envelope's config echo, each value checked
as its flag is (explicit flags win).  Output is a schema-versioned JSON
envelope, a CSV table, or a plain text table.

Flags are long: ``--flag value`` or ``--flag=value`` (a negative number is a
value), a unique prefix names its flag, a switch takes no value, and the last
repeat of a flag wins.  ``-h``/``--help`` prints help, at the top level or
after a command, and ``--version`` the version.  A flag error names its flag.

Every command but spectrum reads eigenvalues and eigenpairs from the
solver's per-order store, so within one process an order is rescanned only
for a longer prefix and each eigenfunction is extracted once; spectrum
scans directly with its own step and ceiling, and extracts all its
eigenfunctions in one batch.  verify scans its symmetric orders in one
lockstep before the suite reads them.
"""

from __future__ import annotations

import gc
import json
import re
import sys
from collections.abc import Callable
from types import SimpleNamespace
from typing import NamedTuple

from . import __version__, invariants
from .disjointness import DEFAULT_COLLISION_TOL, compare_spectra, follow_up_candidates
from .disjointness import sweep_conjecture
from .errors import ConfigError, IdentityViolationError, RQLabError, ScanExhaustedError
from .errors import SolverError
from .exppoly import ExpPoly
from .invariants import antisym_equals_next_sym
from .problem import ANTISYMMETRIC, SYMMETRIC, ProblemSpec, root_system
from .reporting import (
    dumps_envelope,
    format_csv,
    format_table,
    make_envelope,
    not_applicable,
    rollup_from_reports,
)
from .ritz import MAX_BASIS_SIZE, assemble, ritz_values
from .selftest import run_selftest
from .solver import (
    DEFAULT_LAMBDA_CEILING,
    DEFAULT_SCAN_STEP,
    MAX_GRID_POINTS,
    cached_eigenpair,
    cached_spectra,
    cached_spectrum,
    eigenpair_from_function,
    extract_eigenfunctions,
    indicator_series,
    scan_spectrum,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SOLVER = 2
EXIT_IDENTITY = 3


def _checked(kind, ok, expected: str):
    """A flag converter: ``kind(value)`` when it passes ``ok``, else a ConfigError."""

    def convert(value: str):
        try:
            x = kind(value)
        except (KeyError, ValueError):
            x = None
        if x is None or not ok(x):
            raise ConfigError(f"expected {expected}, got {value!r}")
        return x

    return convert


_PARITIES = {"s": SYMMETRIC, "sym": SYMMETRIC, "symmetric": SYMMETRIC,
             "a": ANTISYMMETRIC, "antisym": ANTISYMMETRIC, "antisymmetric": ANTISYMMETRIC}
_parity = _checked(lambda value: _PARITIES[value.lower()], bool, "sym or antisym")
_int = _checked(int, lambda n: True, "an integer")
_positive_int = _checked(int, lambda n: n > 0, "a positive integer")
_seed = _checked(int, lambda n: 0 <= n < 2**32, "an integer in [0, 2**32)")
_positive_float = _checked(float, lambda x: 0 < x < float("inf"), "a positive finite number")
_format = _checked(str, ("json", "csv", "table").__contains__, "json, csv or table")


# --------------------------------------------------------------------------
# command implementations: each returns (results, rows, columns, rollup, exit)
# --------------------------------------------------------------------------


def _report_rows(reports):
    rows = [{"identity": r.identity_id, "index": "/".join(str(i) for i in r.index), "lhs": r.lhs,
             "rhs": r.rhs, "rel_residual": r.rel_residual, "verdict": r.verdict, "notes": r.notes}
            for r in reports]
    return rows, ["identity", "index", "lhs", "rhs", "rel_residual", "verdict", "notes"]


def _cmd_spectrum(args):
    spec = ProblemSpec(args.n, args.p, args.parity)
    k = max(args.ritz_k, args.count)
    if k > MAX_BASIS_SIZE:  # refused before the scan, not after it
        flag = "--ritz-k" if args.ritz_k >= args.count else "--count"
        raise ConfigError(f"{flag} {k} exceeds the Ritz column's supported basis size "
                          f"{MAX_BASIS_SIZE}")
    ceiling = DEFAULT_LAMBDA_CEILING
    if args.lambda_max is not None:
        ceiling = root_system(spec.p, args.lambda_max).rho
    try:
        slice_ = scan_spectrum(spec, args.count, step=args.step, lambda_ceiling=ceiling)
    except ScanExhaustedError as exc:
        raise SolverError(f"{exc}; raise --lambda-max") from None
    bounds = ritz_values(assemble(spec, k), k)  # upper bounds, up to the eigensolve's rounding
    ritz = bounds[:args.count]
    rows = []
    pairs = extract_eigenfunctions(spec, slice_.eigenvalues)
    for i, (lam, pair) in enumerate(zip(slice_.eigenvalues, pairs)):
        if lam - ritz[i] > k * sys.float_info.epsilon * bounds[-1]:
            raise SolverError(f"Lambda_{i} = {lam!r} exceeds its Ritz upper bound {ritz[i]!r}: "
                              "the scan skipped a root; use a smaller --step")
        if isinstance(pair, SolverError):
            raise pair
        r = pair.residuals
        rows.append({
            "index": i,
            "Lambda": lam,
            "lambda": root_system(spec.p, lam).rho,
            "ritz": ritz[i],
            "ritz_rel_gap": abs(ritz[i] - lam) / lam,
            "nullspace_quality": r.nullspace_quality,
            "operator_residual_rel": r.operator_residual / max(r.operator_scale, 1e-300),
            "boundary_residual_rel": r.boundary_residual / max(r.boundary_scale, 1e-300),
        })
    results = {
        "spec": spec,
        "eigenvalues": slice_.eigenvalues,
        "ritz": ritz,
        "rows": rows,
        "scan_metadata": slice_.metadata,
    }
    columns = ["index", "Lambda", "lambda", "ritz", "ritz_rel_gap",
               "nullspace_quality", "operator_residual_rel", "boundary_residual_rel"]
    return results, rows, columns, {"pass": True}, EXIT_OK


def _cmd_eigenfunction(args):
    spec = ProblemSpec(args.n, args.p, args.parity)
    if args.index < 0:
        raise ConfigError("--index must be >= 0")
    pair = cached_eigenpair(args.n, args.p, args.parity, args.index)
    roots = root_system(spec.p, pair.Lambda).roots
    rows = [
        {"root_re": r.real, "root_im": r.imag, "coeff_re": c.real, "coeff_im": c.imag}
        for r, c in zip(roots, pair.kernel_coeffs)
    ]
    results = {
        "spec": spec,
        "index": pair.index,
        "Lambda": pair.Lambda,
        "kernel": rows,
        "poly_coeffs": pair.poly_coeffs,
        "residuals": pair.residuals,
        "normalized": pair.normalized,
        "expression": str(pair.z),
    }
    return results, rows, ["root_re", "root_im", "coeff_re", "coeff_im"], {"pass": True}, EXIT_OK


def _corrupted_pair(pair):
    """Negative control: a visibly perturbed copy that must fail the suite."""
    bump = ExpPoly.monomial(2, 0.01 * max(pair.z.magnitude_bound(), 1.0))
    return eigenpair_from_function(pair.spec, pair.Lambda, pair.z + bump, index=pair.index)


def _cmd_verify(args):
    n, p = args.n, args.p
    if n >= p and (args.m is None or args.m > n):  # else the suite refuses these orders first
        # the suite's orders n-1, n and --m and the parity shift's n+1, in one lockstep
        # scan; an order whose scan fails fails alike where the suite or the shift reads it
        cached_spectra({n - 1, n, n + 1, args.m or n} - set(range(p)), p, SYMMETRIC, args.count)
    reports = invariants.run_identity_suite(args.n, args.p, count=args.count, m=args.m,
                                            tol=args.tol)
    try:
        reports.extend(antisym_equals_next_sym(args.n, args.p, args.count, tol=args.tol))
    except SolverError as exc:
        reports.append(not_applicable("parity-shift", (args.n, args.p), notes=str(exc)))
    if args.inject_fault:
        first = cached_eigenpair(args.n, args.p, SYMMETRIC, 0)
        reports.append(invariants.check_stone_identity(_corrupted_pair(first), args.tol))
    rollup = rollup_from_reports(reports)
    rows, columns = _report_rows(reports)
    results = {"reports": reports}
    return results, rows, columns, rollup, EXIT_OK if rollup["pass"] else EXIT_IDENTITY


def _cmd_disjoint(args):
    table = compare_spectra(args.n, args.m, args.p, args.count, args.collision_tol)
    rows = [{"i": i, "Lambda_n": li, "j": j, "Lambda_m": lj, "rel_gap": table.gaps[i][j]}
            for i, li in enumerate(table.eigenvalues_n)
            for j, lj in enumerate(table.eigenvalues_m)]
    condition_reports = follow_up_candidates(table)
    results = {"table": table, "condition_reports": condition_reports}
    rollup = {"pass": True, "min_gap": table.min_gap, "candidates": len(table.candidates)}
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
    columns = ["n", "m", "min_gap", "min_pair", "candidates", "error"]
    return {"summary": summary}, rows, columns, rollup, exit_code


def _cmd_ritz(args):
    spec = ProblemSpec(args.n, args.p, args.parity)
    if args.count > args.K:
        raise ConfigError("--count cannot exceed --K")
    if args.K > MAX_BASIS_SIZE:  # named here, where assemble would not name the flag
        raise ConfigError(f"--K {args.K} exceeds the supported Ritz basis size {MAX_BASIS_SIZE}")
    values = ritz_values(assemble(spec, args.K), args.count)
    rows = [{"index": i, "ritz": v} for i, v in enumerate(values)]
    columns = ["index", "ritz"]
    if args.cross_check:
        scanned = cached_spectrum(args.n, args.p, args.parity, args.count)
        for row, lam in zip(rows, scanned):
            row["determinant"] = lam
            row["rel_gap"] = abs(row["ritz"] - lam) / lam
        columns = ["index", "ritz", "determinant", "rel_gap"]
    return {"spec": spec, "rows": rows}, rows, columns, {"pass": True}, EXIT_OK


def _cmd_plotdata(args):
    spec = ProblemSpec(args.n, args.p, args.parity)
    lam_max = root_system(spec.p, args.lambda_to).rho
    steps = int(lam_max / args.step)
    if steps == 0:
        raise ConfigError(f"the plot grid is empty: the root coordinate {lam_max!r} of --lambda-to "
                          "lies below one --step")
    if steps > MAX_GRID_POINTS:
        raise ConfigError(f"a plot grid of {steps:.3g} points exceeds {MAX_GRID_POINTS}: "
                          "lower --lambda-to or raise --step")
    grid = (i * args.step for i in range(1, steps + 1))
    rows = [
        {"lambda": lam, "Lambda": lam ** (2 * spec.p), "indicator": f}
        for lam, f, _ in indicator_series(spec, grid)
    ]
    results = {"spec": spec, "rows": rows}
    return results, rows, ["lambda", "Lambda", "indicator"], {"pass": True}, EXIT_OK


def _cmd_selftest(args):
    reports = run_selftest(seed=args.seed, cases=args.cases)
    rollup = rollup_from_reports(reports)
    rows, columns = _report_rows(reports)
    results = {"reports": reports, "seed": args.seed, "cases": args.cases}
    return results, rows, columns, rollup, EXIT_OK if rollup["pass"] else EXIT_IDENTITY


# --------------------------------------------------------------------------
# the flag table, and argv and the config file read against it
# --------------------------------------------------------------------------

_REQUIRED = object()  # the default of a flag that argv or the config file must give


class _Flag(NamedTuple):
    """One long flag, ``--`` plus ``dest`` with ``_`` as ``-``; a switch has no converter."""

    dest: str
    convert: Callable[[str], object] | None
    default: object
    help: str
    hidden: bool = False

    @property
    def name(self) -> str:
        return "--" + self.dest.replace("_", "-")


def _count(default):
    return _Flag("count", _positive_int, default, "number of eigenvalues")


_N = _Flag("n", _positive_int, _REQUIRED, "order n: u vanishes with n-1 derivatives at +-1")
_P = _Flag("p", _positive_int, _REQUIRED, "quotient offset p, 1 <= p <= n")
_PARITY = _Flag("parity", _parity, SYMMETRIC, "sym or antisym eigenfunctions")
_COLLISION = _Flag("collision_tol", _positive_float, DEFAULT_COLLISION_TOL,
                   "relative gap of a collision candidate")
_COMMON = (
    _Flag("format", _format, "table", "json envelope, csv or text table"),
    _Flag("out", str, None, "output path (default stdout)"),
    _Flag("config", str, None, "JSON file with flag defaults"),
)

# command -> (handler, one-line help, flags)
_COMMANDS = {
    "spectrum": (_cmd_spectrum, "scan eigenvalues with a Ritz cross-check column", (
        _N, _P, _PARITY, _count(_REQUIRED),
        _Flag("lambda_max", _positive_float, None, "eigenvalue ceiling (default: scan ceiling)"),
        _Flag("step", _positive_float, DEFAULT_SCAN_STEP, "scan step in the root coordinate"),
        _Flag("ritz_k", _positive_int, 20, "trial basis size of the Ritz column"), *_COMMON)),
    "eigenfunction": (_cmd_eigenfunction, "extract one eigenfunction in detail", (
        _N, _P, _PARITY, _Flag("index", _int, 0, "eigenvalue index, from 0"), *_COMMON)),
    "verify": (_cmd_verify, "run the identity suite on computed eigenpairs", (
        _N, _P, _Flag("m", _positive_int, None, "partner order (default: adjacent)"), _count(2),
        _Flag("tol", _positive_float, invariants.DEFAULT_IDENTITY_TOL,
              "relative residual tolerance"),
        _Flag("inject_fault", None, False, "add a corrupted eigenpair's check", hidden=True),
        *_COMMON)),
    "disjoint": (_cmd_disjoint, "gap table between two symmetric spectra", (
        _N, _Flag("m", _positive_int, _REQUIRED, "second order m"), _P, _count(_REQUIRED),
        _COLLISION, *_COMMON)),
    "sweep": (_cmd_sweep, "all-order gap sweep with candidate follow-up", (
        _P, _Flag("n_max", _positive_int, _REQUIRED, "largest order of the sweep"), _count(5),
        _COLLISION, *_COMMON)),
    "ritz": (_cmd_ritz, "variational upper bounds from the trial basis", (
        _N, _P, _PARITY, _Flag("K", _positive_int, 20, "trial basis size"), _count(1),
        _Flag("cross_check", None, False, "also scan the determinant spectrum"), *_COMMON)),
    "plotdata": (_cmd_plotdata, "emit (lambda, Lambda, indicator) series", (
        _N, _P, _PARITY, _Flag("lambda_to", _positive_float, _REQUIRED, "eigenvalue ceiling"),
        _Flag("step", _positive_float, 0.02, "grid step in the root coordinate"), *_COMMON)),
    "selftest": (_cmd_selftest, "closed forms, identity anchors, property sweeps", (
        _Flag("seed", _seed, 2024, "seed of the property sweeps"),
        _Flag("cases", _positive_int, 200, "random cases per property sweep"), *_COMMON)),
}

_NEGATIVE_NUMBER = re.compile(r"-\d+|-\d*\.\d+")  # a value, though it starts with "-"


def _match(token: str, names) -> str | None:
    """The name a ``--`` token gives: its exact match, or the one name it is a prefix of."""
    if token in names:
        return token
    hits = [name for name in names if name.startswith(token)] if len(token) > 2 else []
    if len(hits) > 1:
        raise ConfigError(f"ambiguous flag {token}: could be {', '.join(hits)}")
    return hits[0] if hits else None


def _convert(flag: _Flag, value: str):
    try:
        return flag.convert(value)
    except ConfigError as exc:
        raise ConfigError(f"{flag.name}: {exc}") from None


def _help(command: str | None) -> str:
    if command is None:
        head = ["usage: rqlab [-h] [--version] <command> [flags]", "", __doc__.strip()]
        rows = [(name, summary) for name, (_, summary, _) in _COMMANDS.items()]
    else:
        _, summary, flags = _COMMANDS[command]
        head = [f"usage: rqlab {command} [flags]", "", summary]
        rows = [("-h, --help", "print this help")] + [
            (f.name if f.convert is None else f"{f.name} {f.dest.upper()}",
             f.help + (" (required)" if f.default is _REQUIRED else "" if f.convert is None
                       or f.default is None else f" (default {f.default})"))
            for f in flags if not f.hidden]
    width = max(len(left) for left, _ in rows) + 2
    lines = head + ["", "commands:" if command is None else "flags:"]
    return "\n".join(lines + [f"  {left:<{width}}{right}" for left, right in rows]) + "\n"


def _parse(argv: list[str]) -> SimpleNamespace | None:
    """Read argv against the flag table; print the help or version and return None if asked."""
    command, flags, given, i = None, {}, {}, 0
    while i < len(argv):
        token, i = argv[i], i + 1
        if command is None and token in _COMMANDS:
            command, flags = token, {f.name: f for f in _COMMANDS[token][2]}
            continue
        name, eq, value = token.partition("=")
        if token.startswith("--"):
            name = _match(name, [*flags, "--help"] if command else ["--help", "--version"])
        elif token != "-h":
            name = None
        if name is None:
            where = f"for {command}" if command else f"(commands: {', '.join(_COMMANDS)})"
            raise ConfigError(f"unrecognized argument {token!r} {where}")
        if name in ("-h", "--help", "--version"):
            _emit(f"rqlab {__version__}\n" if name == "--version" else _help(command), None)
            return None
        flag = flags[name]
        if flag.convert is None:  # a switch
            if eq:
                raise ConfigError(f"{name} is a switch and takes no value, got {token!r}")
            given[flag.dest] = True
            continue
        if not eq:
            if i == len(argv) or (argv[i].startswith("-") and argv[i] != "-"
                                  and not _NEGATIVE_NUMBER.fullmatch(argv[i])):
                raise ConfigError(f"{name} needs a value")
            value, i = argv[i], i + 1
        given[flag.dest] = _convert(flag, value)
    if command is None:
        raise ConfigError(f"missing command (commands: {', '.join(_COMMANDS)})")
    table = _COMMANDS[command][2]
    if given.get("config"):
        _merge_config(given["config"], command, table, given)
    missing = [f.name for f in table if f.default is _REQUIRED and f.dest not in given]
    if missing:
        raise ConfigError(f"{command} needs {', '.join(missing)}")
    return SimpleNamespace(command=command, **{f.dest: given.get(f.dest, f.default) for f in table})


def _merge_config(path: str, command: str, table, given: dict) -> None:
    """Add the config file's values to ``given``, each through its flag's converter; argv wins."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            overrides = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(overrides, dict):
        raise ConfigError("config file must hold a JSON object")
    flags = {f.dest: f for f in table}
    unknown = set(overrides) - set(flags) - {"command"}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if overrides.get("command", command) != command:
        raise ConfigError(f"config file is for command {overrides['command']!r}, not {command!r}")
    for key, value in overrides.items():
        flag = flags.get(key)
        if flag is None or value is False or value is None:
            continue
        if (value is True) != (flag.convert is None):
            need = "is a switch" if flag.convert is None else "needs a value"
            raise ConfigError(f"config key {key!r}: {flag.name} {need}, got {json.dumps(value)}")
        given.setdefault(key, True if value is True else _convert(flag, str(value)))


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
    # the heap that exists now (the imports, and all that a caller which forks
    # one child per command holds) leaves the collector's generations, so a
    # command's collections walk only what it allocates; a caller's frozen
    # heap stays frozen
    thaw = not gc.get_freeze_count()
    gc.freeze()
    try:
        return _run(argv)
    finally:
        if thaw:
            gc.unfreeze()


def _run(argv: list[str]) -> int:
    try:
        args = _parse(argv)
        if args is None:  # the help or the version was printed
            return EXIT_OK
        results, rows, columns, rollup, exit_code = _COMMANDS[args.command][0](args)
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
