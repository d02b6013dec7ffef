"""Spans around the calls into each rqlab layer, installed from outside rqlab.

``Recorder.install()`` replaces each target function with a timing wrapper
and rebinds every module-level ``from ... import`` copy of it inside the
``rqlab`` package (for example ``rqlab.cli.scan_spectrum`` and
``rqlab.invariants.cached_spectrum``); ``uninstall()`` restores every
original binding.  A target missing from the code under test is recorded
as absent, never raised.

Each call becomes a span: label, start, end, parent span.  Every
span adds to its label's calls, inclusive seconds and self seconds as it
closes; the spans of coarse (non-hot) labels also stay in memory and go
to the results file with ``summary()``, together with the counters the
hooks collect.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# ---------------------------------------------------------------- hooks


def _envelope_bytes(rec, result, args, kwargs):
    rec.counters["reporting.envelope_bytes"] += len(result.encode())


def _basis_size(rec, result, args, kwargs):
    rec.counters["ritz.basis_size_sum"] += int(getattr(result, "K", 0))


def _scan_done(rec, result, args, kwargs):
    meta = result.metadata
    rec.counters["solver.brent_iterations"] += sum(meta.refinement_iterations)
    rec.counters["solver.untrusted_points"] += meta.untrusted_points
    rec.counters["solver.scanned_eigenvalues"] += len(result.eigenvalues)


def _scan_failed(rec, exc, args, kwargs):
    if any(c.__name__ == "SolverError" for c in type(exc).__mro__):
        rec.counters["solver.failed_scans"] += 1


def _verdict(rec, result, args, kwargs):
    verdict = getattr(result, "verdict", None)
    key = verdict if verdict in ("pass", "fail") else "na"
    rec.counters[f"invariants.reports.{key}"] += 1


def _stone_pair(rec, result, args, kwargs):
    pair = args[0] if args else kwargs.get("pair")
    spec = getattr(pair, "spec", None)
    rec.stone_pairs.add((getattr(spec, "n", None), getattr(spec, "p", None),
                         getattr(spec, "parity", None), getattr(pair, "index", None)))


def _candidates(rec, result, args, kwargs):
    rec.counters["disjointness.candidates"] += len(result.candidates)


# (label, module, attribute path, on_return, on_raise); a path ending in "*"
# wraps every module function with that prefix under one label
TARGETS = (
    ("reporting.dumps_envelope", "reporting", "dumps_envelope", _envelope_bytes, None),
    ("ritz.assemble", "ritz", "assemble", _basis_size, None),
    ("ritz.ritz_values", "ritz", "ritz_values", None, None),
    ("solver.scan_spectrum", "solver", "scan_spectrum", _scan_done, _scan_failed),
    ("solver.boundary_matrix", "solver", "boundary_matrix", None, None),
    ("solver.det_indicator", "solver", "det_indicator", None, None),
    ("solver.brentq", "solver", "brentq", None, None),
    ("solver.extract_eigenfunction", "solver", "extract_eigenfunction", None, None),
    ("solver.cached_spectrum", "solver", "cached_spectrum", None, None),
    ("problem.solution_basis", "problem", "solution_basis", None, None),
    ("problem.root_system", "problem", "root_system", None, None),
    ("exppoly.inner_product", "exppoly", "inner_product", None, None),
    ("exppoly.ExpPoly.integrate_unit", "exppoly", "ExpPoly.integrate_unit", None, None),
    ("exppoly.ExpPoly.differentiate", "exppoly", "ExpPoly.differentiate", None, None),
    ("exppoly.ExpPoly.evaluate", "exppoly", "ExpPoly.evaluate", None, None),
    ("exppoly.ExpPoly.__mul__", "exppoly", "ExpPoly.__mul__", None, None),
    ("exppoly.SigmaPolynomial.apply", "exppoly", "SigmaPolynomial.apply", None, None),
    ("invariants.run_identity_suite", "invariants", "run_identity_suite", None, None),
    ("invariants.check", "invariants", "check_*", _verdict, None),
    ("invariants.stone_polynomials", "invariants", "stone_polynomials", _stone_pair, None),
    ("invariants.moments", "invariants", "moments", None, None),
    ("disjointness.compare_spectra", "disjointness", "compare_spectra", _candidates, None),
    ("disjointness.sweep_conjecture", "disjointness", "sweep_conjecture", None, None),
    ("disjointness.evaluate_necessary_conditions", "disjointness",
     "evaluate_necessary_conditions", None, None),
)

# labels called so often that their individual spans are not written out
HOT_PREFIXES = ("exppoly.", "problem.", "solver.boundary_matrix", "solver.det_indicator",
                "solver.brentq")


class Recorder:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.labels: list[str] = []
        self._index: dict[str, int] = {}
        self.calls: list[int] = []
        self.inclusive: list[float] = []
        self.self_s: list[float] = []
        self._active: list[int] = []  # open spans per label, for recursion
        self._stack: list[list] = []  # open frames: [start, child seconds, kept span index]
        self.spans: list[list] = []  # kept spans: [label, start, end, parent]
        self.counters: dict[str, int] = defaultdict(int)
        self.stone_pairs: set = set()
        self.absent: list[str] = []
        self._saved: list[tuple] = []  # (owner, attribute, original)

    # ------------------------------------------------------------ spans

    def _label_id(self, label: str) -> int:
        if label not in self._index:
            self._index[label] = len(self.labels)
            self.labels.append(label)
            for acc in (self.calls, self.inclusive, self.self_s, self._active):
                acc.append(0)
        return self._index[label]

    def wrap(self, label: str, fn, on_return=None, on_raise=None):
        """``fn`` timed as spans of ``label``.

        Self time is the span's duration minus the time its child spans
        cover; inclusive time counts only the outermost span of a label, so
        recursion is not counted twice.  Spans of hot labels are aggregated
        but not kept.
        """
        lid = self._label_id(label)
        keep = not label.startswith(HOT_PREFIXES)
        rec, clock, stack, active = self, self.clock, self._stack, self._active

        def close(frame):
            end = clock()
            stack.pop()
            dur = end - frame[0]
            rec.calls[lid] += 1
            active[lid] -= 1
            if not active[lid]:
                rec.inclusive[lid] += dur
            rec.self_s[lid] += dur - frame[1]
            if stack:
                stack[-1][1] += dur
            if frame[2] >= 0:
                rec.spans[frame[2]][2] = end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            active[lid] += 1
            frame = [clock(), 0.0, -1]
            if keep:
                parent = next((f[2] for f in reversed(stack) if f[2] >= 0), -1)
                frame[2] = len(rec.spans)
                rec.spans.append([label, frame[0], 0.0, parent])
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                close(frame)
                if on_raise is not None:
                    on_raise(rec, exc, args, kwargs)
                raise
            close(frame)
            if on_return is not None:
                on_return(rec, result, args, kwargs)
            return result

        return wrapper

    def call_main(self, main, argv: list[str]) -> int:
        """Run the CLI entry point as one ``cli.<command>`` span."""
        command = next((a for a in argv if not a.startswith("-")), "none")
        return self.wrap(f"cli.{command}", main)(argv)

    # ------------------------------------------------------------ install

    def _bind(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _install_one(self, label, module_name, path, on_return, on_raise) -> None:
        try:
            module = importlib.import_module(f"rqlab.{module_name}")
        except ImportError:
            self.absent.append(label)
            return
        *owners, attr = path.split(".")
        owner = module
        for name in owners:
            owner = getattr(owner, name, None)
            if owner is None:
                self.absent.append(label)
                return
        if attr.endswith("*"):
            names = [k for k, v in vars(owner).items() if k.startswith(attr[:-1]) and callable(v)]
        else:
            names = [attr] if attr in vars(owner) else []
        if not names:
            self.absent.append(label)
            return
        for name in names:
            original = vars(owner)[name]
            wrapper = self.wrap(label, original, on_return, on_raise)
            self._bind(owner, name, wrapper)
            if owner is module:  # rebind `from ... import` copies across the package
                for mod_name, mod in list(sys.modules.items()):
                    if mod is module or not (mod_name == "rqlab" or mod_name.startswith("rqlab.")):
                        continue
                    for k, v in list(vars(mod).items()):
                        if v is original:
                            self._bind(mod, k, wrapper)

    def install(self) -> "Recorder":
        for target in TARGETS:
            self._install_one(*target)
        return self

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------ summary

    def summary(self) -> dict:
        labels = {label: {"calls": self.calls[i], "s": self.inclusive[i], "self_s": self.self_s[i]}
                  for i, label in enumerate(self.labels) if self.calls[i]}
        scans_in_store = sum(
            1 for label, _, _, parent in self.spans
            if label == "solver.scan_spectrum" and parent >= 0
            and self.spans[parent][0] == "solver.cached_spectrum"
        )
        counters = dict(self.counters)
        counters["solver.scans_in_store"] = scans_in_store
        counters["invariants.stone_polynomials.pairs"] = len(self.stone_pairs)
        return {"labels": labels, "counters": counters, "absent": sorted(set(self.absent)),
                "spans": self.spans}
