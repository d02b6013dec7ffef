"""rqlab benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload {cli-mix,sweep} --seed N \
        --seconds S --trace {0,1}

Untraced (``--trace 0``): set up several times, then issue ops one at a
time (closed loop, one client) for ``--seconds``, with
``python -m rqlab.cli --version`` start-up probes interleaved.  After every
op the fork server times a fixed calibration kernel, and op times are
scaled by the host speed it shows (``host_scales``).  Every output is
checked against ``reference.json`` and the closed-form anchors.  The last
stdout line is the result object with every end-to-end metric.

Traced (``--trace 1``): run a fixed prefix of the same seeded stream, each
op once untraced and once traced, then report every per-layer metric and
the tracing overhead (traced minus untraced) for each end-to-end metric.

A results file with the environment, every op and every metric goes to
``perfbench/results/``.  See ``WORKLOADS.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import check  # noqa: E402
import workloads  # noqa: E402
from harness import HERE, ROOT, ForkServer, child_env, run_cli  # noqa: E402

SETUP_REPS = 5
PROBES_PER_RUN = 6
# a fixed tail percentile, so that a run's op count, which the host's speed
# sets, cannot move it; a run's 40-90 ops leave 10-22 samples beyond it
TAIL_PCT = 75
# calibration-kernel time that defines the reference host: an op's wall time
# is scaled by CAL_REF_S over the kernel time measured around it
CAL_REF_S = 0.025
CAL_WINDOW = 10  # calibrations on each side of an op that set its host speed
# ops in a traced run: one of each weight unit, a fixed prefix of the stream
TRACED_OPS = {w: sum(n for *_, n in workloads.WEIGHTS[w]) for w in workloads.WORKLOADS}

END_TO_END_UNITS = {
    "setup_s": "s", "startup_s": "s", "op_tail_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB",
}
DETAIL_UNITS = {"op_p50_s": "s", "op_gmean_s": "s", "eigenvalues_per_s": "1/s",
                "checks_per_s": "1/s"}
RAW = ("op_gmean_s", "op_p50_s", "op_tail_s", "ops_per_s")

# per-layer metric -> unit; per_layer() computes the values
PER_LAYER = {
    "cli.import_s": "s", "cli.import.scipy_s": "s",
    **{f"cli.{c}.s": "s" for c in ("spectrum", "ritz", "eigenfunction", "verify", "disjoint",
                                    "plotdata", "sweep")},
    "reporting.dumps_envelope.s": "s", "reporting.envelope_bytes": "B",
    "ritz.assemble.calls": "count", "ritz.assemble.s": "s", "ritz.ritz_values.s": "s",
    "ritz.basis_size_sum": "count",
    "solver.scan_spectrum.calls": "count", "solver.scan_spectrum.s": "s",
    "solver.scan_spectrum.self_s": "s",
    "solver.boundary_matrix.calls": "count", "solver.boundary_matrix.s": "s",
    "solver.det_indicator.calls": "count",
    "solver.brentq.calls": "count", "solver.brentq.s": "s",
    "solver.brent_iterations": "count", "solver.untrusted_points": "count",
    "solver.det_evals_per_eigenvalue": "ratio", "solver.failed_scans": "count",
    "solver.cached_spectrum.calls": "count", "solver.store_hit_ratio": "ratio",
    "solver.extract_eigenfunction.calls": "count", "solver.extract_eigenfunction.s": "s",
    "problem.solution_basis.calls": "count", "problem.solution_basis.s": "s",
    "problem.root_system.calls": "count",
    "exppoly.inner_product.calls": "count", "exppoly.inner_product.s": "s",
    **{f"exppoly.ExpPoly.{m}.{k}": u for m in ("integrate_unit", "differentiate", "evaluate",
                                               "__mul__") for k, u in (("calls", "count"),
                                                                       ("s", "s"))},
    "exppoly.SigmaPolynomial.apply.calls": "count", "exppoly.SigmaPolynomial.apply.s": "s",
    "invariants.run_identity_suite.s": "s",
    "invariants.check.calls": "count", "invariants.check.s": "s",
    "invariants.stone_polynomials.calls": "count", "invariants.stone_polynomials.s": "s",
    "invariants.moments.calls": "count", "invariants.moments.s": "s",
    "invariants.stone_polynomials.calls_per_pair": "ratio",
    "invariants.reports.pass": "count", "invariants.reports.fail": "count",
    "invariants.reports.na": "count",
    "disjointness.compare_spectra.calls": "count", "disjointness.compare_spectra.s": "s",
    "disjointness.sweep_conjecture.s": "s",
    "disjointness.evaluate_necessary_conditions.calls": "count",
    "disjointness.evaluate_necessary_conditions.s": "s",
    "disjointness.candidates": "count",
}


class Runner:
    """Issues ops for one workload and checks every output."""

    def __init__(self, workload: str, reference: dict):
        self.workload = workload
        self.reference = reference["argv"]
        self.costs = reference["cost_s"]
        self.server: ForkServer | None = None
        self.import_s: list[float] = []

    def setup(self, seed: int) -> tuple[workloads.OpStream, float]:
        """Generate the op stream and warm up; returns the stream and the set-up time."""
        start = time.perf_counter()
        stream = workloads.OpStream(self.workload, seed, self.costs)
        self.close()
        self.server = ForkServer(workloads.WARMUP[self.workload])
        self.import_s.append(self.server.import_s)
        return stream, time.perf_counter() - start

    def close(self) -> None:
        if self.server is not None:
            self.server.close()
            self.server = None

    def op(self, argv: list[str], trace: bool = False) -> dict:
        r = self.server.run(argv, trace)
        try:
            f = check.facts(r["exit"], r["stdout"])
        except (ValueError, KeyError, TypeError) as exc:
            f = {"exit": r["exit"], "unreadable": f"{type(exc).__name__}: {exc}"}
        ref = self.reference.get(" ".join(argv))
        errors = check.deviations(f, ref) if "unreadable" not in f else [f["unreadable"]]
        eig, checks = check.delivered(f)
        return {
            "argv": argv, "exit": r["exit"], "wall_s": r["wall_s"], "cpu_s": r["cpu_s"],
            "maxrss_kb": r["maxrss_kb"],
            "failed": check.op_failed(f), "errors": errors[:5], "eigenvalues": eig,
            "checks": checks, "stdout": r["stdout"], "stderr": r["stderr"][-2000:],
            "trace": r["trace"],
        }

    def probe(self) -> float:
        r = run_cli(["--version"])
        if r["exit"] != 0 or not r["stdout"].startswith("rqlab "):
            raise RuntimeError(f"--version probe failed: {r['stderr']}")
        return r["wall_s"]


# ---------------------------------------------------------------- statistics


def tail(samples: list[float]) -> tuple[float, int]:
    """The TAIL_PCT percentile (nearest rank) and the number of samples beyond it."""
    xs = sorted(samples)
    k = round(TAIL_PCT / 100 * (len(xs) - 1))
    return xs[k], len(xs) - 1 - k


def host_scales(cal: list[float]) -> list[float]:
    """Per op: CAL_REF_S over the median calibration time around the op."""
    return [CAL_REF_S / statistics.median(cal[max(0, i - CAL_WINDOW):i + CAL_WINDOW + 1])
            for i in range(len(cal))]


def end_to_end(ops: list[dict], setup_s: list[float], probes: list[float],
               scales: list[float] | None = None) -> dict:
    """One run's metrics; with ``scales`` (one per op) op times are host-adjusted."""
    scales = scales or [1.0] * len(ops)
    adjusted = [o["wall_s"] * h for o, h in zip(ops, scales)]
    busy = sum(adjusted)
    good = [(o, t) for o, t in zip(ops, adjusted) if not o["failed"] and not o["errors"]]
    walls = [t for _, t in good]
    tail_s, beyond = tail(walls) if walls else (float("nan"), 0)
    nan = float("nan")
    return {
        "setup_s": statistics.median(setup_s) if setup_s else nan,
        "startup_s": statistics.median(probes) if probes else nan,
        "op_gmean_s": math.exp(statistics.fmean(map(math.log, walls))) if walls else nan,
        "op_p50_s": statistics.median(walls) if walls else nan,
        "op_tail_s": tail_s,
        "ops_per_s": len(good) / busy if busy > 0 else nan,
        "peak_rss_mb": max(o["maxrss_kb"] for o in ops) / 1024 if ops else nan,
        "eigenvalues_per_s": sum(o["eigenvalues"] for o, _ in good) / busy if busy else 0.0,
        "checks_per_s": sum(o["checks"] for o, _ in good) / busy if busy else 0.0,
        "host_speed": statistics.median(scales) if ops else nan,
        "_tail": {"percentile": TAIL_PCT, "samples": len(walls), "beyond": beyond},
    }


# ---------------------------------------------------------------- runs


def untraced(runner: Runner, seed: int, seconds: float) -> dict:
    setups, stream = [], None
    for _ in range(SETUP_REPS):
        stream, s = runner.setup(seed)
        setups.append(s)
    ops, probes, cal = [], [], []
    probe_gap = seconds / PROBES_PER_RUN
    deadline = time.perf_counter() + seconds
    next_probe = 0.0
    while (now := time.perf_counter()) < deadline:
        if now >= next_probe:
            probes.append(runner.probe())
            next_probe = now + probe_gap
        ops.append(runner.op(stream.next()))
        cal.append(runner.server.calibrate())
    edge = [runner.op(argv) for argv in stream.edge_ops()]
    runner.close()
    return {"ops": ops, "edge": edge, "setups": setups, "probes": probes, "cal": cal,
            "metrics": end_to_end(ops, setups, probes, host_scales(cal)),
            "raw": end_to_end(ops, setups, probes)}


def _masked(stdout: str) -> str:
    return re.sub(r'"generated_at": "[^"]*"', '"generated_at": ""', stdout)


def scipy_import_s() -> float:
    """Seconds of ``import rqlab.cli`` spent importing scipy modules (-X importtime)."""
    out = subprocess.run([sys.executable, "-X", "importtime", "-c", "import rqlab.cli"],
                         capture_output=True, text=True, env=child_env(), cwd=ROOT, timeout=120)
    total_us = 0
    for line in out.stderr.splitlines():
        m = re.match(r"import time:\s*(\d+)\s*\|\s*\d+\s*\|\s*(\S+)", line.strip())
        if m and m.group(2).split(".")[0] == "scipy":
            total_us += int(m.group(1))
    return total_us / 1e6


def traced(runner: Runner, seed: int) -> dict:
    setups, stream = [], None
    for _ in range(SETUP_REPS):
        stream, s = runner.setup(seed)
        setups.append(s)
    plain, traced_ops, mismatches = [], [], []
    for argv in [stream.next() for _ in range(TRACED_OPS[runner.workload])]:
        a = runner.op(argv)
        b = runner.op(argv, trace=True)
        plain.append(a)
        traced_ops.append(b)
        if _masked(a["stdout"]) != _masked(b["stdout"]) or a["exit"] != b["exit"]:
            mismatches.append(" ".join(argv))
    edge = [runner.op(argv, trace=True) for argv in stream.edge_ops()]
    if runner.workload == "sweep":
        edge.append(runner.op(list(workloads.EDGE_SWEEP), trace=True))
    runner.close()
    m_plain = end_to_end(plain, setups, [])
    m_traced = end_to_end(traced_ops, setups, [])
    overhead = {k: m_traced[k] - m_plain[k] for k in ("op_gmean_s", "op_p50_s", "op_tail_s",
                                                       "ops_per_s", "peak_rss_mb")}
    overhead["setup_s"] = overhead["startup_s"] = "not traced"
    summaries = [o["trace"] for o in traced_ops + edge if o["trace"]]
    layer, absent = per_layer(summaries, statistics.median(runner.import_s), scipy_import_s())
    return {"ops": plain + traced_ops, "paired": len(plain), "edge": edge, "setups": setups,
            "mismatches": mismatches, "per_layer": layer, "absent": absent,
            "overhead": overhead, "untraced": m_plain, "traced": m_traced,
            "spans": [[op, *span] for op, t in enumerate(summaries) for span in t["spans"]]}


def per_layer(summaries: list[dict], import_s: float, scipy_s: float) -> tuple[dict, list]:
    labels: dict[str, dict] = {}
    counters: dict[str, float] = {}
    absent: set[str] = set()
    for t in summaries:
        for label, row in t["labels"].items():
            acc = labels.setdefault(label, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for k in acc:
                acc[k] += row[k]
        for k, v in t["counters"].items():
            counters[k] = counters.get(k, 0) + v
        absent.update(t["absent"])

    def ratio(a, b):
        return a / b if b else 0.0

    def get(name: str) -> float:
        if name == "cli.import_s":
            return import_s
        if name == "cli.import.scipy_s":
            return scipy_s
        if name == "solver.det_evals_per_eigenvalue":
            return ratio(get("solver.boundary_matrix.calls"),
                         counters.get("solver.scanned_eigenvalues", 0))
        if name == "solver.store_hit_ratio":
            calls = get("solver.cached_spectrum.calls")
            return 1.0 - ratio(counters.get("solver.scans_in_store", 0), calls) if calls else 0.0
        if name == "invariants.stone_polynomials.calls_per_pair":
            return ratio(get("invariants.stone_polynomials.calls"),
                         counters.get("invariants.stone_polynomials.pairs", 0))
        if name in counters:
            return counters[name]
        label, _, field = name.rpartition(".")
        if field in ("calls", "s", "self_s"):
            return labels.get(label, {}).get(field, 0)
        return 0

    out = {name: get(name) for name in PER_LAYER}
    # a metric whose wrapped function is missing from the code under test
    gone = sorted(n for n in PER_LAYER if any(n.startswith(a + ".") for a in absent))
    return out, gone


# ---------------------------------------------------------------- main


def _record(o: dict) -> dict:
    return {k: o[k] for k in ("argv", "exit", "wall_s", "cpu_s", "maxrss_kb", "failed", "errors")}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="rqlab benchmark (see WORKLOADS.md)")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "rqlab" / "cli.py").is_file():
        print(f"perfbench: no rqlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    ref_path = HERE / "reference.json"
    if not ref_path.is_file():
        print("perfbench: reference.json is missing (run make_reference.py)", file=sys.stderr)
        return 2
    reference = json.loads(ref_path.read_text())

    import envinfo

    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)
    runner = Runner(args.workload, reference)
    try:
        run = traced(runner, args.seed) if args.trace else untraced(runner, args.seed, args.seconds)
    finally:
        runner.close()

    ops, edge = run["ops"], run["edge"]
    wrong = [o for o in ops if o["errors"] or o["failed"]]
    # edge ops are known failures at the seed: only a departure from the
    # reference counts against correctness, and a fix is reported, not failed
    edge_wrong = [o for o in edge if o["errors"] and o["failed"]]
    edge_fixed = [o for o in edge if o["errors"] and not o["failed"]]
    attempted = len(ops) + len(edge)
    failed = len(wrong) + len(edge_wrong) + len(run.get("mismatches", []))
    error_rate = (len(wrong) + sum(o["failed"] for o in edge)) / attempted

    env = envinfo.environment(args.seed)
    result_file = {
        "environment": env,
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "attempted": attempted, "failed": failed, "error_rate": error_rate,
        "edge": {"failing_argv": [" ".join(o["argv"]) for o in edge if o["failed"]],
                 "fixed_argv": [" ".join(o["argv"]) for o in edge_fixed]},
        "setup_reps_s": run["setups"],
        "ops": [_record(o) for o in ops], "edge_ops": [_record(o) for o in edge],
    }
    if args.trace:
        metrics = {k: {"value": v, "unit": PER_LAYER[k]} for k, v in run["per_layer"].items()}
        result_file.update(per_layer=run["per_layer"], absent=run["absent"],
                           overhead=run["overhead"], untraced=run["untraced"],
                           traced=run["traced"], envelope_mismatches=run["mismatches"],
                           spans=run["spans"])
        detail = {"overhead": run["overhead"], "absent": run["absent"],
                  "envelope_mismatches": run["mismatches"]}
    else:
        m = run["metrics"]
        metrics = {k: {"value": m[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
        raw = {k: run["raw"][k] for k in RAW}
        result_file.update(end_to_end=m, raw_wall_clock=raw, probes_s=run["probes"],
                           calibration_s=run["cal"])
        detail = {k: {"value": m[k], "unit": u} for k, u in DETAIL_UNITS.items()}
        detail["error_rate"] = {"value": error_rate, "unit": "ratio"}
        detail["op_tail_s"] = m["_tail"]
        detail["host_speed"] = m["host_speed"]
        detail["raw_wall_clock"] = raw
    detail["failing_edge_argv"] = result_file["edge"]["failing_argv"]
    out_path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(result_file, indent=1, default=str) + "\n")

    for o in wrong + edge_wrong:
        print(f"perfbench: {' '.join(o['argv'])}: exit {o['exit']} {o['errors']}", file=sys.stderr)
    print(json.dumps({"environment": env, "results_file": str(out_path.relative_to(ROOT)),
                      **detail}, default=str))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
