"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/repeat.py --workloads cli-mix,sweep --seeds 1-10 \
        [--seconds 30] [--trace 0] [--out summary.json]

For every workload and end-to-end metric it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``), the spread (distance
between the quartiles over the median) and the metric's bound from
``BENCHMARK.json``.  With ``--out`` the runs and the summary are written as
JSON, environment included.  Runs go one at a time, from the repository
root.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import envinfo  # noqa: E402
from harness import ROOT  # noqa: E402


def seeds_arg(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="cli-mix,sweep")
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--seconds", type=int, default=None, help="default: BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"environment": envinfo.environment(seed=None), "seconds": seconds,
              "trace": args.trace, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            detail, result = run_once(workload, seed, seconds, args.trace)
            ok &= result["correct"]
            runs.append({"seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"],
                         "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                         "detail": {k: v for k, v in detail.items() if k != "environment"}})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        names = list(runs[0]["metrics"])
        summary = {n: summarise([r["metrics"][n] for r in runs]) for n in names}
        report["workloads"][workload] = {"runs": runs, "summary": summary}
        for n, s in summary.items():
            bound = bounds.get(n)
            mark = ""
            if bound is not None:  # "WIDE": spread above a third of the bound
                mark = f"  bound {bound}  {'ok' if s['spread'] <= bound / 3 else 'WIDE'}"
            print(f"  {n:44s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}"
                  f"  spread {s['spread']:.3f}{mark}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
