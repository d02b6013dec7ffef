"""Rebuild ``reference.json``: checked facts for every argv the generator can draw.

Run from the repository root on the commit whose outputs define "correct":

    python3 perfbench/make_reference.py

Each argv runs in a forked child of a fork server, exactly as the
workloads run it.  The file records, per argv, the
exit code, eigenvalues, Ritz values, verdict counts and sweep summaries
(see ``check.facts``), its wall time (the generator sorts the menus by it),
and the commit and environment that produced it.
The run fails if any argv misses a closed-form anchor, if a menu argv
fails, or if an envelope-edge argv succeeds.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import check  # noqa: E402
import envinfo  # noqa: E402
import workloads  # noqa: E402
from harness import HERE, ForkServer  # noqa: E402


WORKERS = 2  # one fork server per CPU
OUT = HERE / "reference.json"


def key(argv: list[str]) -> str:
    return " ".join(argv)


def find_problems(table: dict[str, dict], edge: set[str]) -> list[str]:
    """Anchor misses, failing menu argv and succeeding edge argv."""
    problems = []
    for k, f in table.items():
        problems += [f"{k}: {e}" for e in check.anchor_errors(f)]
        if (k in edge) != check.op_failed(f):
            problems.append(f"{k}: {'succeeds' if k in edge else 'fails'} at this commit")
    return problems


def main() -> int:
    todo = workloads.all_argv()
    edge = {key(a) for a in workloads.edge_argv()}
    table: dict[str, dict] = {}
    costs: dict[str, float] = {}
    lock = threading.Lock()
    queue = list(reversed(todo))

    def worker():
        with ForkServer([]) as server:
            while True:
                with lock:
                    if not queue:
                        return
                    argv = queue.pop()
                r = server.run(argv)
                f = check.facts(r["exit"], r["stdout"])
                with lock:
                    table[key(argv)] = f
                    costs[key(argv)] = r["wall_s"]
                    done = len(table)
                if done % 50 == 0:
                    print(f"{done}/{len(todo)}", file=sys.stderr, flush=True)

    threads = [threading.Thread(target=worker) for _ in range(WORKERS)]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    problems = find_problems(table, edge)
    out = {
        "environment": envinfo.environment(seed=None),
        "tolerances": {"eigenvalues_rtol": check.EIG_RTOL, "ritz_rtol": check.RITZ_RTOL,
                       "gap_atol": check.GAP_ATOL},
        "argv": {key(a): table[key(a)] for a in todo},
        # wall time per argv, two ops at a time: the generator's cost order
        "cost_s": {key(a): round(costs[key(a)], 4) for a in todo},
    }
    OUT.write_text(json.dumps(out, indent=0, sort_keys=True) + "\n")
    print(f"{len(table)} argv in {time.perf_counter() - start:.0f} s -> {OUT}", file=sys.stderr)
    slowest = sorted(costs.items(), key=lambda kv: -kv[1])[:15]
    for k, s in slowest:
        print(f"{s:8.3f}  {k}", file=sys.stderr)
    for p in problems:
        print("PROBLEM", p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
