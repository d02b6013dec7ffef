"""Workload menus and the seeded op generator.

Each workload has a finite menu: a few strata (one command's argv list),
each with a variant (flags appended to the drawn argv, such as a loose
collision tolerance) and a weight, its share of the ops.  The generator
sorts the whole weighted menu by the cost each argv had at the seed commit
(``reference.json``) and walks it by inverse-CDF sampling with a golden-ratio
sequence: the k-th op is the menu entry at weighted quantile
``frac(u0 + k * 0.618...)``.  Any stretch of consecutive ops so samples the
cheap and the dear parts of the menu evenly, which keeps medians and
throughput comparable between seeds.  The seed sets ``u0``.  A workload
may keep only the argv whose seed-commit cost lies in a band (``COST_BAND``).

Because every argv the generator can draw comes from an enumerable menu,
the reference table covers all of them.  rqlab only ever sees the generated
argv.  No op passes ``--jobs``.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random

WORKLOADS = ("cli-mix", "sweep")

PARITIES = ("sym", "antisym")


def _orders(n_max: int, p_max: int | None = None):
    """(n, p) with 1 <= p <= n <= n_max."""
    return [(n, p) for n in range(1, n_max + 1) for p in range(1, n + 1)
            if p_max is None or p <= p_max]


def _json(argv):
    return argv + ["--format", "json"]


def _plain(argv):
    return []


def _loose(argv):
    return ["--collision-tol", "0.05"]


# ---------------------------------------------------------------- cli-mix


def cli_mix_menu() -> dict[str, list[list[str]]]:
    menu: dict[str, list[list[str]]] = {k: [] for k in ("spectrum", "ritz", "eigenfunction",
                                                        "verify", "disjoint", "plotdata")}
    for n, p in _orders(4):
        order = ["--n", str(n), "--p", str(p)]
        for par in PARITIES:
            for c in range(1, 5):
                menu["spectrum"].append(["spectrum", *order, "--parity", par, "--count", str(c)])
                menu["eigenfunction"].append(["eigenfunction", *order, "--parity", par,
                                              "--index", str(c - 1)])
                for K in (12, 16, 20):
                    menu["ritz"].append(["ritz", *order, "--parity", par, "--K", str(K),
                                         "--count", str(c), "--cross-check"])
            for to in (100, 400):
                menu["plotdata"].append(["plotdata", *order, "--parity", par,
                                         "--lambda-to", str(to)])
        for c in range(1, 5):
            menu["verify"].append(["verify", *order, "--count", str(c)])
        for m in range(n + 1, 5):
            for c in range(1, 5):
                menu["disjoint"].append(["disjoint", "--n", str(n), "--m", str(m),
                                         "--p", str(p), "--count", str(c)])
    return menu


# the Ritz-heavy commands (spectrum with its K=20 column, ritz) make up
# 10 of 14 ops, so the median op is a Ritz-heavy one rather than a boundary
# between them and the light commands
CLI_MIX_WEIGHTS = (("spectrum", _plain, 8), ("ritz", _plain, 2), ("eigenfunction", _plain, 1),
                   ("verify", _plain, 1), ("disjoint", _plain, 1), ("plotdata", _plain, 1))

# ---------------------------------------------------------------- sweep

# highest n_max per p at which `sweep --count <= 5` succeeds at the seed
SWEEP_N_MAX = {1: 7, 2: 8, 3: 8}


def sweep_menu() -> dict[str, list[list[str]]]:
    menu: dict[str, list[list[str]]] = {"sweep": [], "disjoint": []}
    for p, top in SWEEP_N_MAX.items():
        for n_max in range(p + 1, top + 1):
            for c in (3, 4, 5):
                menu["sweep"].append(["sweep", "--p", str(p), "--n-max", str(n_max),
                                      "--count", str(c)])
    for n, p in _orders(5, p_max=3):
        for m in range(n + 1, 7):
            for c in (4, 5, 6):
                menu["disjoint"].append(["disjoint", "--n", str(n), "--m", str(m),
                                         "--p", str(p), "--count", str(c)])
    return menu


# a quarter of the ops run with the loose collision tolerance
SWEEP_WEIGHTS = (("sweep", _plain, 3), ("sweep", _loose, 1), ("disjoint", _plain, 3),
                 ("disjoint", _loose, 1))

# Only argv whose seed-commit time lies in this band are drawn, so the dearest
# op costs at most 10 times the cheapest and a run's median and throughput do
# not hinge on how many of a few 2-3 s ops it happened to draw.
COST_BAND = {"sweep": (0.15, 1.5)}

# ---------------------------------------------------------------- edge ops

# ops at the edge of the supported envelope, failing at the seed; the
# generator never draws them into the measured phase, and they run after
# it, so they count in error_rate but not in timings
EDGE = {
    # count 8 touching (7,1) or (8,2): the scan finds too few eigenvalues
    "sweep": [_json(["disjoint", "--n", str(n), "--m", "7", "--p", "1", "--count", "8"])
              for n in range(1, 7)]
    + [_json(["disjoint", "--n", str(n), "--m", "8", "--p", "2", "--count", "8"])
       for n in range(2, 8)],
    # (8,1) finds only 2 eigenvalues, and root-completeness fails at index 4
    # for (5,2) and (6,2)
    "cli-mix": [_json(["verify", "--n", "6", "--p", "1", "--count", str(c), "--m", "8"])
               for c in (3, 4, 5)]
    + [_json(["verify", "--n", str(n), "--p", "2", "--count", "5"] + m)
       for n in (5, 6) for m in ([], ["--m", str(n + 2)])],
}
EDGE_OPS_PER_RUN = 1
# issued by the traced sweep run: partial, rescanning order 7 once per pair
EDGE_SWEEP = _json(["sweep", "--p", "1", "--n-max", "7", "--count", "8"])

# ---------------------------------------------------------------- generator

_MENUS = {"cli-mix": cli_mix_menu, "sweep": sweep_menu}
WEIGHTS = {"cli-mix": CLI_MIX_WEIGHTS, "sweep": SWEEP_WEIGHTS}

# a small fixed op that warms the process up before the first measured op
WARMUP = {
    "cli-mix": _json(["eigenfunction", "--n", "1", "--p", "1", "--parity", "sym", "--index", "0"]),
    "sweep": _json(["sweep", "--p", "1", "--n-max", "3", "--count", "3"]),
}

_GOLDEN = (math.sqrt(5) - 1) / 2


def _menu(workload: str, costs: dict | None = None) -> list[tuple[list[str], float]]:
    """(argv, weight) for every op the workload can draw; weights sum to 1.

    With ``costs``, argv outside the workload's ``COST_BAND`` are left out.
    """
    menu, excluded = _MENUS[workload](), {tuple(a) for a in EDGE.get(workload, [])}
    lo, hi = COST_BAND.get(workload, (0.0, math.inf))
    total = sum(w for _, _, w in WEIGHTS[workload])
    out = []
    for stratum, variant, weight in WEIGHTS[workload]:
        ops = [_json(b + variant(b)) for b in menu[stratum]]
        ops = [a for a in ops if tuple(a) not in excluded
               and (costs is None or lo <= costs[" ".join(a)] <= hi)]
        out += [(a, weight / total / len(ops)) for a in ops]
    return out


class OpStream:
    """Seeded, endless op sequence for one workload.

    ``costs`` maps each argv (joined by spaces) to its wall time at the
    seed commit; it orders the menu and sets the cost band.
    """

    def __init__(self, workload: str, seed: int, costs: dict[str, float]):
        self.workload = workload
        entries = sorted(_menu(workload, costs), key=lambda e: (costs[" ".join(e[0])], e[0]))
        self.ops = [a for a, _ in entries]
        self.cum = list(itertools.accumulate(w for _, w in entries))
        self.u = random.Random(f"{workload}:{seed}").random()
        self.edge_rng = random.Random(f"{workload}:{seed}:edge")

    def next(self) -> list[str]:
        self.u = (self.u + _GOLDEN) % 1.0
        return list(self.ops[min(bisect.bisect_right(self.cum, self.u), len(self.ops) - 1)])

    def edge_ops(self) -> list[list[str]]:
        """Envelope-edge ops for this run, drawn from the workload's known failures."""
        edge = EDGE.get(self.workload, [])
        return [list(a) for a in self.edge_rng.sample(edge, min(EDGE_OPS_PER_RUN, len(edge)))]


def edge_argv() -> list[list[str]]:
    return [a for ops in EDGE.values() for a in ops] + [EDGE_SWEEP]


def all_argv() -> list[list[str]]:
    """Every argv any workload can draw, edge ops and warm-ups included."""
    out = {tuple(a): a for w in WEIGHTS for a, _ in _menu(w)}
    for argv in edge_argv() + list(WARMUP.values()):
        out.setdefault(tuple(argv), argv)
    return list(out.values())
