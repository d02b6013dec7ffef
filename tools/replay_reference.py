"""Replay every argv of ``perfbench/reference.json`` and check it against its recorded facts.

Run from the repository root:

    python3 tools/replay_reference.py

Each argv runs in a child forked from a fork server that has imported
``rqlab.cli`` and nothing else, so every op starts from an empty spectrum
store, as the benchmark runs it.  Its output is reduced with
``perfbench/check.py`` and compared with the reference facts and the
closed-form anchors, and its JSON stdout must come back byte for byte from
``json.loads`` and ``json.dumps(..., sort_keys=True, indent=2,
allow_nan=False)`` plus a newline.  Every deviation is printed and makes the
exit code 1, except that an envelope-edge argv (a known failure when the
reference was recorded) that now succeeds is reported as fixed, as
``perfbench/run.py`` reports it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import check  # noqa: E402
import workloads  # noqa: E402
from harness import ForkServer  # noqa: E402


UNSTABLE = "the JSON stdout does not round-trip byte for byte"


def _reemitted(text: str) -> str:
    return json.dumps(json.loads(text), sort_keys=True, indent=2, allow_nan=False) + "\n"


def main() -> int:
    reference = json.loads((PERFBENCH / "reference.json").read_text())["argv"]
    edge = {" ".join(a) for a in workloads.edge_argv()}
    deviating, fixed = [], []
    with ForkServer([]) as server:
        for key, ref in reference.items():
            r = server.run(key.split(" "))
            try:
                live = check.facts(r["exit"], r["stdout"])
                errors = check.compare(live, ref) + check.anchor_errors(live)
                if r["stdout"] and _reemitted(r["stdout"]) != r["stdout"]:
                    errors.append(UNSTABLE)
            except (ValueError, KeyError, TypeError) as exc:
                live, errors = {"exit": r["exit"]}, [f"unreadable output: {exc!r}"]
            if not errors:
                continue
            if key in edge and not check.op_failed(live) and UNSTABLE not in errors:
                fixed.append(key)
            else:
                deviating.append(key)
                print(f"DEVIATES {key}: exit {r['exit']} {errors[:5]}")
    for key in fixed:
        print(f"FIXED {key}")
    print(f"replayed {len(reference)} argv: {len(deviating)} deviate, "
          f"{len(fixed)} edge argv now succeed")
    return 1 if deviating else 0


if __name__ == "__main__":
    sys.exit(main())
