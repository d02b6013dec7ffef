"""Self-tests of the benchmark harness.

Run from the repository root: ``python3 -m pytest -q perfbench/tests``
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import check  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from harness import ForkServer  # noqa: E402

REFERENCE = HERE / "reference.json"


def _reference():
    return json.loads(REFERENCE.read_text())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    costs = _reference()["cost_s"]
    a, b = (workloads.OpStream(workload, 7, costs) for _ in range(2))
    first = [a.next() for _ in range(30)] + a.edge_ops()
    assert first == [b.next() for _ in range(30)] + b.edge_ops()
    other = workloads.OpStream(workload, 8, costs)
    assert [other.next() for _ in range(30)] != first[:30]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_keeps_the_weights(workload):
    stream = workloads.OpStream(workload, 3, _reference()["cost_s"])
    drawn = [stream.next() for _ in range(400)]
    weights = workloads.WEIGHTS[workload]
    total = sum(w for *_, w in weights)
    menus = workloads._MENUS[workload]()
    for stratum, variant, w in weights:
        menu = {tuple(workloads._json(b + variant(b))) for b in menus[stratum]}
        share = sum(tuple(a) in menu for a in drawn) / len(drawn)
        assert abs(share - w / total) < 0.05, (stratum, share)
    assert not {tuple(a) for a in drawn} & {tuple(a) for a in workloads.EDGE.get(workload, [])}


def test_cost_band_limits_the_sweep_menu():
    costs = _reference()["cost_s"]
    lo, hi = workloads.COST_BAND["sweep"]
    stream = workloads.OpStream("sweep", 5, costs)
    assert all(lo <= costs[" ".join(a)] <= hi for a in stream.ops)
    assert len(stream.ops) < len(workloads._menu("sweep"))


def test_every_drawable_argv_has_a_reference():
    ref = _reference()
    for a in workloads.all_argv():
        assert " ".join(a) in ref["argv"]
        assert "--jobs" not in a
    for w in workloads.WORKLOADS:
        assert all(" ".join(a) in ref["cost_s"] for a, _ in workloads._menu(w))


def test_wrappers_restore_original_bindings():
    import rqlab.cli
    import rqlab.exppoly
    import rqlab.invariants
    import rqlab.solver

    bindings = [
        (rqlab.solver, "scan_spectrum"), (rqlab.cli, "scan_spectrum"),
        (rqlab.solver, "cached_spectrum"), (rqlab.invariants, "cached_spectrum"),
        (rqlab.cli, "dumps_envelope"), (rqlab.invariants, "check_stone_identity"),
        (rqlab.exppoly.ExpPoly, "evaluate"), (rqlab.exppoly.ExpPoly, "__mul__"),
    ]
    before = [vars(owner)[name] for owner, name in bindings]
    rec = tracer.Recorder().install()
    try:
        during = [vars(owner)[name] for owner, name in bindings]
        assert all(d is not b for d, b in zip(during, before))
        # a module-level copy and its origin share one wrapper
        assert rqlab.cli.scan_spectrum is rqlab.solver.scan_spectrum
        assert rec.absent == []
    finally:
        rec.uninstall()
    after = [vars(owner)[name] for owner, name in bindings]
    assert all(a is b for a, b in zip(after, before))


def test_missing_target_is_reported_absent():
    rec = tracer.Recorder()
    rec._install_one("solver.gone", "solver", "no_such_function", None, None)
    rec._install_one("nomodule.f", "no_such_module", "f", None, None)
    rec.uninstall()
    assert rec.absent == ["solver.gone", "nomodule.f"]


def test_self_time_on_a_synthetic_span_tree():
    # clock readings in call order: root, a, a (recursive), c, c, a, a, b, b, root
    ticks = iter([0.0, 1.0, 2.0, 2.5, 3.0, 3.5, 4.0, 5.0, 8.0, 10.0])
    rec = tracer.Recorder(clock=lambda: next(ticks))
    c = rec.wrap("c", lambda: None)

    def a_body(depth):
        if depth:
            return a(depth - 1)
        return c()

    a = rec.wrap("a", a_body)
    b = rec.wrap("b", lambda: None)

    def root_body():
        a(1)
        b()

    rec.wrap("root", root_body)()
    out = rec.summary()["labels"]
    assert out["root"] == {"calls": 1, "s": 10.0, "self_s": 10.0 - 3.0 - 3.0}
    assert out["a"]["calls"] == 2
    assert out["a"]["s"] == 3.0  # the outer span only
    assert out["a"]["self_s"] == (3.0 - 1.5) + (1.5 - 0.5)
    assert out["c"] == {"calls": 1, "s": 0.5, "self_s": 0.5}
    assert out["b"]["self_s"] == 3.0
    spans = rec.summary()["spans"]
    assert [s[0] for s in spans] == ["root", "a", "a", "c", "b"]
    assert [s[3] for s in spans] == [-1, 0, 1, 2, 0]  # parents


def test_traced_and_untraced_envelopes_are_identical():
    argv = ["verify", "--n", "3", "--p", "1", "--count", "2", "--m", "5", "--format", "json"]
    with ForkServer([]) as server:
        plain = server.run(argv)
        traced = server.run(argv, trace=True)
    assert plain["exit"] == traced["exit"] == 0
    assert run._masked(plain["stdout"]) == run._masked(traced["stdout"])
    assert traced["trace"]["labels"]["invariants.check"]["calls"] > 0
    assert plain["trace"] is None


def _spectrum_facts():
    ref = _reference()["argv"]
    key = "spectrum --n 2 --p 1 --parity sym --count 3 --format json"
    return json.loads(json.dumps(ref[key])), ref[key]


def test_checker_accepts_the_reference_itself():
    live, ref = _spectrum_facts()
    assert check.deviations(live, ref) == []
    assert not check.op_failed(live)


def test_checker_flags_a_perturbed_eigenvalue():
    live, ref = _spectrum_facts()
    live["eigenvalues"][1] *= 1 + 1e-9
    errors = check.deviations(live, ref)
    assert any("eigenvalues[1]" in e for e in errors)
    assert any("closed form" in e for e in errors)  # (2,1) symmetric is (k pi)^2


def test_checker_flags_a_partial_sweep():
    live = {"exit": 0, "pass": False, "partial": True, "pairs": [], "candidates": []}
    assert check.op_failed(live)
    ref = {"exit": 0, "pass": True, "partial": False, "pairs": [], "candidates": []}
    assert check.deviations(live, ref)


def test_checker_flags_a_wrong_exit_code():
    live, ref = _spectrum_facts()
    live["exit"] = 2
    assert check.op_failed(live)
    assert check.deviations(live, ref) == ["exit code 2, reference 0"]


def test_host_adjustment_scales_every_time_by_the_nearby_kernel_time():
    cal = [run.CAL_REF_S] * 30 + [2 * run.CAL_REF_S] * 30
    scales = run.host_scales(cal)
    assert scales[0] == 1.0 and scales[-1] == 0.5
    ops = [{"wall_s": 2.0, "failed": False, "errors": [], "maxrss_kb": 1024,
            "eigenvalues": 1, "checks": 0} for _ in cal]
    raw = run.end_to_end(ops, [1.0], [1.0])
    adjusted = run.end_to_end(ops, [1.0], [1.0], [0.5] * len(ops))
    assert raw["op_gmean_s"] == 2.0 and adjusted["op_gmean_s"] == 1.0
    assert adjusted["ops_per_s"] == 2 * raw["ops_per_s"] == 1.0
    assert adjusted["setup_s"] == raw["setup_s"] == 1.0


def test_tail_is_a_fixed_percentile_with_ten_samples_beyond_at_forty():
    xs = [float(i) for i in range(1, 41)]
    assert run.tail(xs) == (30.0, 10)
    assert run.tail(xs + [x + 40 for x in xs]) == (60.0, 20)  # same percentile, more ops
