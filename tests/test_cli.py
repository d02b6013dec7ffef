"""CLI contract: exit codes, envelope stability, file formats."""

import csv
import gc
import io
import json
import math
import time
import warnings

import pytest

import rqlab
import rqlab.cli
from rqlab import solver
from rqlab.cli import main
from rqlab.errors import NonSimpleEigenvalueError, SolverError

from conftest import PI


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_success_is_zero(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--n", "1", "--p", "1", "--count", "1")
        assert code == 0 and out

    def test_config_error_is_one(self, capsys):
        code, _, err = run_cli(capsys, "spectrum", "--n", "1", "--p", "2", "--count", "1")
        assert code == 1 and "configuration error" in err
        code, _, _ = run_cli(capsys, "spectrum", "--n", "1", "--p", "1", "--count", "0")
        assert code == 1
        code, _, _ = run_cli(capsys, "spectrum", "--n", "1", "--p", "1", "--count", "1",
                             "--parity", "sideways")
        assert code == 1
        code, _, err = run_cli(capsys, "sweep", "--p", "1", "--n-max", "3", "--jobs", "2")
        assert code == 1 and "--jobs" in err

    def test_solver_failure_is_two(self, capsys):
        # ceiling below the first eigenvalue: explicit scan failure
        code, _, err = run_cli(
            capsys, "spectrum", "--n", "1", "--p", "1", "--count", "1", "--lambda-max", "1.5"
        )
        assert code == 2 and "solver failure" in err
        # the second eigenvalue, (3 pi / 2)^2 = 22.2066, lies just above the ceiling
        code, _, err = run_cli(
            capsys, "spectrum", "--n", "1", "--p", "1", "--count", "2", "--lambda-max", "22.1"
        )
        assert code == 2 and "found only 1 of 2" in err
        assert err.endswith("below lambda=4.701063709417263 (Lambda=22.1); raise --lambda-max\n")
        # a ceiling near the largest float: lambda^4 overflows, the message still forms
        code, _, err = run_cli(capsys, "spectrum", "--n", "2", "--p", "2", "--count", "5",
                               "--lambda-max", "1.7976931348623157e308", "--step", "6e76")
        assert code == 2 and "found only 0 of 5" in err and "(Lambda=inf)" in err

    @pytest.mark.parametrize("n, count, step", [("1", "2", "2"), ("2", "3", "5")])
    def test_a_root_skipped_by_a_coarse_grid_is_two(self, capsys, n, count, step):
        # the first grid point lies past the first root, so the reported eigenvalue
        # 0 exceeds its Ritz upper bound; or two roots share a grid cell, which
        # opens a root-coordinate gap of about 3 pi
        code, out, err = run_cli(capsys, "spectrum", "--n", n, "--p", "1", "--count", count,
                                 "--step", step, "--format", "csv")
        assert code == 2 and out == ""
        if step == "2":
            assert "solver failure: Lambda_0 =" in err and "Ritz upper bound" in err
        else:
            assert "solver failure: root coordinate gap 3.00 pi" in err
            assert "a root was skipped" in err
        # the default step finds every root
        code, out, _ = run_cli(capsys, "spectrum", "--n", n, "--p", "1", "--count", count,
                               "--format", "json")
        first = 0.5 if n == "1" else 1.0
        expect = [((k + first) * PI) ** 2 for k in range(int(count))]
        values = json.loads(out)["results"]["eigenvalues"]
        assert code == 0 and all(abs(a - b) / b < 1e-12 for a, b in zip(values, expect))

    def test_twenty_roots_of_a_seventh_order_are_found(self, capsys):
        # the n x n boundary determinant's sign-trust floor once hid four of these
        # roots, a gap of 5 pi; det R trusts every point of the default grid
        code, out, _ = run_cli(capsys, "spectrum", "--n", "7", "--p", "1", "--count", "20",
                               "--format", "json")
        assert code == 0
        results = json.loads(out)["results"]
        values = results["eigenvalues"]
        assert len(values) == 20 and all(lam < ritz for lam, ritz in zip(values, results["ritz"]))
        roots = [row["lambda"] for row in results["rows"]]
        assert max(hi - lo for lo, hi in zip(roots, roots[1:])) < 1.5 * PI
        # the first eight, as a count-8 scan pins them; they lie within 3.9e-15 of
        # the roots of a step-0.05 scan refined with Illinois weights
        assert [v.hex() for v in values[:8]] == [
            "0x1.5e1ff833fd755p+6", "0x1.504305f193309p+7", "0x1.0b79fdb2e8cd4p+8",
            "0x1.823f1340eeeccp+8", "0x1.064f290df0704p+9", "0x1.555464d5b42a7p+9",
            "0x1.ae3319e262724p+9", "0x1.0876a14013261p+10"]
        assert results["scan_metadata"]["untrusted_points"] == 0

    def test_a_huge_root_gap_is_reported_in_three_digits(self, capsys):
        # a step of 1e74 skips roots by gaps of ~1e75 pi, which a fixed-point
        # format would print with 75 digits
        code, out, err = run_cli(capsys, "spectrum", "--n", "2", "--p", "2", "--count", "60",
                                 "--lambda-max", "1.7976931348623157e308", "--step", "1e74")
        assert code == 2 and out == ""
        assert "solver failure: root coordinate gap 8.17e+74 pi from" in err
        assert "a root was skipped" in err

    @pytest.mark.parametrize("argv, flags", [
        # grids of 2e7, 2e5 and 5e7 points, each refused before its first point
        ("spectrum --n 8 --p 1 --parity antisym --count 8 --lambda-max 1e12",
         ("--lambda-max", "--step")),
        ("spectrum --n 1 --p 1 --count 1 --step 0.001", ("--lambda-max", "--step")),
        ("plotdata --n 2 --p 1 --lambda-to 1e12", ("--lambda-to", "--step")),
    ])
    def test_a_grid_over_the_point_cap_is_one(self, capsys, argv, flags):
        code, out, err = run_cli(capsys, *argv.split())
        assert code == 1 and out == "" and f"exceeds {rqlab.cli.MAX_GRID_POINTS}" in err
        assert all(flag in err for flag in flags)

    @pytest.mark.parametrize("argv, size", [
        ("plotdata --n 2 --p 1 --lambda-to 1e308", "a plot grid of 5e+155 points"),
        ("spectrum --n 1 --p 1 --count 1 --lambda-max 1e300 --step 2",
         "a scan grid of 5e+149 points"),
    ])
    def test_an_oversized_grid_is_named_in_three_digits(self, capsys, argv, size):
        code, _, err = run_cli(capsys, *argv.split())
        assert code == 1 and size in err

    @pytest.mark.parametrize("argv, flag", [
        ("spectrum --n 1 --p 1 --count 2 --ritz-k 70", "--ritz-k 70"),
        ("spectrum --n 1 --p 1 --count 65", "--count 65"),
    ])
    def test_a_ritz_basis_over_the_size_cap_is_one(self, capsys, argv, flag, monkeypatch):
        # the Ritz basis holds max(--ritz-k, --count) functions; an oversized one
        # is refused before the scan runs
        def no_scan(*args, **kwargs):
            raise AssertionError("scanned before the basis size was checked")
        monkeypatch.setattr(rqlab.cli, "scan_spectrum", no_scan)
        code, out, err = run_cli(capsys, *argv.split())
        assert code == 1 and out == ""
        cap = rqlab.cli.MAX_BASIS_SIZE
        assert f"{flag} exceeds the Ritz column's supported basis size {cap}" in err

    def test_a_ritz_command_basis_over_the_size_cap_names_its_flag(self, capsys, monkeypatch):
        def no_assembly(*args, **kwargs):
            raise AssertionError("assembled before the basis size was checked")
        monkeypatch.setattr(rqlab.cli, "assemble", no_assembly)
        code, out, err = run_cli(capsys, *"ritz --n 2 --p 1 --K 70".split())
        assert code == 1 and out == ""
        assert f"--K 70 exceeds the supported Ritz basis size {rqlab.cli.MAX_BASIS_SIZE}" in err

    def test_an_empty_plot_grid_is_one(self, capsys):
        # Lambda = 1e-4 has root coordinate 0.01, below one step of 0.02
        code, out, err = run_cli(capsys, *"plotdata --n 2 --p 1 --lambda-to 0.0001".split())
        assert code == 1 and out == "" and "empty" in err
        assert "--lambda-to" in err and "--step" in err

    @pytest.mark.parametrize("argv", [
        "verify --n 2 --p 1 --count 1 --inject-fault",
        "verify --n 3 --p 1 --count 2 --inject-fault --format csv",
    ])
    def test_identity_violation_is_three(self, capsys, argv):
        # both negative controls: at (2,1) the perturbed stone residue is
        # quadratic and the ladder refuses it; at (3,1) it stays constant and
        # the stone identity fails
        code, out, err = run_cli(capsys, *argv.split())
        assert code == 3
        if "--format" in argv:
            last = list(csv.reader(io.StringIO(out)))[-1]
            assert last[:2] == ["stone-identity", "3/1/0"] and last[5] == "fail"
        else:
            assert out == "" and "stone residue has degree 2 > 1" in err

    def test_verify_passes_cleanly(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--n", "2", "--p", "1", "--count", "2", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["rollup"]["pass"] is True
        assert payload["rollup"]["n_fail"] == 0

    def test_verify_reports_an_uncomputable_parity_shift(self, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise SolverError("antisymmetric scan ran out of ceiling")

        monkeypatch.setattr(rqlab.cli, "antisym_equals_next_sym", fail)
        code, out, _ = run_cli(
            capsys, "verify", "--n", "2", "--p", "1", "--count", "1", "--format", "json"
        )
        assert code == 0
        shift = [
            r for r in json.loads(out)["results"]["reports"] if r["identity_id"] == "parity-shift"
        ]
        assert len(shift) == 1
        assert shift[0]["verdict"] == "not-applicable"
        assert shift[0]["index"] == [2, 1]
        assert shift[0]["notes"] == "antisymmetric scan ran out of ceiling"

    @pytest.mark.parametrize("m", ["2", "3"])
    def test_verify_partner_order_must_exceed_n(self, capsys, m):
        code, out, err = run_cli(capsys, "verify", "--n", "3", "--p", "1", "--m", m)
        assert code == 1 and out == ""
        assert f"partner order m={m} must exceed n=3" in err

    def test_verify_with_explicit_partner_order(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--n", "3", "--p", "1", "--m", "5", "--count", "1",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        bilinear = [
            r for r in payload["results"]["reports"]
            if r["identity_id"] == "bilinear" and r["verdict"] != "not-applicable"
        ]
        assert bilinear and all(r["index"][:2] == [3, 5] for r in bilinear)


class TestEnvelope:
    @pytest.mark.parametrize("argv", [
        "spectrum --n 2 --p 1 --count 2",
        "eigenfunction --n 3 --p 2 --index 1",
        "verify --n 3 --p 1 --count 2",
        "verify --n 3 --p 1 --count 2 --inject-fault",
        "disjoint --n 2 --m 4 --p 1 --count 5 --collision-tol 0.05",
        "sweep --p 1 --n-max 4 --count 3 --collision-tol 0.05",
        "ritz --n 3 --p 1 --count 3 --cross-check",
        "plotdata --n 2 --p 1 --lambda-to 50",
        "selftest --cases 5",
        # past the benchmark menu: a payload holding a numpy scalar would now raise
        "verify --n 3 --p 1 --count 2 --m 9",
        "spectrum --n 6 --p 5 --parity antisym --count 4",
        "sweep --p 1 --n-max 3 --count 66",
        "eigenfunction --n 8 --p 1 --index 12",
    ])
    def test_json_round_trip_is_byte_stable(self, capsys, argv):
        _, out, _ = run_cli(capsys, *argv.split(), "--format", "json")
        parsed = json.loads(out)
        again = json.dumps(parsed, sort_keys=True, indent=2, allow_nan=False) + "\n"
        assert again == out

    def test_emission_skips_the_pure_python_indent_encoder(self, capsys, monkeypatch):
        def slow_path(*args, **kwargs):
            raise AssertionError("json.encoder._make_iterencode was called")

        monkeypatch.setattr(json.encoder, "_make_iterencode", slow_path)
        code, out, _ = run_cli(capsys, "sweep", "--p", "1", "--n-max", "4", "--count", "3",
                               "--format", "json")
        assert code == 0 and json.loads(out)["command"] == "sweep"

    def test_schema_and_config_echo(self, capsys):
        _, out, _ = run_cli(
            capsys, "spectrum", "--n", "1", "--p", "1", "--count", "1", "--format", "json"
        )
        payload = json.loads(out)
        assert payload["schema"] == 1
        assert payload["tool"] == "rqlab"
        assert payload["config"]["n"] == 1
        assert payload["config"]["ritz_k"] == 20  # defaults recorded

    def test_payload_reproducibility(self, capsys):
        argv = ("verify", "--n", "2", "--p", "1", "--count", "1", "--format", "json")
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        a, b = json.loads(first), json.loads(second)
        a.pop("generated_at"), b.pop("generated_at")
        assert a == b


class TestCommands:
    def test_spectrum_values(self, capsys):
        _, out, _ = run_cli(
            capsys, "spectrum", "--n", "1", "--p", "1", "--parity", "sym",
            "--count", "3", "--format", "json",
        )
        values = json.loads(out)["results"]["eigenvalues"]
        expect = [((k + 0.5) * PI) ** 2 for k in range(3)]
        assert all(abs(a - b) / b < 1e-9 for a, b in zip(values, expect))

    def test_spectrum_2_2(self, capsys):
        _, out, _ = run_cli(
            capsys, "spectrum", "--n", "2", "--p", "2", "--count", "1", "--format", "json"
        )
        values = json.loads(out)["results"]["eigenvalues"]
        assert abs(values[0] - 31.28524) < 1e-4

    @pytest.mark.parametrize("argv", [
        "eigenfunction --n 3 --p 2 --index 1",
        "verify --n 3 --p 2 --count 2",
        "spectrum --n 3 --p 2 --count 2",
    ])
    def test_a_non_simple_eigenvalue_is_a_solver_failure(self, capsys, monkeypatch, argv):
        def non_simple(spec, eigenvalues, first_index=0):
            return [NonSimpleEigenvalueError(f"two near-zero singular values at index {i}")
                    for i in range(first_index, first_index + len(eigenvalues))]

        monkeypatch.setattr(solver, "_STORE", {})
        monkeypatch.setattr(solver, "extract_eigenfunctions", non_simple)
        monkeypatch.setattr(rqlab.cli, "extract_eigenfunctions", non_simple)
        code, out, err = run_cli(capsys, *argv.split())
        assert code == 2 and out == ""
        assert err == ("rqlab: solver failure: two near-zero singular values at index "
                       f"{1 if argv.startswith('eigenfunction') else 0}\n")

    def test_every_eigenpair_of_8_1_extracts(self, capsys):
        # the n x n boundary matrix flagged index 12 and above non-simple
        code, out, _ = run_cli(capsys, "eigenfunction", "--n", "8", "--p", "1", "--index", "12",
                               "--format", "json")
        assert code == 0
        residuals = json.loads(out)["results"]["residuals"]
        assert residuals["boundary_residual"] <= 1e-12 * residuals["boundary_scale"]

    def test_eigenfunction_detail(self, capsys):
        _, out, _ = run_cli(
            capsys, "eigenfunction", "--n", "2", "--p", "2", "--index", "0", "--format", "json"
        )
        results = json.loads(out)["results"]
        assert len(results["kernel"]) == 4
        assert all(abs(complex(c["coeff_re"], c["coeff_im"])) > 1e-8 for c in results["kernel"])

    def test_disjoint_summary(self, capsys):
        code, out, _ = run_cli(
            capsys, "disjoint", "--n", "1", "--m", "2", "--p", "1", "--count", "3",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["rollup"]["candidates"] == 0
        assert payload["rollup"]["min_gap"] > 0.3

    def test_sweep_rollup(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--p", "1", "--n-max", "4", "--count", "5", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["rollup"]["pass"] is True
        assert payload["rollup"]["candidates"] == 0

    def test_ritz_cross_check(self, capsys):
        _, out, _ = run_cli(
            capsys, "ritz", "--n", "2", "--p", "1", "--K", "12", "--count", "1",
            "--cross-check", "--format", "json",
        )
        rows = json.loads(out)["results"]["rows"]
        assert rows[0]["rel_gap"] < 1e-6

    def test_plotdata_sign_changes(self, capsys):
        code, out, _ = run_cli(
            capsys, "plotdata", "--n", "2", "--p", "1", "--parity", "sym",
            "--lambda-to", "50", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "lambda,Lambda,indicator"
        rows = [tuple(float(v) for v in line.split(",")) for line in lines[1:]]
        crossings = []
        for (l0, _, f0), (l1, _, f1) in zip(rows, rows[1:]):
            if f0 * f1 < 0:
                crossings.append(0.5 * (l0 + l1))
        expected = [PI, 2 * PI]  # Lambda = 9.8696..., 39.478...
        assert len(crossings) == len(expected)
        for got, want in zip(crossings, expected):
            assert abs(got - want) <= 0.02

    def test_plotdata_past_the_overflow_of_e_to_the_rho_b_is_finite(self, capsys):
        # p = 2 has the root i rho, and e^rho overflows past rho ~ 709.78, so the
        # last 146 of these 500 rows need a kernel that never forms it
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, _ = run_cli(capsys, *"plotdata --n 2 --p 2 --lambda-to 1e12 --step 2 "
                                   "--format csv".split())
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert len(rows) == 500 and float(rows[-1][0]) == 1000.0
        assert all(math.isfinite(float(f)) and abs(float(f)) <= 1.0 for _, _, f in rows)


class TestConfigAndOutput:
    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "spectrum", "--n", "1", "--p", "1", "--count", "1",
            "--format", "json", "--out", str(target),
        )
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["command"] == "spectrum"

    def test_unwritable_out_path_is_a_configuration_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.json"
        code, out, err = run_cli(
            capsys, "spectrum", "--n", "1", "--p", "1", "--count", "1", "--out", str(target)
        )
        assert code == 1 and out == ""
        assert err.startswith(f"rqlab: configuration error: cannot write {target}: ")
        assert "Traceback" not in err and not target.parent.exists()

    def test_config_file_defaults_and_flag_priority(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"count": 2, "format": "json"}))
        _, out, _ = run_cli(
            capsys, "spectrum", "--n", "1", "--p", "1", "--count", "1", "--config", str(cfg)
        )
        payload = json.loads(out)  # format came from the config file
        assert payload["config"]["count"] == 1  # explicit flag wins

    @pytest.mark.parametrize(
        "argv, config",
        [
            ("ritz --n 1 --p 1", {"count": 1.5}),
            ("plotdata --n 2 --p 1 --lambda-to 50", {"step": 0}),
            ("spectrum --n 1 --p 1 --count 1", {"format": "xml"}),
            ("sweep --p 1 --n-max 3", {"count": 0}),
            ("spectrum --n 1 --p 1 --count 1", {"command": "ritz"}),
        ],
    )
    def test_config_values_pass_the_flag_checks(self, capsys, tmp_path, argv, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, out, err = run_cli(capsys, *argv.split(), "--config", str(cfg))
        assert code == 1 and out == ""
        assert "configuration error" in err

    def test_config_switches_and_nulls(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"cross_check": True, "format": "json", "out": None}))
        argv = ("ritz", "--n", "2", "--p", "1", "--K", "8", "--config", str(cfg))
        _, out, _ = run_cli(capsys, *argv)
        assert "determinant" in json.loads(out)["results"]["rows"][0]
        cfg.write_text(json.dumps({"cross_check": False, "format": "json"}))
        _, out, _ = run_cli(capsys, *argv)
        assert "determinant" not in json.loads(out)["results"]["rows"][0]

    def test_config_file_unknown_key(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"no_such_flag": 1}))
        code, _, err = run_cli(
            capsys, "spectrum", "--n", "1", "--p", "1", "--count", "1", "--config", str(cfg)
        )
        assert code == 1 and "unknown config keys" in err

    def test_csv_spectrum(self, capsys):
        _, out, _ = run_cli(
            capsys, "spectrum", "--n", "1", "--p", "1", "--count", "2", "--format", "csv"
        )
        header = out.splitlines()[0].split(",")
        assert header[:4] == ["index", "Lambda", "lambda", "ritz"]
        value = float(out.splitlines()[1].split(",")[1])
        assert value == pytest.approx(PI * PI / 4, rel=1e-9)

    @pytest.mark.parametrize("argv, code", [
        ("verify --n 3 --p 1 --count 2", 0),
        ("sweep --p 1 --n-max 3 --count 66", 2),
    ])
    def test_csv_rows_parse_to_the_header_width(self, capsys, argv, code):
        # parity-shift notes and a partial sweep's error strings hold commas
        got, out, _ = run_cli(capsys, *argv.split(), "--format", "csv")
        rows = list(csv.reader(io.StringIO(out, newline="")))
        assert got == code and len(rows) > 1
        assert [len(r) for r in rows] == [len(rows[0])] * len(rows)


class TestFlagParsing:
    FLAGS = {
        "spectrum": "--n --p --parity --count --lambda-max --step --ritz-k",
        "eigenfunction": "--n --p --parity --index",
        "verify": "--n --p --m --count --tol",
        "disjoint": "--n --m --p --count --collision-tol",
        "sweep": "--p --n-max --count --collision-tol",
        "ritz": "--n --p --parity --K --count --cross-check",
        "plotdata": "--n --p --parity --lambda-to --step",
        "selftest": "--seed --cases",
    }

    def config(self, capsys, *argv):
        code, out, err = run_cli(capsys, *argv, "--format", "json")
        return code, (json.loads(out)["config"] if code == 0 else None), err

    def test_equals_form_prefixes_switches_and_last_wins(self, capsys):
        code, config, _ = self.config(capsys, "spectrum", "--n=1", "--p=1", "--cou", "2",
                                      "--count=1", "--par", "a", "--ritz=8")
        assert code == 0
        assert (config["count"], config["parity"], config["ritz_k"]) == (1, "antisymmetric", 8)
        # --n is a unique prefix of --n-max in sweep, where no --n exists
        code, config, _ = self.config(capsys, "sweep", "--p", "1", "--n", "3", "--count", "2")
        assert code == 0 and config["n_max"] == 3
        code, config, _ = self.config(capsys, "ritz", "--n", "2", "--p", "1", "--K", "8", "--cross")
        assert code == 0 and config["cross_check"] is True

    @pytest.mark.parametrize(
        "argv, named",
        [
            ("spectrum --n 1 --p 1 --c 1", ["ambiguous flag --c", "--count", "--config"]),
            ("ritz --n 2 --p 1 --cross-check=yes", ["--cross-check is a switch"]),
            ("eigenfunction --n 2 --p 1 --index -1", ["--index must be >= 0"]),
            ("eigenfunction --n 2 --p 1 --index=-1", ["--index must be >= 0"]),
            ("spectrum --n 1 --p 1 --count 0", ["--count: expected a positive integer"]),
            ("spectrum --n x --p 1 --count 1", ["--n: expected a positive integer, got 'x'"]),
            ("spectrum --n 1 --p 1 --count 1 --step -0.5", ["--step: expected a positive"]),
            ("spectrum --n 1 --p 1 --count 1 --lambda-max inf", ["--lambda-max:", "'inf'"]),
            ("spectrum --n 1 --p 1 --count 1 --parity sideways", ["--parity:", "'sideways'"]),
            ("spectrum --n 1 --p 1 --count 1 --format xml", ["--format:", "'xml'"]),
            ("spectrum --n 1 --p 1 --count 1 --format", ["--format needs a value"]),
            ("spectrum --n --p 1 --count 1", ["--n needs a value"]),
            ("spectrum --n 1 --p 1 --count 1 -n 1", ["unrecognized argument '-n'"]),
            ("selftest --seed -3", ["--seed: expected an integer in [0, 2**32)"]),
            ("spectrum", ["spectrum needs --n, --p, --count"]),
            ("disjoint --n 1 --count 2", ["disjoint needs --m, --p"]),
            ("spectrum --version", ["unrecognized argument '--version'"]),
            ("transform --n 1", ["unrecognized argument 'transform'", "spectrum, eigenfunction"]),
            ("", ["missing command"]),
        ],
    )
    def test_each_flag_error_names_its_flag(self, capsys, argv, named):
        code, out, err = run_cli(capsys, *argv.split())
        assert code == 1 and out == ""
        assert err.startswith("rqlab: configuration error: ")
        assert all(text in err for text in named), err

    @pytest.mark.parametrize("command", sorted(FLAGS))
    @pytest.mark.parametrize("flag", ["-h", "--help", "--he"])
    def test_command_help_lists_every_flag(self, capsys, command, flag):
        code, out, err = run_cli(capsys, command, flag, "--count", "0")  # help comes first
        assert code == 0 and err == ""
        assert out.startswith(f"usage: rqlab {command} ")
        listed = {word for word in out.split() if word.startswith("--")}
        assert listed == {*self.FLAGS[command].split(), "--help", "--format", "--out", "--config"}
        assert "--inject" not in out

    @pytest.mark.parametrize("flag", ["-h", "--help", "--h"])
    def test_top_level_help_lists_every_command(self, capsys, flag):
        code, out, _ = run_cli(capsys, flag, "spectrum")
        assert code == 0 and out.startswith("usage: rqlab ")
        commands = out.split("\ncommands:\n")[1].split()
        assert all(command in commands for command in self.FLAGS)

    @pytest.mark.parametrize("flag", ["--version", "--vers"])
    def test_version(self, capsys, flag):
        assert run_cli(capsys, flag) == (0, f"rqlab {rqlab.__version__}\n", "")

    def test_config_file_supplies_a_required_flag(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 1, "p": 1, "count": 2, "parity": "sym"}))
        code, config, _ = self.config(capsys, "spectrum", "--count", "1", "--config", str(cfg))
        assert code == 0 and (config["n"], config["count"]) == (1, 1)

    @pytest.mark.parametrize("key", ["count", "step"])
    def test_config_true_for_a_flag_that_needs_a_value(self, capsys, tmp_path, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: True}))
        code, out, err = run_cli(capsys, "spectrum", "--n", "1", "--p", "1", "--count", "1",
                                 "--config", str(cfg))
        assert code == 1 and out == ""
        assert f"config key '{key}': --{key} needs a value, got true" in err

    def test_spectrum_config_echo_holds_every_default(self, capsys):
        _, config, _ = self.config(capsys, "spectrum", "--n", "1", "--p", "1", "--count", "1")
        assert config == {
            "command": "spectrum", "n": 1, "p": 1, "parity": "symmetric", "count": 1,
            "lambda_max": None, "step": 0.25, "ritz_k": 20, "format": "json", "out": None,
        }


class TestSelftest:
    def test_selftest_passes_quickly(self, capsys):
        start = time.time()
        code, out, _ = run_cli(capsys, "selftest", "--seed", "7", "--format", "json")
        elapsed = time.time() - start
        assert code == 0
        assert elapsed < 60.0
        payload = json.loads(out)
        assert payload["rollup"]["pass"] is True

    @pytest.mark.parametrize("seed", ["11", "42", "68"])
    def test_selftest_passes_on_seeds_that_failed_a_norm_scaled_hermiticity_sweep(
        self, capsys, seed
    ):
        code, _, _ = run_cli(capsys, "selftest", "--seed", seed)
        assert code == 0

    def test_selftest_is_seed_stable(self, capsys):
        _, a, _ = run_cli(capsys, "selftest", "--seed", "11", "--cases", "50", "--format", "json")
        _, b, _ = run_cli(capsys, "selftest", "--seed", "11", "--cases", "50", "--format", "json")
        pa, pb = json.loads(a), json.loads(b)
        pa.pop("generated_at"), pb.pop("generated_at")
        assert pa == pb


class TestCollectorFreeze:
    @pytest.mark.parametrize("argv, code", [
        ("spectrum --n 1 --p 1 --count 1", 0),
        ("spectrum --n 1 --p 1 --count 0", 1),
        ("spectrum --n 1 --p 1 --count 1 --lambda-max 1.5", 2),
        ("verify --n 2 --p 1 --count 1 --inject-fault", 3),
        ("--help", 0),
        ("sweep --help", 0),
    ])
    def test_main_leaves_the_freeze_count_as_it_found_it(self, capsys, argv, code):
        assert gc.get_freeze_count() == 0
        assert main(argv.split()) == code
        capsys.readouterr()
        assert gc.get_freeze_count() == 0

    def test_a_callers_frozen_heap_stays_frozen(self, capsys):
        entry = [object()]  # a container the collector tracks
        gc.freeze()
        try:
            assert main(["spectrum", "--n", "1", "--p", "1", "--count", "1"]) == 0
            assert gc.get_freeze_count() > 0
            assert not any(o is entry for o in gc.get_objects())
        finally:
            gc.unfreeze()
        capsys.readouterr()

    def test_a_command_runs_with_the_entry_heap_frozen(self, capsys, monkeypatch):
        entry = [object()]  # a container the collector tracks
        seen = []

        def stub(args):
            seen.append((gc.get_freeze_count() > 0,
                         any(o is entry for o in gc.get_objects())))
            return {}, [], [], {"pass": True}, 0

        handler, *rest = rqlab.cli._COMMANDS["selftest"]
        monkeypatch.setitem(rqlab.cli._COMMANDS, "selftest", (stub, *rest))
        assert main(["selftest", "--format", "csv"]) == 0
        capsys.readouterr()
        assert seen == [(True, False)]
        assert any(o is entry for o in gc.get_objects())
