"""Envelope serialization: lossless numbers, canonical shape."""

import json
from fractions import Fraction

from rqlab.reporting import (
    dumps_envelope,
    equality_report,
    format_csv,
    make_envelope,
    rollup_from_reports,
    to_jsonable,
)


class TestToJsonable:
    def test_plain_floats_stay_numbers(self):
        assert to_jsonable(3.25) == 3.25
        assert to_jsonable(0.0) == 0.0

    def test_out_of_band_floats_become_strings(self):
        assert to_jsonable(1e305) == repr(1e305)
        assert to_jsonable(-2.5e-310) == repr(-2.5e-310)
        assert to_jsonable(float("inf")) == "inf"
        assert to_jsonable(float("nan")) == "nan"

    def test_complex_and_fraction(self):
        assert to_jsonable(1 + 2j) == {"re": 1.0, "im": 2.0}
        assert to_jsonable(Fraction(8, 3)) == "8/3"

    def test_nested_structures(self):
        value = {"a": (1, 2.5), "b": [1j]}
        assert to_jsonable(value) == {"a": [1, 2.5], "b": [{"re": 0.0, "im": 1.0}]}


class TestEnvelope:
    def test_round_trip_byte_identity(self):
        env = make_envelope("spectrum", {"n": 2}, {"values": [1.0, 2.5e-3]}, {"pass": True})
        text = dumps_envelope(env)
        assert json.dumps(json.loads(text), sort_keys=True, indent=2, allow_nan=False) + "\n" == text

    def test_rollup_counts(self):
        reports = [
            equality_report("x", (), 1.0, 1.0, 1e-8),
            equality_report("x", (), 1.0, 2.0, 1e-8),
        ]
        rollup = rollup_from_reports(reports)
        assert rollup == {"pass": False, "n_pass": 1, "n_fail": 1, "n_na": 0}


class TestCsv:
    def test_shortest_round_trip_floats(self):
        text = format_csv([{"x": 0.1, "y": 1}], ["x", "y"])
        assert text == "x,y\n0.1,1\n"
        value = float(text.splitlines()[1].split(",")[0])
        assert value == 0.1
