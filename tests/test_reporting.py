"""Envelope serialization: lossless numbers, canonical shape."""

import json
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

import numpy as np
import pytest

from conftest import two_pass_dumps
from rqlab.reporting import (
    dumps_envelope,
    equality_report,
    format_csv,
    make_envelope,
    rollup_from_reports,
)


def emitted(value):
    """``value`` as it reads back from an emitted envelope."""
    return json.loads(dumps_envelope(make_envelope("x", {}, {"v": value})))["results"]["v"]


class TestEmittedValues:
    def test_plain_floats_stay_numbers(self):
        assert emitted(3.25) == 3.25
        assert emitted(0.0) == 0.0

    def test_out_of_band_floats_become_strings(self):
        assert emitted(1e305) == repr(1e305)
        assert emitted(-2.5e-310) == repr(-2.5e-310)
        assert emitted(float("inf")) == "inf"
        assert emitted(float("nan")) == "nan"

    def test_complex_and_fraction(self):
        assert emitted(1 + 2j) == {"re": 1.0, "im": 2.0}
        assert emitted(Fraction(8, 3)) == "8/3"

    def test_nested_structures(self):
        value = {"a": (1, 2.5), "b": [1j]}
        assert emitted(value) == {"a": [1, 2.5], "b": [{"re": 0.0, "im": 1.0}]}

    @pytest.mark.parametrize("leak", [np.arange(3), {"a", "b"}], ids=["ndarray", "set"])
    def test_unknown_values_raise(self, leak):
        # neither has one byte-stable text: an array prints truncated, a set in hash order
        env = make_envelope("x", {}, {"values": [1.0, leak]})
        with pytest.raises(TypeError, match=type(leak).__name__):
            dumps_envelope(env)


@dataclass(frozen=True)
class Node:
    value: Any
    kids: Any
    name: str = "node"


@dataclass(frozen=True)
class Empty:
    pass


def test_one_pass_matches_the_two_pass_oracle():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    floats = st.floats() | st.sampled_from([
        1e-300, 1e300, -1e-300, -1e300, 9.999999999999999e-301, 1.0000000000000001e300,
        5e-324, -2.5e-310, 0.0, -0.0, float("nan"), float("inf"), float("-inf"),
    ])
    texts = st.text() | st.text(st.sampled_from('a"\\/\x00\x1f\x7f\n\té€\U0001f600'))
    scalars = (
        st.none() | st.booleans() | st.integers() | st.sampled_from([2**64, -(10**40)])
        | floats | texts | st.complex_numbers() | st.fractions()
        | floats.map(np.float64) | st.integers(-2**63, 2**63 - 1).map(np.int64)
        | st.booleans().map(np.bool_) | texts.map(np.str_) | st.just(Empty())
    )
    keys = texts | st.integers() | st.floats() | st.booleans() | st.none()
    payloads = st.recursive(scalars, lambda kids: (
        st.lists(kids) | st.lists(kids).map(tuple) | st.dictionaries(keys, kids)
        | st.dictionaries(keys, kids).map(OrderedDict) | st.builds(Node, kids, kids)
    ), max_leaves=30)

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hypothesis.given(payloads, payloads)
    def check(results, config):
        env = make_envelope("x", {"c": config}, results, {"pass": True})
        assert dumps_envelope(env) == two_pass_dumps(env)

    check()


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
