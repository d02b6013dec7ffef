"""Envelope serialization: lossless numbers, canonical shape."""

import csv
import io
import json
from collections import OrderedDict
from fractions import Fraction
from typing import Any, NamedTuple

import numpy as np
import pytest

from conftest import two_pass_dumps
from rqlab.problem import ProblemSpec
from rqlab.reporting import (
    dumps_envelope,
    equality_report,
    format_csv,
    make_envelope,
    rollup_from_reports,
)


class Node(NamedTuple):
    value: Any
    kids: Any
    name: str = "node"


class Empty(NamedTuple):
    pass


class Bare(tuple):
    """A tuple subclass with no ``_fields``: not a record."""


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

    def test_nested_structures(self):
        value = {"a": (1, 2.5), "b": [None, True, {"c": "d"}]}
        assert emitted(value) == {"a": [1, 2.5], "b": [None, True, {"c": "d"}]}

    def test_a_record_is_an_object_of_its_fields_in_sorted_order(self):
        record = Node(2.5, (Empty(), ProblemSpec(3, 1)), "leaf")
        env = make_envelope("x", {}, {"r": record})
        text = dumps_envelope(env)
        assert text == two_pass_dumps(env)
        assert emitted(record) == {"kids": [{}, {"n": 3, "p": 1, "parity": "symmetric"}],
                                   "name": "leaf", "value": 2.5}
        assert text.index('"kids"') < text.index('"name"') < text.index('"value"')

    @pytest.mark.parametrize("leak, match", [
        (1 + 2j, "complex"),
        (Fraction(8, 3), "Fraction"),
        (np.float64(1.0), np.float64.__name__),
        (np.int64(1), np.int64.__name__),
        (np.bool_(True), np.bool_.__name__),
        (np.str_("a"), np.str_.__name__),
        (OrderedDict(), "OrderedDict"),
        ({1: 2.0}, "not int"),
        (np.arange(3), "ndarray"),
        ({"a", "b"}, "set"),
        (Bare((1, 2)), "Bare"),
    ], ids=["complex", "fraction", "float64", "int64", "bool_", "str_", "OrderedDict",
            "int-key", "ndarray", "set", "tuple-subclass"])
    def test_unknown_values_raise(self, leak, match):
        # nothing is converted: a subclass, a numpy scalar or a non-str key is a leak
        # from code that should have built a plain value, and an array or a set has
        # no byte-stable text (an array prints truncated, a set in hash order)
        env = make_envelope("x", {}, {"values": [1.0, leak]})
        with pytest.raises(TypeError, match=match):
            dumps_envelope(env)


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
        | floats | texts | st.just(Empty())
    )
    payloads = st.recursive(scalars, lambda kids: (
        st.lists(kids) | st.lists(kids).map(tuple) | st.dictionaries(texts, kids)
        | st.builds(Node, kids, kids)
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

    def test_cells_with_a_comma_quote_or_newline_round_trip(self):
        row = {"a": "x, y", "b": 'say "hi"', "c": "two\nlines", "d": "cr\r", "e": 2.5}
        text = format_csv([row], list(row))
        assert text == 'a,b,c,d,e\n"x, y","say ""hi""","two\nlines","cr\r",2.5\n'
        parsed = list(csv.reader(io.StringIO(text, newline="")))
        assert parsed == [list(row), ["x, y", 'say "hi"', "two\nlines", "cr\r", "2.5"]]
