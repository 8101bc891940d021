"""Unit tests for the scalar and aggregate function registry."""

import math

import pytest

from repro.cypher import CypherTypeError, UnknownFunctionError, execute
from repro.cypher.functions import aggregate, call_scalar, is_aggregate
from repro.graph import Edge, Node, PropertyGraph


class TestConversions:
    def test_to_string(self):
        assert call_scalar("toString", [3]) == "3"
        assert call_scalar("toString", [True]) == "true"
        assert call_scalar("toString", [2.0]) == "2.0"
        assert call_scalar("toString", [None]) is None

    def test_to_integer(self):
        assert call_scalar("toInteger", ["42"]) == 42
        assert call_scalar("toInteger", [3.9]) == 3
        assert call_scalar("toInteger", ["3.5"]) == 3
        assert call_scalar("toInteger", ["x"]) is None
        assert call_scalar("toInteger", [True]) is None

    def test_to_float(self):
        assert call_scalar("toFloat", ["2.5"]) == 2.5
        assert call_scalar("toFloat", [1]) == 1.0
        assert call_scalar("toFloat", ["x"]) is None

    def test_to_boolean(self):
        assert call_scalar("toBoolean", ["TRUE"]) is True
        assert call_scalar("toBoolean", ["false"]) is False
        assert call_scalar("toBoolean", ["meh"]) is None


class TestCollections:
    def test_size_and_length(self):
        assert call_scalar("size", [[1, 2]]) == 2
        assert call_scalar("size", ["abc"]) == 3
        assert call_scalar("length", [[1]]) == 1

    def test_head_last_tail_reverse(self):
        assert call_scalar("head", [[1, 2]]) == 1
        assert call_scalar("head", [[]]) is None
        assert call_scalar("last", [[1, 2]]) == 2
        assert call_scalar("tail", [[1, 2, 3]]) == [2, 3]
        assert call_scalar("reverse", [[1, 2]]) == [2, 1]
        assert call_scalar("reverse", ["ab"]) == "ba"

    def test_range_inclusive(self):
        assert call_scalar("range", [1, 3]) == [1, 2, 3]
        assert call_scalar("range", [3, 1, -1]) == [3, 2, 1]
        assert call_scalar("range", [0, 6, 2]) == [0, 2, 4, 6]

    def test_coalesce(self):
        assert call_scalar("coalesce", [None, None, 3]) == 3
        assert call_scalar("coalesce", [None]) is None


class TestStrings:
    def test_case_functions(self):
        assert call_scalar("toUpper", ["ab"]) == "AB"
        assert call_scalar("toLower", ["AB"]) == "ab"

    def test_trim_family(self):
        assert call_scalar("trim", ["  x  "]) == "x"
        assert call_scalar("ltrim", ["  x"]) == "x"
        assert call_scalar("rtrim", ["x  "]) == "x"

    def test_replace_split_substring(self):
        assert call_scalar("replace", ["aXa", "X", "b"]) == "aba"
        assert call_scalar("split", ["a,b", ","]) == ["a", "b"]
        assert call_scalar("substring", ["hello", 1, 3]) == "ell"
        assert call_scalar("substring", ["hello", 2]) == "llo"
        assert call_scalar("left", ["hello", 2]) == "he"
        assert call_scalar("right", ["hello", 2]) == "lo"


class TestMath:
    def test_abs_sign(self):
        assert call_scalar("abs", [-3]) == 3
        assert call_scalar("sign", [-2]) == -1
        assert call_scalar("sign", [0]) == 0

    def test_rounding(self):
        assert call_scalar("ceil", [1.2]) == 2.0
        assert call_scalar("floor", [1.8]) == 1.0
        assert call_scalar("round", [1.5]) == 2.0
        assert call_scalar("round", [2.347, 2]) == 2.35

    def test_sqrt_exp_log(self):
        assert call_scalar("sqrt", [9]) == 3.0
        assert math.isclose(call_scalar("log", [math.e]), 1.0)
        assert call_scalar("log10", [100]) == 2.0


    @pytest.mark.parametrize("name,args", [
        ("sqrt", [-1]), ("log", [0]), ("log", [-2.5]), ("log10", [0]),
        ("exp", [1000]), ("toInteger", [float("nan")]),
        ("toInteger", [float("inf")]), ("sqrt", [1, 2]),
    ])
    def test_domain_range_and_arity_errors_are_typed(self, name, args):
        with pytest.raises(CypherTypeError):
            call_scalar(name, args)

    @pytest.mark.parametrize("query", [
        "RETURN 10^400 AS c", "RETURN 0^-1 AS c", "RETURN (-8)^0.5 AS c",
        "RETURN 1.5^10000 AS c",
    ])
    def test_power_errors_are_typed(self, query):
        with pytest.raises(CypherTypeError):
            execute(PropertyGraph(), query)

    def test_power_values(self):
        assert execute(PropertyGraph(), "RETURN 2^10 AS c").scalar() == 1024.0
        assert execute(PropertyGraph(), "RETURN 4^0.5 AS c").scalar() == 2.0


class TestGraphFunctions:
    def test_labels_type_id_keys(self):
        node = Node.create("n1", ["B", "A"], {"x": 1})
        edge = Edge.create("e1", "R", "a", "b", {"y": 2})
        assert call_scalar("labels", [node]) == ["A", "B"]
        assert call_scalar("type", [edge]) == "R"
        assert call_scalar("id", [node]) == "n1"
        assert call_scalar("keys", [node]) == ["x"]
        assert call_scalar("properties", [edge]) == {"y": 2}


class TestAggregates:
    def test_is_aggregate(self):
        assert is_aggregate("count")
        assert is_aggregate("COLLECT")
        assert not is_aggregate("toString")

    def test_count_ignores_nulls(self):
        assert aggregate("count", [1, None, 2], distinct=False) == 2

    def test_count_distinct(self):
        assert aggregate("count", [1, 1, 2, None], distinct=True) == 2

    def test_collect(self):
        assert aggregate("collect", [1, None, 2], distinct=False) == [1, 2]
        assert aggregate("collect", [1, 1], distinct=True) == [1]

    def test_collect_distinct_handles_unhashable(self):
        assert aggregate(
            "collect", [[1], [1], [2]], distinct=True
        ) == [[1], [2]]

    def test_sum_avg(self):
        assert aggregate("sum", [1, 2, None], distinct=False) == 3
        assert aggregate("sum", [], distinct=False) == 0
        assert aggregate("avg", [2, 4], distinct=False) == 3
        assert aggregate("avg", [], distinct=False) is None

    def test_min_max(self):
        assert aggregate("min", [3, 1, None], distinct=False) == 1
        assert aggregate("max", [3, 1], distinct=False) == 3
        assert aggregate("min", [], distinct=False) is None

    def test_stdev(self):
        assert aggregate("stdev", [2, 4], distinct=False) == pytest.approx(
            math.sqrt(2)
        )
        assert aggregate("stdev", [5], distinct=False) == 0.0

    def test_unknown_function(self):
        with pytest.raises(UnknownFunctionError):
            call_scalar("frobnicate", [1])
