import math

import numpy as np
import pytest

from zerokit.constants import certification_report, report_to_json
from zerokit.jsonrows import json_value
from zerokit.verify import CheckReport, default_suite, reports_to_json

from oracles import rows_json

CRAFTED_NAMES = [
    'quote " and backslash \\',
    "control \x01 tab \t newline \n",
    "non-ASCII: é, ∑, 😀",
    "",
]


def _rows(reports):
    return [r.to_dict() for r in reports]


def test_default_suite_report_is_the_json_dumps_text(zero_library):
    reports = default_suite(zero_library)
    assert reports_to_json(reports) == rows_json(_rows(reports))


def test_certification_report_is_the_json_dumps_text():
    rows = certification_report()
    assert report_to_json(rows) == rows_json([r.to_dict() for r in rows])


def test_no_rows():
    assert reports_to_json([]) == rows_json([]) == "[]"
    assert report_to_json([]) == "[]"


@pytest.mark.parametrize("name", CRAFTED_NAMES)
def test_crafted_names(name):
    reports = [CheckReport(name, 1.0, 2.0, "<=", 1.0, True, {name: name})]
    assert reports_to_json(reports) == rows_json(_rows(reports))


@pytest.mark.parametrize(
    "context",
    [
        {},
        {"window": (100.0, 200.0), "support": (1, 2)},
        {"empty_tuple": (), "empty_list": [], "empty_dict": {}},
        {"list": [1.5, "a", True, None, [2, 3.0], {"b": -0.0}]},
        {"nested": {"inner": {"x": 1.0, "y": (1, 2)}, "z": "w"}},
        {"flag": True, "off": False, "count": 7, "big": 10**30, "none": None},
        {"numpy": np.float64(0.1), "numpy_list": [np.float64(2.5)]},
        {"tiny": 5e-324, "huge": 1e308, "negative_zero": -0.0, "minus_huge": -1e308},
        {"int_keys": {1: 2.0, 3: "four"}},
    ],
    ids=["empty", "tuples", "empty_containers", "list", "nested_dict", "bool_int_none", "numpy", "extremes", "int_keys"],
)
def test_crafted_contexts(context):
    reports = [
        CheckReport("a", -0.0, 5e-324, "<=", 1e308, False, context),
        CheckReport("b", 3, np.float64(2.5), "<=", -0.5, True, {"after": 1.0, **context}),
    ]
    assert reports_to_json(reports) == rows_json(_rows(reports))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64(math.nan)])
def test_non_finite_values_raise(bad):
    for report in (
        CheckReport("lhs", bad, 1.0, "<=", 1.0, True),
        CheckReport("rhs", 1.0, bad, "<=", 1.0, True),
        CheckReport("context", 1.0, 1.0, "<=", 0.0, True, {"x": 1.0, "value": bad}),
        CheckReport("nested", 1.0, 1.0, "<=", 0.0, True, {"x": {"value": [bad]}}),
    ):
        with pytest.raises(ValueError):
            rows_json(_rows([report]))
        with pytest.raises(ValueError):
            reports_to_json([report])


def test_value_at_depth():
    value = {"a": [1, {"b": (2.0, "c")}], "d": {}}
    assert json_value(value, "    ") == rows_json(value).replace("\n", "\n    ")
