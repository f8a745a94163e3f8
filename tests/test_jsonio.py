"""Serialization round trips and document validation."""

import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

import resilp
from resilp.bribery import BriberyInstance, Election
from resilp.bribery import encode as encode_bribery
from resilp.closest_string import Alphabet, RcsInstance, StringMatrix
from resilp.closest_string import encode as encode_rcs
from resilp.engine import ResiliencySystem, ResiliencyVerdict, check_resiliency
from resilp.errors import ValidationError
from resilp.ilp import (
    IntAssignment,
    LinearRow,
    Rel,
    VarBounds,
    VarId,
    make_vars,
)
from resilp.jsonio import (
    assignment_to_dict,
    resiliency_from_dict,
    read_object,
    resiliency_to_dict,
    verdict_to_dict,
)
from resilp.scheduling import SchedulingInstance
from resilp.scheduling import encode as encode_sched
from resilp.setcover import RdscpInstance
from resilp.setcover import encode as encode_rdscp


def _x_only(variables, rows):
    """A partitioned system with no z block: a plain system of x rows."""
    return ResiliencySystem(variables, (), rows, (), ())


def test_system_round_trip_with_rationals():
    variables = make_vars([("x", 0, 5), ("y", -3, 3)])
    rows = (
        LinearRow({variables[0][0]: Fraction(2, 3), variables[1][0]: -1}, Rel.LEQ, Fraction(7, 2)),
        LinearRow({variables[0][0]: 1}, Rel.EQ, 4),
    )
    system = _x_only(variables, rows)
    doc = resiliency_to_dict(system)
    assert doc["zvars"] == []
    assert doc["variables"][1] == {"name": "y", "lower": -3, "upper": 3}
    assert doc["rows"][0]["coeffs"] == {"x": "2/3", "y": -1}
    assert doc["rows"][0]["rhs"] == "7/2"
    assert resiliency_from_dict(doc) == system


def test_system_survives_json_text():
    variables = make_vars([("a", -2, 2), ("b", 0, 1)])
    system = _x_only(
        variables,
        (LinearRow({variables[0][0]: 3, variables[1][0]: Fraction(1, 2)}, Rel.LEQ, 1),),
    )
    text = json.dumps(resiliency_to_dict(system))
    assert resiliency_from_dict(json.loads(text)) == system


@pytest.mark.parametrize(
    "doc",
    [
        {"variables": [], "rows": [], "extra": 1},
        {"variables": [{"name": "x", "lower": 0, "upper": 1, "kind": "int"}], "rows": []},
        {"variables": [{"name": "x", "lower": 0, "upper": 1}],
         "rows": [{"coeffs": {"y": 1}, "rel": "<=", "rhs": 0}]},
        {"variables": [{"name": "x", "lower": 0, "upper": 1}],
         "rows": [{"coeffs": {"x": 1}, "rel": "<", "rhs": 0}]},
        {"variables": [{"name": "x", "lower": 0, "upper": 1}],
         "rows": [{"coeffs": {"x": 1.5}, "rel": "<=", "rhs": 0}]},
        {"variables": [{"name": "x", "lower": 0, "upper": 1},
                       {"name": "x", "lower": 0, "upper": 1}], "rows": []},
        # every listed key is required; nothing is read as a default
        {"rows": []},
        {"variables": []},
        {"variables": [{"name": "x", "lower": 0}], "rows": []},
        {"variables": [{"name": "x", "lower": 0, "upper": None}], "rows": []},
        {"variables": [{"lower": 0, "upper": 1}], "rows": []},
        {"variables": [{"name": "x", "lower": 0, "upper": 1}],
         "rows": [{"coeffs": {"x": 1}, "rel": "<="}]},
        {"variables": [{"name": "x", "lower": 0, "upper": 1}],
         "rows": [{"rel": "<=", "rhs": 0}]},
    ],
)
def test_bad_system_documents_rejected(doc):
    with pytest.raises(ValidationError):
        resiliency_from_dict({**doc, "zvars": []})


@pytest.mark.parametrize(
    "doc,message",
    [
        # as many keys as asked for, one of them swapped for another
        ({"name": "x", "lower": 0, "uper": 1}, r"missing variable keys: \['upper'\]"),
        ([["name", "x"], ["lower", 0], ["upper", 1]], "variable must be an object"),
    ],
    ids=["swapped-key", "not-an-object"],
)
def test_read_object_names_what_is_wrong(doc, message):
    with pytest.raises(ValidationError, match=message):
        read_object(doc, ("name", "lower", "upper"), "variable")


def _hand_built():
    x = tuple(
        (VarId(i, n), VarBounds(0, 2)) for i, n in enumerate(["x0", "x1"])
    )
    z = ((VarId(0, "z0"), VarBounds(0, 1)),)
    rows_x = (LinearRow({x[0][0]: 1, x[1][0]: 1}, Rel.LEQ, 3),)
    rows_xz = (LinearRow({x[0][0]: 1, z[0][0]: -1}, Rel.EQ, 0),)
    rows_z = (LinearRow({z[0][0]: 1}, Rel.LEQ, 1),)
    return ResiliencySystem(x, z, rows_x, rows_xz, rows_z)


def test_resiliency_round_trip():
    system = _hand_built()
    doc = resiliency_to_dict(system)
    assert doc["zvars"] == ["z0"]
    assert [v["name"] for v in doc["variables"]] == ["x0", "x1", "z0"]
    assert resiliency_from_dict(doc) == system


def test_block_derivation_from_mentions():
    doc = {
        "variables": [
            {"name": "x", "lower": 0, "upper": 1},
            {"name": "z", "lower": 0, "upper": 1},
        ],
        "zvars": ["z"],
        "rows": [
            {"coeffs": {"z": 1}, "rel": "<=", "rhs": 1},
            {"coeffs": {"x": 1, "z": 1}, "rel": "<=", "rhs": 1},
            {"coeffs": {"x": 1}, "rel": "<=", "rhs": 1},
            {"coeffs": {}, "rel": "<=", "rhs": 0},
            {"coeffs": {"x": 1, "z": 0}, "rel": "<=", "rhs": 1},
        ],
    }
    system = resiliency_from_dict(doc)
    assert len(system.rows_z) == 1
    # a zero coefficient still counts as mentioning the variable
    assert len(system.rows_xz) == 2
    # the plain block keeps its two rows in their original relative order
    assert len(system.rows_x) == 2
    assert dict(system.rows_x[0].coeffs)
    assert not system.rows_x[1].coeffs


def test_zvars_validation():
    base = {
        "variables": [{"name": "x", "lower": 0, "upper": 1}],
        "rows": [],
    }
    with pytest.raises(ValidationError):
        resiliency_from_dict({**base, "zvars": ["ghost"]})
    with pytest.raises(ValidationError):
        resiliency_from_dict(
            {
                "variables": [
                    {"name": "x", "lower": 0, "upper": 1},
                    {"name": "z", "lower": 0, "upper": 1},
                ],
                "zvars": ["z", "z"],
                "rows": [],
            }
        )


@pytest.mark.parametrize("zvars", [[], ["x"]])
def test_duplicate_names_are_rejected_by_the_system_type(zvars):
    twice = [{"name": "x", "lower": 0, "upper": 1}] * 2
    doc = {"variables": twice, "rows": []}
    with pytest.raises(ValidationError, match="duplicate variable name: 'x'"):
        resiliency_from_dict({**doc, "zvars": zvars})


def test_integer_checks_go_through_jsonio():
    # an integer field goes through require_int or require_ints; ilp.py,
    # which sits below jsonio, tests type(v) is int itself
    src = Path(resilp.__file__).parent
    found = [
        f"{path.name}:{number}"
        for path in sorted(src.glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if re.search(r"isinstance\(.*\bbool\b", line)
    ]
    assert not found


@pytest.mark.parametrize(
    "system",
    [
        encode_rdscp(RdscpInstance(2, ((1,), (2,), (1, 2), (1, 2)), 1, 2, 2)),
        encode_rdscp(RdscpInstance(1, ((1,),), 0, 1, 1)),
        encode_sched(SchedulingInstance(2, ((1, 2), (2, 1)), (2, 1), 1, 4)),
        encode_rcs(RcsInstance(StringMatrix(Alphabet(("a", "b")), ("aa", "ab")), 1, 1)),
        encode_bribery(BriberyInstance(Election(2, {(1, 2): 2, (2, 1): 1}, (1, 0)), 1, 1)),
        encode_bribery(BriberyInstance(Election(1, {(1,): 2}, (1,)), 1, 0)),
    ],
)
def test_encoded_systems_round_trip(system):
    doc = resiliency_to_dict(system)
    again = resiliency_from_dict(json.loads(json.dumps(doc)))
    assert again == system
    # and the verdict is unaffected by a serialization hop
    assert check_resiliency(again) == check_resiliency(system)


def test_verdict_and_assignment_documents():
    system = _hand_built()
    verdict = check_resiliency(system)
    doc = verdict_to_dict(verdict)
    assert set(doc) == {"resilient", "witness", "scenarios_checked"}
    assert doc["resilient"] is True
    assert doc["witness"] is None
    assert doc["scenarios_checked"] == 2

    failing = ResiliencyVerdict(
        False, IntAssignment({VarId(0, "z0"): 1}), 2
    )
    assert verdict_to_dict(failing)["witness"] == {"z0": 1}
    assert assignment_to_dict(None) is None
