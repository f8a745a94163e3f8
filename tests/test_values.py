"""Value classes: one store for the fields, and copies that carry only them.

Every class that checks its fields derives from ``ilp.Value``, stores
them through ``Value.__init__`` and is copied and pickled through its own
constructor, so a copy of a walked scenario or of a compiled system
carries none of the state the engine caches on the instance.
"""

from __future__ import annotations

import copy
import inspect
import pickle
import re
from fractions import Fraction
from pathlib import Path

import pytest

import resilp
from resilp import engine
from resilp.bribery import BriberyInstance, Election
from resilp.closest_string import Alphabet, RcsInstance, StringMatrix
from resilp.engine import (
    ResiliencySystem,
    check_resiliency,
    enumerate_scenarios,
    substitute,
)
from resilp.ilp import (
    IntAssignment,
    LinearRow,
    Rel,
    Value,
    VarBounds,
    VarId,
    _build,
    make_vars,
    solve_feasibility,
)
from resilp.scheduling import SchedulingInstance, encode
from resilp.setcover import AuthorizationPolicy, RdscpInstance

# The first instance of the sched-scaled benchmark workload.
SCHED = SchedulingInstance(4, ((1, 2, 2, 3), (2, 1, 3, 1)), (5, 5), 8, 10)


def _system() -> ResiliencySystem:
    """``x + z <= 1`` and ``x/2 - w/2 = 0`` over unit boxes, ``z + w <= 1``."""
    (x,), (z, w) = make_vars([("x", 0, 1)]), make_vars([("z", 0, 1), ("w", 0, 1)])
    xz = (
        LinearRow({x[0]: 1, z[0]: 1}, Rel.LEQ, 1),
        LinearRow({x[0]: Fraction(1, 2), w[0]: Fraction(-1, 2)}, Rel.EQ, 0),
    )
    rows_z = (LinearRow({z[0]: 1, w[0]: 1}, Rel.LEQ, 1),)
    return ResiliencySystem((x,), (z, w), (), xz, rows_z)


def _samples() -> dict:
    """One value of every Value subclass, each after the engine has
    cached what it caches on it."""
    system = _system()
    check_resiliency(system)  # compiles the walk, the kernel, the x search
    scenario = next(enumerate_scenarios(system))  # records its walk
    folded = substitute(system, scenario)  # seeded with its compiled search
    solve_feasibility(folded)
    matrix = StringMatrix(Alphabet(("a", "b")), ("aa", "ab"))
    election = Election(2, {(1, 2): 2, (2, 1): 1}, (1, 0))
    values = (
        VarBounds(-1, 2),
        LinearRow({VarId(0, "x"): Fraction(1, 3)}, Rel.EQ, Fraction(2, 3)),
        folded,
        scenario,
        system,
        matrix.alphabet,
        matrix,
        RcsInstance(matrix, 1, 1),
        SCHED,
        election,
        BriberyInstance(election, 1, 1),
        RdscpInstance(2, ((1,), (2,), (1, 2)), 1, 1, 5),  # t clamps to n
        AuthorizationPolicy(
            ("a", "b"), ("r",), frozenset([("a", "r")]), ("r",), 0, 1, 1
        ),
    )
    return {type(value): value for value in values}


def _subclasses(cls) -> set:
    found = set()
    for sub in cls.__subclasses__():
        found |= {sub} | _subclasses(sub)
    return found


def test_every_value_class_has_a_sample():
    assert set(_samples()) == _subclasses(Value)


def test_init_parameters_are_the_fields_in_order():
    # Value.__init__ stores its arguments by _fields and __reduce__ hands
    # the fields back to the class in that order; both rely on this.
    for cls in _subclasses(Value):
        params = list(inspect.signature(cls.__init__).parameters)
        assert params[1:] == list(cls._fields), cls.__name__


@pytest.mark.parametrize(
    "how",
    [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_copies_and_pickles_carry_the_fields_only(how):
    for cls, value in _samples().items():
        again = how(value)
        fresh = cls(*value._key())
        assert type(again) is cls and again == value == fresh
        assert vars(again).keys() == vars(fresh).keys(), cls.__name__


def test_a_walked_scenario_pickles_as_a_plain_assignment():
    scenario = next(enumerate_scenarios(encode(SCHED)))
    assert "_walked" in vars(scenario)
    plain = IntAssignment(scenario.values)
    assert pickle.dumps(scenario) == pickle.dumps(plain)


def test_a_checked_system_pickles_as_a_fresh_encode():
    system = encode(SCHED)
    assert check_resiliency(system).scenarios_checked == 495
    assert pickle.dumps(system) == pickle.dumps(encode(SCHED))
    again = pickle.loads(pickle.dumps(system))
    assert "_kernel" not in vars(again)  # compiles again on first use
    assert check_resiliency(again) == check_resiliency(system)


@pytest.mark.parametrize("how", [copy.copy, copy.deepcopy])
def test_a_copied_walked_scenario_is_checked_in_full(monkeypatch, how):
    system = encode(SCHED)
    scenario = next(enumerate_scenarios(system))
    original = substitute(system, scenario)
    again = how(scenario)
    assert vars(again).keys() == {"values"}
    evaluate, calls = engine.evaluate, []

    def counted(*args):
        calls.append(args)
        return evaluate(*args)

    monkeypatch.setattr(engine, "evaluate", counted)
    assert substitute(system, again) == original
    assert len(calls) == 1


def test_a_wrong_field_count_raises():
    for fields in ((0,), (0, 1, 2)):
        message = f"VarBounds has 2 fields, got {len(fields)}"
        with pytest.raises(ValueError, match=message):
            Value.__init__(object.__new__(VarBounds), *fields)


def test_only_value_init_stores_a_public_field():
    # object.__setattr__ with anything but a private name ("_xsys") is a
    # second store of a field, unless it is the loop by _fields in
    # Value.__init__ or its copy inlined in _build.
    store = set()
    for func in (Value.__init__, _build):
        lines, start = inspect.getsourcelines(func)
        store |= {f"ilp.py:{n}" for n in range(start, start + len(lines))}
    src = Path(resilp.__file__).parent
    found = [
        f"{path.name}:{number}"
        for path in sorted(src.glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if re.search(r'object\.__setattr__\((?!self, "_)', line)
    ]
    assert found and not set(found) - store
