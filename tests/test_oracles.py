"""The reference deciders themselves: definitional examples, budget
guards, and a cross-check against the engine on raw systems."""

import random
import tracemalloc
from itertools import product

import pytest

from resilp.bribery import BriberyInstance, Election
from resilp.closest_string import Alphabet, RcsInstance, StringMatrix
from resilp.engine import ResiliencySystem, check_resiliency
from resilp.errors import BudgetError, ValidationError
from resilp.ilp import LinearRow, Rel, VarBounds, VarId
from resilp.oracles import (
    _compositions,
    bribery_oracle,
    closest_string_oracle,
    forall_exists_oracle,
    hitting_set_oracle,
    matching_3dm_oracle,
    rcs_oracle,
    rdscp_oracle,
    rdscp_packing_exists,
    sched_oracle,
)
from resilp.scheduling import SchedulingInstance
from resilp.setcover import RdscpInstance, encode


def _vars(prefix, bounds):
    return tuple(
        (VarId(i, f"{prefix}{i}"), VarBounds(lo, hi))
        for i, (lo, hi) in enumerate(bounds)
    )


def test_empty_system_is_vacuously_resilient():
    system = ResiliencySystem((), (), (), (), ())
    assert forall_exists_oracle(system) is True


def test_pinned_x_cannot_follow_z():
    x = _vars("x", [(0, 0)])
    z = _vars("z", [(0, 1)])
    # x >= z written as -x + z <= 0
    row = LinearRow({x[0][0]: -1, z[0][0]: 1}, Rel.LEQ, 0)
    system = ResiliencySystem(x, z, (), (row,), ())
    assert forall_exists_oracle(system) is False


def test_box_budget_raises():
    x = _vars("x", [(0, 99_999_999)])
    with pytest.raises(BudgetError):
        forall_exists_oracle(ResiliencySystem(x, (), (), (), ()))


def test_oracle_matches_engine_on_random_systems():
    rng = random.Random(80901)
    agreements = 0
    for _ in range(40):
        nx, nz = rng.randint(0, 2), rng.randint(0, 2)
        x = _vars("x", [(0, rng.randint(0, 2)) for _ in range(nx)])
        z = _vars("z", [(0, rng.randint(0, 2)) for _ in range(nz)])

        def row(pool):
            coeffs = {
                vid: rng.randint(-2, 2)
                for vid, _ in pool
                if rng.random() < 0.8
            }
            return LinearRow(coeffs, Rel.LEQ, rng.randint(-2, 3))

        rows_x = tuple(row(x) for _ in range(rng.randint(0, 2)))
        rows_z = tuple(row(z) for _ in range(rng.randint(0, 2)) if z)
        rows_xz = tuple(row(x + z) for _ in range(rng.randint(0, 2)))
        system = ResiliencySystem(x, z, rows_x, rows_xz, rows_z)
        assert forall_exists_oracle(system) == check_resiliency(system).resilient
        agreements += 1
    assert agreements == 40


def test_removal_oracle_definitional_cases():
    keep = RdscpInstance(1, ((1,),), 0, 1, 1)
    lose = RdscpInstance(1, ((1,),), 1, 1, 1)
    assert rdscp_oracle(keep) is True
    assert rdscp_oracle(lose) is False


def test_removal_oracle_budgets():
    with pytest.raises(BudgetError):
        rdscp_oracle(RdscpInstance(1, tuple(((1,),) * 13), 0, 1, 1))
    with pytest.raises(BudgetError):
        rdscp_oracle(RdscpInstance(1, ((1,),), 5, 1, 1))


def test_removal_oracle_holds_no_set_of_the_universe_size():
    # the family misses every element past 3, so no cover exists; the
    # oracles find that without a set of 10**6 elements (tens of MB)
    inst = RdscpInstance(10**6, ((1,), (2, 3)), 0, 1, 2)
    tracemalloc.start()
    try:
        answers = rdscp_oracle(inst), rdscp_packing_exists(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert answers == (False, False)
    assert answers[0] is check_resiliency(encode(inst)).resilient
    assert peak < 10**6


def test_packing_check_with_removed_copies():
    inst = RdscpInstance(1, ((1,), (1,)), 0, 1, 1)
    assert rdscp_packing_exists(inst) is True
    assert rdscp_packing_exists(inst, (0,)) is True
    assert rdscp_packing_exists(inst, (0, 1)) is False
    with pytest.raises(ValidationError):
        rdscp_packing_exists(inst, (7,))
    with pytest.raises(ValidationError):
        rdscp_packing_exists(inst, (0, 0))


def test_hitting_set_oracle():
    assert hitting_set_oracle(3, ((1, 2), (2, 3)), 1) is True
    assert hitting_set_oracle(3, ((1,), (2,), (3,)), 2) is False
    assert hitting_set_oracle(3, (), 0) is True
    assert hitting_set_oracle(3, ((),), 3) is False  # nothing hits a void


def test_matching_oracle():
    triples = ((1, 1, 1), (2, 2, 2), (1, 2, 2))
    assert matching_3dm_oracle(2, triples, 2) is True
    assert matching_3dm_oracle(2, triples, 3) is False
    assert matching_3dm_oracle(2, triples, 0) is True



def test_matching_oracle_refuses_a_negative_size():
    with pytest.raises(ValidationError, match="matching size must be >= 0"):
        matching_3dm_oracle(1, ((1, 1, 1),), -1)

def test_source_oracles_refuse_a_search_past_their_budget():
    # a 3DM walk as deep as 1,500 chosen triples used to end in RecursionError
    diagonal = [(i, i, i) for i in range(1, 1501)]
    with pytest.raises(BudgetError, match="picks of at most 1500 out of 1500"):
        matching_3dm_oracle(1500, diagonal, 1500)
    edges = [(2 * i + 1, 2 * i + 2) for i in range(21)]
    with pytest.raises(BudgetError, match="picks of at most 20 out of 42"):
        hitting_set_oracle(42, edges, 20)
    # the budget counts picks, not items: a small k over many items runs
    assert matching_3dm_oracle(1500, diagonal, 1) is True
    assert hitting_set_oracle(1000, edges, 1) is False
    assert hitting_set_oracle(1000, edges[:1], 1) is True


def test_plain_center_string_oracle():
    assert closest_string_oracle(("aa", "aa"), 0, "ab") is True
    assert closest_string_oracle(("ab", "ba"), 0, "ab") is False
    assert closest_string_oracle(("ab", "ba"), 1, "ab") is True


def test_corruption_oracle_cases_and_budgets():
    ab = Alphabet(("a", "b"))
    assert rcs_oracle(RcsInstance(StringMatrix(ab, ("aa", "aa")), 0, 0)) is True
    assert rcs_oracle(RcsInstance(StringMatrix(ab, ("a", "a")), 0, 1)) is False
    with pytest.raises(BudgetError):
        rcs_oracle(RcsInstance(StringMatrix(ab, ("aaaaa", "aaaaa")), 0, 0))
    abc = Alphabet(("a", "b", "c"))
    with pytest.raises(BudgetError):
        rcs_oracle(RcsInstance(StringMatrix(abc, ("aa",)), 0, 0))


def test_compositions_are_the_lexicographic_filtered_product():
    for total in range(4):
        for parts in range(1, 4):
            wanted = [
                v
                for v in product(range(total + 1), repeat=parts)
                if sum(v) == total
            ]
            assert list(_compositions(total, parts)) == wanted


def test_delay_oracle_checks_its_budget_before_enumerating():
    # 2**40 delay vectors in the box, of which 41 have sum <= K = 1
    wide = SchedulingInstance(40, ((1,) * 40,), (1,), 1, 1)
    assert sched_oracle(wide) is True  # one delay leaves 39 machines idle
    with pytest.raises(BudgetError):
        sched_oracle(wide, max_points=41 * 40 - 1)


def test_delay_oracle_cases_and_budget():
    assert sched_oracle(SchedulingInstance(1, ((1,),), (3,), 0, 3)) is True
    assert sched_oracle(SchedulingInstance(1, ((1,),), (0,), 0, 0)) is True
    with pytest.raises(BudgetError):
        sched_oracle(SchedulingInstance(3, ((1, 1, 1),) * 2, (100, 100), 3, 5))


def test_move_oracle_budgets():
    big = Election(4, {(1, 2, 3, 4): 1}, (1, 0, 0, 0))
    with pytest.raises(BudgetError):
        bribery_oracle(BriberyInstance(big, 0, 0))
    small = Election(2, {(1, 2): 1}, (1, 0))
    with pytest.raises(BudgetError):
        bribery_oracle(BriberyInstance(small, 5, 0))
