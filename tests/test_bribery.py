"""Swap distance, the two-round bribery encoder, and its decoders."""

import random
from itertools import permutations

import pytest

from resilp.bribery import (
    BriberyInstance,
    Election,
    decode_scenario,
    decode_solution,
    encode,
    kendall,
    unique_winner,
    voter_types,
)
from resilp.engine import check_resiliency, enumerate_scenarios, substitute
from resilp.errors import ArgumentError, BudgetError, ScenarioError, ValidationError
from resilp.ilp import IntAssignment, VarId, solve_feasibility
from resilp.oracles import _swap_cost, bribery_oracle, bribery_response_exists


def test_swap_distance_basics():
    assert kendall((1, 2, 3), (1, 2, 3)) == 0
    assert kendall((1, 2, 3), (3, 2, 1)) == 3
    assert kendall((1, 2, 3), (2, 3, 1)) == 2
    # the bubble-sort route is an entirely separate computation
    assert _swap_cost((1, 2, 3), (2, 3, 1)) == 2


def test_swap_distance_rejects_mismatched_orders():
    with pytest.raises(ArgumentError):
        kendall((1, 2), (1, 2, 3))
    with pytest.raises(ArgumentError):
        kendall((1, 2), (1, 3))
    with pytest.raises(ArgumentError):
        kendall((1, 1), (1, 1))


def test_swap_distance_is_a_metric_on_small_orders():
    for m in (2, 3):
        perms = list(permutations(range(1, m + 1)))
        for a in perms:
            for b in perms:
                d = kendall(a, b)
                assert d == kendall(b, a)
                assert (d == 0) == (a == b)
                assert d == _swap_cost(a, b)
                for c in perms:
                    assert kendall(a, c) <= d + kendall(b, c)


def test_voter_types_order():
    assert voter_types(2) == ((1, 2), (2, 1))
    assert voter_types(3)[0] == (1, 2, 3)
    assert len(voter_types(3)) == 6


def _two_one_election():
    return Election(2, {(1, 2): 2, (2, 1): 1}, (1, 0))


def test_no_budgets_means_the_standing_result():
    inst = BriberyInstance(_two_one_election(), 0, 0)
    assert check_resiliency(encode(inst)).resilient
    assert bribery_oracle(inst) is True


def test_unanswered_adversary_flips_the_winner():
    inst = BriberyInstance(_two_one_election(), 1, 0)
    verdict = check_resiliency(encode(inst))
    assert not verdict.resilient
    assert bribery_oracle(inst) is False


def test_matching_budget_restores_the_win():
    inst = BriberyInstance(_two_one_election(), 1, 1)
    assert check_resiliency(encode(inst)).resilient
    assert bribery_oracle(inst) is True


def test_variable_boxes_and_budget():
    inst = BriberyInstance(_two_one_election(), 1, 1)
    system = encode(inst)
    bounds = {vid.name: b for vid, b in system.z_vars}
    assert bounds["z[12->21]"].upper == 2
    assert bounds["z[21->12]"].upper == 1
    assert bounds["y[12]"].upper == 3
    xbounds = {vid.name: b for vid, b in system.x_vars}
    assert xbounds["x[12->21]"].upper == 3
    assert xbounds["w[21]"].upper == 3
    with pytest.raises(BudgetError):
        encode(
            BriberyInstance(
                Election(5, {tuple(range(1, 6)): 1}, (1, 0, 0, 0, 0)), 0, 0
            )
        )


def test_adversary_witness_decodes_to_one_flip():
    inst = BriberyInstance(_two_one_election(), 1, 0)
    verdict = check_resiliency(encode(inst))
    moves, after = decode_scenario(inst, verdict.witness_z)
    assert moves == [((1, 2), (2, 1), 1)]
    assert after == {(1, 2): 1, (2, 1): 2}
    assert not unique_winner(inst.election, after)
    assert not bribery_response_exists(inst, after)


def test_identity_flow_decodes_to_empty_plan():
    inst = BriberyInstance(_two_one_election(), 0, 0)
    system = encode(inst)
    scenario = next(enumerate_scenarios(system))
    moves, after = decode_scenario(inst, scenario)
    assert moves == []
    assert after == {(1, 2): 2, (2, 1): 1}


def test_response_decoding_round_trip():
    inst = BriberyInstance(_two_one_election(), 1, 1)
    system = encode(inst)
    exercised = 0
    for scenario in enumerate_scenarios(system):
        adversary = decode_scenario(inst, scenario)
        x = solve_feasibility(substitute(system, scenario))
        assert x is not None
        moves, final = decode_solution(inst, adversary, x)
        assert unique_winner(inst.election, final)
        assert sum(final.values()) == 3
        exercised += len(moves)
    assert exercised > 0


def test_election_validation():
    with pytest.raises(ValidationError):
        Election(2, {(1, 2): 1}, (0, 1))  # scoring must not increase
    with pytest.raises(ValidationError):
        Election(2, {(1, 1): 1}, (1, 0))  # not a permutation
    with pytest.raises(ValidationError):
        Election(2, {(1, 2): -1}, (1, 0))
    with pytest.raises(ValidationError):
        Election(2, {(1, 2): 1}, (1,))  # scoring length
    with pytest.raises(ValidationError):
        Election(2, {(True, 2): 1}, (1, 0))  # True is not candidate 1
    # orders, the scoring vector and the vote list are ordered, never sets
    with pytest.raises(ValidationError, match="vote order must be a list"):
        Election(2, {frozenset((1, 2)): 1}, (1, 0))
    with pytest.raises(ValidationError, match="scoring entries must be a list"):
        Election(2, {(1, 2): 1}, {1, 0})
    with pytest.raises(ValidationError, match="votes must be a list"):
        Election(2, {((1, 2), 1)}, (1, 0))
    # each vote entry is an (order, count) pair, checked before unpacking
    for votes in ([((1, 2),)], [((1, 2), 1, 5)], [7]):
        with pytest.raises(ValidationError, match="vote entr"):
            Election(2, votes, (1, 0))


def test_instance_documents_merge_duplicate_orders():
    doc = {
        "candidates": 2,
        "votes": [
            {"order": [1, 2], "count": 1},
            {"order": [1, 2], "count": 1},
            {"order": [2, 1], "count": 1},
        ],
        "scoring": [1, 0],
        "ba": 1,
        "b": 1,
    }
    inst = BriberyInstance.from_dict(doc)
    assert inst.election.census == {(1, 2): 2, (2, 1): 1}
    again = BriberyInstance.from_dict(inst.to_dict())
    assert again == inst
    with pytest.raises(ValidationError):
        BriberyInstance.from_dict({**doc, "extra": 0})
    with pytest.raises(ValidationError):
        BriberyInstance.from_dict({**doc, "votes": [{"order": [1, 2]}]})


def test_zero_voters_cannot_produce_a_strict_winner():
    inst = BriberyInstance(Election(2, {}, (1, 0)), 0, 0)
    assert not check_resiliency(encode(inst)).resilient
    assert bribery_oracle(inst) is False


def test_single_candidate_wins_by_default():
    inst = BriberyInstance(Election(1, {(1,): 2}, (1,)), 1, 0)
    assert check_resiliency(encode(inst)).resilient
    assert bribery_oracle(inst) is True


def _random_instance(rng):
    m = rng.randint(2, 3)
    voters = rng.randint(0, 4)
    census = {}
    for _ in range(voters):
        order = tuple(rng.sample(range(1, m + 1), m))
        census[order] = census.get(order, 0) + 1
    scoring = (
        tuple([1] + [0] * (m - 1))
        if rng.random() < 0.5
        else tuple(range(m - 1, -1, -1))
    )
    return BriberyInstance(
        Election(m, census, scoring), rng.randint(0, 2), rng.randint(0, 2)
    )


def test_encoder_agrees_with_move_oracle():
    rng = random.Random(70901)
    yes = no = 0
    for _ in range(25):
        inst = _random_instance(rng)
        got = check_resiliency(encode(inst)).resilient
        want = bribery_oracle(inst)
        assert got == want, inst.to_dict()
        if want:
            yes += 1
        else:
            no += 1
    assert yes and no


def test_budget_monotonicity():
    rng = random.Random(70902)
    weaker_adversary = richer_response = 0
    for _ in range(30):
        inst = _random_instance(rng)
        if not bribery_oracle(inst):
            continue
        if inst.ba > 0:
            calmer = BriberyInstance(inst.election, inst.ba - 1, inst.b)
            assert bribery_oracle(calmer) is True
            weaker_adversary += 1
        richer = BriberyInstance(inst.election, inst.ba, inst.b + 1)
        assert bribery_oracle(richer) is True
        richer_response += 1
    assert weaker_adversary > 3
    assert richer_response > 5


def test_decode_rejects_a_flow_that_breaks_the_census():
    inst = BriberyInstance(Election(2, {(1, 2): 1}, (1, 0)), 0, 0)
    with pytest.raises(ScenarioError, match="census says 1"):
        decode_scenario(inst, IntAssignment({}))
    moved = IntAssignment({VarId(0, "z[12->21]"): 1})
    with pytest.raises(ScenarioError, match="budget 0"):
        decode_scenario(inst, moved)


# each breach of a transfer block, as (values, message) for the move and
# census prefixes of one side; the election holds one voter at 12
_BREACHES = {
    "negative count": ({"{m}[12->12]": 2, "{m}[12->21]": -1, "{c}[12]": 1},
                       "negative flow"),
    "outflow": ({"{m}[12->12]": 2, "{c}[12]": 2},
                "flow out of 12 is 2, census says 1"),
    "budget": ({"{m}[12->21]": 1, "{c}[21]": 1}, "moves cost 1 > budget 0"),
    "census": ({"{m}[12->12]": 1, "{c}[21]": 1}, "census variable for 12 disagrees"),
}


@pytest.mark.parametrize("breach", _BREACHES)
@pytest.mark.parametrize("side, m, c", [("adversary", "z", "y"), ("response", "x", "w")])
def test_decode_rejects_each_transfer_breach(breach, side, m, c):
    inst = BriberyInstance(Election(2, {(1, 2): 1}, (1, 0)), 0, 0)
    template, message = _BREACHES[breach]
    flow = IntAssignment({
        VarId(i, name.format(m=m, c=c)): v
        for i, (name, v) in enumerate(template.items())
    })
    if side == "adversary":
        with pytest.raises(ScenarioError, match=message):
            decode_scenario(inst, flow)
    else:
        with pytest.raises(ValidationError, match=message):
            decode_solution(inst, ([], {(1, 2): 1}), flow)


def test_vote_counts_are_read_as_given():
    doc = {"candidates": 2, "votes": [{"order": [1, 2], "count": True}],
           "scoring": [1, 0], "ba": 0, "b": 0}
    with pytest.raises(ValidationError, match="voter counts"):
        BriberyInstance.from_dict(doc)
    doc["votes"] = [{"order": [1, 2], "count": -1}, {"order": [1, 2], "count": 2}]
    with pytest.raises(ValidationError, match="voter counts"):
        BriberyInstance.from_dict(doc)


@pytest.mark.parametrize("scale, ba, b", [(1, 2, 2), (10, 5, 7)])
def test_kappa_ignores_magnitudes(scale, ba, b):
    # the paper's parameter: vote counts and both budgets may grow, the
    # candidates and the scoring rule fix kappa
    census = {(1, 2, 3): 3, (2, 1, 3): 2, (3, 1, 2): 2, (2, 3, 1): 1}
    election = Election(3, {o: scale * c for o, c in census.items()}, (2, 1, 0))
    assert encode(BriberyInstance(election, ba, b)).kappa == 99
