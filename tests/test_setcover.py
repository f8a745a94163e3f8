"""Disjoint set cover packing: encoder, decoders, policy translation,
and the two hardness-flavored generators."""

import random
from itertools import combinations

import pytest

from resilp.engine import check_resiliency, enumerate_scenarios, substitute
from resilp.errors import BudgetError, ScenarioError, ValidationError
from resilp.ilp import IntAssignment, VarId, solve_feasibility
from resilp.oracles import (
    hitting_set_oracle,
    matching_3dm_oracle,
    rdscp_oracle,
    rdscp_packing_exists,
)
from resilp import setcover
from resilp.setcover import (
    AuthorizationPolicy,
    RdscpInstance,
    cover_patterns,
    decode_scenario,
    decode_solution,
    encode,
    from_policy,
    gen_from_3dm,
    gen_from_hitting_set,
    groups_of,
    validate_packing,
)


def _inst(n, family, s, d, t):
    return RdscpInstance(n, tuple(tuple(m) for m in family), s, d, t)


# --- encoding ---------------------------------------------------------------


def test_single_set_zero_budget_is_resilient():
    system = encode(_inst(1, [(1,)], 0, 1, 1))
    assert len(system.x_vars) == 1
    assert len(system.z_vars) == 1
    verdict = check_resiliency(system)
    assert verdict.resilient


def test_single_set_one_removal_kills_the_cover():
    system = encode(_inst(1, [(1,)], 1, 1, 1))
    verdict = check_resiliency(system)
    assert not verdict.resilient
    assert verdict.witness_z.by_name() == {"z[1]": 1}


def test_two_spare_covers_survive_one_removal():
    inst = _inst(2, [(1,), (2,), (1, 2), (1, 2)], 1, 2, 2)
    assert rdscp_oracle(inst) is True
    verdict = check_resiliency(encode(inst))
    assert verdict.resilient
    # one z per distinct content, every scenario of the budget visited
    assert verdict.scenarios_checked == 4



def test_empty_family_has_no_budget_row():
    # no sets means no z variable, so the removal budget row would be empty
    inst = _inst(1, [], 1, 1, 1)
    system = encode(inst)
    assert system.z_vars == () and system.rows_z == ()
    assert not check_resiliency(system).resilient
    assert rdscp_oracle(inst) is False

def test_boxes_follow_budget_and_multiplicity():
    inst = _inst(2, [(1, 2), (1, 2), (1, 2), (1,)], 2, 1, 2)
    system = encode(inst)
    bounds = {vid.name: b for vid, b in system.z_vars}
    assert (bounds["z[1]"].lower, bounds["z[1]"].upper) == (0, 1)
    assert (bounds["z[1,2]"].lower, bounds["z[1,2]"].upper) == (0, 2)
    for _, b in system.x_vars:
        assert (b.lower, b.upper) == (0, inst.d)


def test_pattern_enumeration():
    # covering is the only requirement: supersets of a cover still count
    inst = _inst(2, [(1,), (2,), (1, 2)], 0, 1, 2)
    patterns = cover_patterns(inst, groups_of(inst))
    as_sets = {tuple(sorted(tuple(sorted(c)) for c in p)) for p in patterns}
    assert as_sets == {
        ((1, 2),),
        ((1,), (2,)),
        ((1,), (1, 2)),
        ((1, 2), (2,)),
    }


def test_pattern_budget_raises():
    # the budget bounds the combinations tried, not the universe: one set
    # over seven elements decides
    inst = _inst(7, [tuple(range(1, 8))], 0, 1, 1)
    assert check_resiliency(encode(inst)).resilient is rdscp_oracle(inst) is True
    # all 63 non-empty subsets of six elements, covers of up to six sets:
    # about 7.6e7 combinations
    family = [
        [e for e in range(1, 7) if mask >> (e - 1) & 1] for mask in range(1, 64)
    ]
    with pytest.raises(BudgetError, match="pattern search budget"):
        encode(_inst(6, family, 0, 1, 6))


def _reduction_sources():
    """The instances built from the seeded sources of acceptance criteria
    3 (hitting set) and 4 (3-dimensional matching)."""
    for seed in range(50):
        rng = random.Random(seed)
        n = rng.randint(2, 4)
        sets = [
            tuple(sorted(rng.sample(range(1, n + 1), 2)))
            for _ in range(rng.randint(0, 4))
        ]
        yield gen_from_hitting_set(n, sets, rng.randint(0, 2))
    for seed in range(50):
        rng = random.Random(seed)
        n = rng.randint(1, 2)
        triples = sorted(
            {
                (rng.randint(1, n), rng.randint(1, n), rng.randint(1, n))
                for _ in range(rng.randint(0, 4))
            }
        )
        yield gen_from_3dm(n, triples, rng.randint(1, 2))


def test_engine_agrees_with_the_oracle_on_every_reduction_source():
    wide = 0
    for built in _reduction_sources():
        assert check_resiliency(encode(built)).resilient is rdscp_oracle(built)
        wide += built.n > 6
    assert wide == 76  # universes of more than six elements decide too


def test_t_is_clamped_to_universe_size():
    assert _inst(2, [(1, 2)], 0, 1, 9).t == 2


# --- decoding ---------------------------------------------------------------


def _scenario_for(system, wanted):
    for scenario in enumerate_scenarios(system):
        if scenario.by_name() == wanted:
            return scenario
    raise AssertionError(f"no scenario {wanted}")


def test_decode_scenario_examples():
    inst = _inst(1, [(1,), (1,)], 1, 1, 1)
    system = encode(inst)
    assert decode_scenario(inst, _scenario_for(system, {"z[1]": 0})) == ()
    assert decode_scenario(inst, _scenario_for(system, {"z[1]": 1})) == (0,)

    inst = _inst(2, [(1,), (2,), (1, 2)], 2, 1, 2)
    system = encode(inst)
    picked = _scenario_for(system, {"z[1]": 1, "z[2]": 0, "z[1,2]": 1})
    assert decode_scenario(inst, picked) == (0, 2)


def test_decode_scenario_rejects_bad_assignments():
    inst = _inst(1, [(1,)], 1, 1, 1)
    with pytest.raises(ScenarioError):
        decode_scenario(inst, IntAssignment({VarId(0, "z[1]"): 2}))
    with pytest.raises(ScenarioError):
        decode_scenario(inst, IntAssignment({VarId(0, "ghost"): 0}))



def test_decode_scenario_refuses_removals_over_budget():
    inst = _inst(2, [(1,), (2,)], 1, 1, 2)
    both = IntAssignment({VarId(0, "z[1]"): 1, VarId(1, "z[2]"): 1})
    with pytest.raises(ScenarioError, match="2 removals exceed the budget 1"):
        decode_scenario(inst, both)

def test_decode_solution_single_cover():
    inst = _inst(1, [(1,)], 0, 1, 1)
    system = encode(inst)
    x = solve_feasibility(substitute(system, next(enumerate_scenarios(system))))
    families = decode_solution(inst, (), x)
    assert families == ((0,),)
    validate_packing(inst, families)


def test_decode_solution_uses_distinct_copies():
    inst = _inst(1, [(1,), (1,)], 0, 2, 1)
    system = encode(inst)
    x = solve_feasibility(substitute(system, next(enumerate_scenarios(system))))
    families = decode_solution(inst, (), x)
    assert sorted(i for fam in families for i in fam) == [0, 1]
    validate_packing(inst, families)


def test_decode_solution_rejects_counts_that_break_the_system():
    inst = RdscpInstance(1, ((1,),), 0, 1, 1)
    with pytest.raises(ValidationError, match="outside its box"):
        decode_solution(inst, (), IntAssignment({VarId(0, "x[1]"): 2}))
    with pytest.raises(ValidationError, match="fewer covers"):
        decode_solution(inst, (), IntAssignment({VarId(0, "x[1]"): 0}))
    with pytest.raises(ValidationError, match="ran out of copies"):
        decode_solution(inst, (0,), IntAssignment({VarId(0, "x[1]"): 1}))



def test_decode_solution_stops_at_d_covers():
    # every pattern count is within its box, but together they ask for more
    # covers than d; the first d are realized and the rest left unused
    inst = _inst(2, [(1, 2), (1,), (2,)], 0, 1, 2)
    system = encode(inst)
    x = IntAssignment({vid: 1 for vid, _ in system.x_vars})
    assert len(system.x_vars) > inst.d
    families = decode_solution(inst, (), x)
    assert families == ((0,),)
    validate_packing(inst, families)

def test_full_pipeline_on_the_two_spare_example():
    inst = _inst(2, [(1,), (2,), (1, 2), (1, 2)], 1, 2, 2)
    system = encode(inst)
    for scenario in enumerate_scenarios(system):
        removed = decode_scenario(inst, scenario)
        x = solve_feasibility(substitute(system, scenario))
        assert x is not None
        families = decode_solution(inst, removed, x)
        validate_packing(inst, families, removed)


def test_validator_catches_bad_packings():
    inst = _inst(2, [(1,), (2,), (1, 2)], 0, 1, 2)
    with pytest.raises(ValidationError):
        validate_packing(inst, [(0,)])  # misses element 2
    with pytest.raises(ValidationError):
        validate_packing(inst, [(0, 1), (2,)])  # d is 1, got 2 covers
    with pytest.raises(ValidationError):
        validate_packing(inst, [(2,)], removed=(2,))
    with pytest.raises(ValidationError):
        validate_packing(_inst(2, [(1,), (2,)], 0, 1, 1), [(0, 1)])  # t cap



@pytest.mark.parametrize(
    "families, message",
    [
        ([(2, 2), (0, 1)], "cover repeats a copy"),
        ([(2,), (3,)], "no copy with index 3"),
        ([(2,), (2,)], "copy 2 used by two covers"),
    ],
    ids=["repeated-copy", "bad-index", "copy-used-twice"],
)
def test_validator_names_each_breach(families, message):
    inst = _inst(2, [(1,), (2,), (1, 2)], 0, 2, 2)
    with pytest.raises(ValidationError, match=message):
        validate_packing(inst, families)

# --- instance validation -----------------------------------------------------


def test_instance_validation():
    with pytest.raises(ValidationError):
        _inst(0, [], 0, 1, 1)
    with pytest.raises(ValidationError):
        _inst(2, [(1, 3)], 0, 1, 1)  # 3 outside the universe
    with pytest.raises(ValidationError):
        _inst(1, [(1,)], -1, 1, 1)
    with pytest.raises(ValidationError):
        _inst(1, [(1,)], 0, 0, 1)
    with pytest.raises(ValidationError):
        _inst(2, [(True,), (1.0, 2)], 0, 1, 1)  # a bool or float is no element
    # members may be given as sets, as in the README
    inst = RdscpInstance(n=2, family=({1}, {2}, {1, 2}), s=1, d=1, t=2)
    assert inst.family == (frozenset({1}), frozenset({2}), frozenset({1, 2}))
    # the family itself is ordered: its order numbers the copies
    with pytest.raises(ValidationError, match="family must be a list"):
        RdscpInstance(n=2, family={frozenset({1}), frozenset({2})}, s=0, d=1, t=1)


def test_instance_json_round_trip():
    inst = _inst(2, [(1,), (1, 2), (1, 2)], 1, 1, 2)
    assert RdscpInstance.from_dict(inst.to_dict()) == inst


# --- engine vs oracle --------------------------------------------------------


def _random_instance(rng):
    n = rng.randint(1, 3)
    m = rng.randint(1, 5)
    family = tuple(
        tuple(sorted(rng.sample(range(1, n + 1), rng.randint(1, n))))
        for _ in range(m)
    )
    return _inst(n, family, rng.randint(0, 2), rng.randint(1, 2), rng.randint(1, 3))


def test_encoder_agrees_with_removal_oracle():
    rng = random.Random(40901)
    disagreements = []
    yes = no = 0
    for _ in range(60):
        inst = _random_instance(rng)
        got = check_resiliency(encode(inst)).resilient
        want = rdscp_oracle(inst)
        if got != want:
            disagreements.append(inst)
        if want:
            yes += 1
        else:
            no += 1
    assert not disagreements
    assert yes and no  # the envelope must exercise both answers


def test_witnesses_kill_every_packing():
    rng = random.Random(40902)
    seen = 0
    for _ in range(80):
        inst = _random_instance(rng)
        verdict = check_resiliency(encode(inst))
        if verdict.resilient:
            continue
        removed = decode_scenario(inst, verdict.witness_z)
        assert len(removed) <= inst.s
        assert not rdscp_packing_exists(inst, removed)
        seen += 1
    assert seen > 10


def test_shrinking_s_preserves_yes():
    rng = random.Random(40903)
    exercised = 0
    for _ in range(80):
        inst = _random_instance(rng)
        if inst.s == 0 or not rdscp_oracle(inst):
            continue
        smaller = RdscpInstance(inst.n, inst.family, inst.s - 1, inst.d, inst.t)
        assert rdscp_oracle(smaller)
        assert check_resiliency(encode(smaller)).resilient
        exercised += 1
    assert exercised > 5


# --- policy translation -------------------------------------------------------


def test_policy_where_everyone_covers_everything():
    policy = AuthorizationPolicy(
        users=("u1", "u2"),
        resources=("r1", "r2"),
        vr=frozenset(
            (u, r) for u in ("u1", "u2") for r in ("r1", "r2")
        ),
        p=("r1", "r2"),
        s=0,
        d=2,
        t=1,
    )
    inst = from_policy(policy)
    assert inst.n == 2
    assert inst.family == (frozenset({1, 2}), frozenset({1, 2}))
    assert check_resiliency(encode(inst)).resilient


def test_unauthorized_user_becomes_empty_set():
    policy = AuthorizationPolicy(
        users=("idle",), resources=("r1",), vr=frozenset(), p=("r1",),
        s=0, d=1, t=1,
    )
    inst = from_policy(policy)
    assert inst.family == (frozenset(),)
    assert not check_resiliency(encode(inst)).resilient


def test_three_user_policy_survives_one_departure():
    policy = AuthorizationPolicy(
        users=("u1", "u2", "u3"),
        resources=("r1", "r2"),
        vr=frozenset([("u1", "r1"), ("u2", "r2"), ("u3", "r1"), ("u3", "r2")]),
        p=("r1", "r2"),
        s=1,
        d=1,
        t=2,
    )
    inst = from_policy(policy)
    assert inst.n == 2
    assert rdscp_oracle(inst) is True
    assert check_resiliency(encode(inst)).resilient


def test_policy_json_round_trip_and_validation():
    policy = AuthorizationPolicy(
        users=("a", "b"), resources=("r",), vr=frozenset([("a", "r")]),
        p=("r",), s=0, d=1, t=1,
    )
    assert AuthorizationPolicy.from_dict(policy.to_dict()) == policy
    with pytest.raises(ValidationError):
        AuthorizationPolicy(
            users=("a",), resources=("r",), vr=frozenset([("ghost", "r")]),
            p=("r",), s=0, d=1, t=1,
        )
    with pytest.raises(ValidationError):
        AuthorizationPolicy(
            users=("a",), resources=("r",), vr=frozenset(), p=("other",),
            s=0, d=1, t=1,
        )
    # users, resources and p are ordered (a set's order follows the hash
    # seed, and the user order numbers the family's copies); vr is not
    fields = dict(users=["a", "b"], resources=["r"], vr={("a", "r")}, p=["r"])
    assert AuthorizationPolicy(**fields, s=0, d=1, t=1) == policy
    for name in ("users", "resources", "p"):
        with pytest.raises(ValidationError, match=f"{name} must be a list"):
            AuthorizationPolicy(
                **{**fields, name: set(fields[name])}, s=0, d=1, t=1
            )



@pytest.mark.parametrize(
    "changes, message",
    [
        ({"vr": [("a", "r", "r")]}, "vr must be a list of \\[user, resource\\] pairs"),
        ({"users": ["a", "a"]}, "duplicate users"),
        ({"resources": ["r", "r"]}, "duplicate resources"),
        ({"p": ["r", "r"]}, "duplicate protected resources"),
    ],
    ids=["vr-triple", "duplicate-users", "duplicate-resources", "duplicate-p"],
)
def test_policy_names_each_bad_field(changes, message):
    fields = dict(users=["a", "b"], resources=["r"], vr=[("a", "r")], p=["r"])
    with pytest.raises(ValidationError, match=message):
        AuthorizationPolicy(**{**fields, **changes}, s=0, d=1, t=1)

# --- generators ---------------------------------------------------------------


def test_hitting_set_generator_flips_the_answer():
    # one edge, one allowed removal: {v1} hits it
    assert rdscp_oracle(gen_from_hitting_set(2, ((1, 2),), 1)) is False
    # no removals allowed: nothing hits with zero vertices
    assert rdscp_oracle(gen_from_hitting_set(2, ((1, 2),), 0)) is True
    # a path on three vertices is hit by its middle
    assert rdscp_oracle(gen_from_hitting_set(3, ((1, 2), (2, 3)), 1)) is False


def test_hitting_set_generator_agreement_sweep():
    rng = random.Random(40904)
    for _ in range(25):
        n = rng.randint(2, 4)
        edges = list(combinations(range(1, n + 1), 2))
        rng.shuffle(edges)
        sets = tuple(edges[: rng.randint(0, min(4, len(edges)))])
        k = rng.randint(0, 2)
        inst = gen_from_hitting_set(n, sets, k)
        assert rdscp_oracle(inst) == (not hitting_set_oracle(n, sets, k))


def test_hitting_set_generator_rejects_bad_input():
    with pytest.raises(ValidationError):
        gen_from_hitting_set(2, ((1,),), 1)  # sets must have >= 2 members
    with pytest.raises(ValidationError):
        gen_from_hitting_set(3, ((1, 2), (1, 2, 3)), 1)  # not uniform
    with pytest.raises(ValidationError):
        gen_from_hitting_set(2, ((1, 5),), 1)  # vertex outside range
    with pytest.raises(ValidationError):
        gen_from_hitting_set(2, ((True, 2),), 1)  # a bool is not a vertex
    with pytest.raises(ValidationError, match="repeats a vertex"):
        gen_from_hitting_set(2, ((1, 1),), 1)
    with pytest.raises(ValidationError, match="k must be"):
        gen_from_hitting_set(2, ((1, 2),), -1)


def _random_sources(rng):
    """Small hitting-set and 3DM sources, uniform set sizes 2 to 4."""
    for _ in range(100):
        n = rng.randint(0, 7)
        delta = rng.randint(2, 4) if n >= 4 else 2
        pool = list(combinations(range(1, n + 1), delta))
        rng.shuffle(pool)
        yield gen_from_hitting_set, (n, tuple(pool[: rng.randint(0, 5)]), 1)
        n = rng.randint(0, 3)
        pool = [
            (a, b, c)
            for a in range(1, n + 1)
            for b in range(1, n + 1)
            for c in range(1, n + 1)
        ]
        rng.shuffle(pool)
        yield gen_from_3dm, (n, tuple(pool[: rng.randint(0, 6)]), 1)


def test_generators_count_their_members_before_building(monkeypatch):
    # the budget, set to exactly the members built, passes; one less refuses
    budget = setcover._MAX_MEMBERS
    for generate, args in _random_sources(random.Random(40907)):
        monkeypatch.setattr(setcover, "_MAX_MEMBERS", budget)
        members = sum(len(member) for member in generate(*args).family)
        monkeypatch.setattr(setcover, "_MAX_MEMBERS", members - 1)
        with pytest.raises(BudgetError, match=f"would hold {members} set members"):
            generate(*args)
        monkeypatch.setattr(setcover, "_MAX_MEMBERS", members)
        generate(*args)


def test_3dm_generator_matches_matching_oracle():
    assert rdscp_oracle(gen_from_3dm(1, ((1, 1, 1),), 1)) is True
    assert matching_3dm_oracle(1, ((1, 1, 1),), 2) is False
    with pytest.raises(ValidationError):
        gen_from_3dm(1, ((1, 1, 1),), 0)  # needs at least one cover
    assert rdscp_oracle(gen_from_3dm(2, ((1, 1, 1), (2, 2, 2)), 2)) is True
    assert rdscp_oracle(gen_from_3dm(2, ((1, 1, 1), (1, 2, 2)), 2)) is False


def test_3dm_generator_agreement_sweep():
    rng = random.Random(40905)
    for _ in range(25):
        n = rng.randint(1, 2)
        pool = [
            (a, b, c)
            for a in range(1, n + 1)
            for b in range(1, n + 1)
            for c in range(1, n + 1)
        ]
        rng.shuffle(pool)
        triples = tuple(pool[: rng.randint(1, min(4, len(pool)))])
        k = rng.randint(1, 2)
        inst = gen_from_3dm(n, triples, k)
        assert rdscp_oracle(inst) == matching_3dm_oracle(n, triples, k)


def test_3dm_coordinate_blocks_hold_the_triples_on_their_coordinate():
    rng = random.Random(40906)
    for _ in range(20):
        n = rng.randint(1, 4)
        triples = sorted({
            tuple(rng.randint(1, n) for _ in range(3))
            for _ in range(rng.randint(1, 8))
        })
        m = len(triples)
        # block (axis, i): tag axis*m + j + 1 of every triple j with
        # coordinate i on that axis, plus anchor 3m + 1 + axis
        blocks = tuple(
            frozenset(
                {axis * m + j + 1 for j, tr in enumerate(triples) if tr[axis] == i}
            )
            | {3 * m + 1 + axis}
            for axis in range(3)
            for i in range(1, n + 1)
        )
        assert gen_from_3dm(n, triples, 1).family[: 3 * n] == blocks


def test_3dm_generator_rejects_malformed_triples():
    with pytest.raises(ValidationError):
        gen_from_3dm(1, ((1, 1),), 1)
    with pytest.raises(ValidationError):
        gen_from_3dm(1, ((1, 1, 2),), 1)  # coordinate outside an axis
    with pytest.raises(ValidationError):
        gen_from_3dm(1, ((1, 1, 1), (1, 1, 1)), 1)  # duplicate
    with pytest.raises(ValidationError, match="triples must be a list"):
        gen_from_3dm(1, "111", 1)
