"""Column normalization, type extraction, and the corrupted-matrix
closest-string encoder."""

import random

import pytest

from resilp.closest_string import (
    Alphabet,
    RcsInstance,
    StringMatrix,
    all_types,
    column_types,
    decode_scenario,
    decode_solution,
    denormalize_rows,
    encode,
    instance_from_dict,
    is_normalized_column,
    mismatch_count,
    normalize,
    type_distance,
)
from resilp.engine import check_resiliency, enumerate_scenarios, substitute
from resilp.errors import (
    BudgetError,
    NormalizationError,
    ScenarioError,
    ValidationError,
)
from resilp.ilp import IntAssignment, VarId, solve_feasibility
from resilp.oracles import closest_string_oracle, rcs_oracle

AB = Alphabet(("a", "b"))


def _matrix(*rows):
    return StringMatrix(AB, tuple(rows))


def _random_matrix(rng, max_k=3, max_len=4):
    k = rng.randint(1, max_k)
    length = rng.randint(1, max_len)
    return _matrix(
        *("".join(rng.choice("ab") for _ in range(length)) for _ in range(k))
    )


# --- normalization ------------------------------------------------------------


def test_already_normalized_column_is_untouched():
    m, bijections = normalize(_matrix("a", "a", "b"))
    assert m.rows == ("a", "a", "b")
    assert bijections == ({"a": "a", "b": "b"},)


def test_minority_symbol_is_renamed():
    m, bijections = normalize(_matrix("b", "b", "a"))
    assert m.rows == ("a", "a", "b")
    assert bijections == ({"b": "a", "a": "b"},)


def test_normalize_is_idempotent():
    rng = random.Random(50901)
    for _ in range(120):
        once, _ = normalize(_random_matrix(rng))
        twice, bijections = normalize(once)
        assert twice == once
        assert all(b == {"a": "a", "b": "b"} for b in bijections)


def test_normalize_preserves_row_equality_patterns():
    # per-column bijections cannot merge or split equal cells
    rng = random.Random(50902)
    for _ in range(120):
        matrix = _random_matrix(rng)
        normalized, _ = normalize(matrix)
        for i in range(matrix.k):
            for j in range(matrix.k):
                for c in range(matrix.length):
                    before = matrix.rows[i][c] == matrix.rows[j][c]
                    after = normalized.rows[i][c] == normalized.rows[j][c]
                    assert before == after


def test_denormalize_inverts_normalize():
    rng = random.Random(50903)
    for _ in range(60):
        matrix = _random_matrix(rng)
        normalized, bijections = normalize(matrix)
        assert denormalize_rows(normalized.rows, bijections) == matrix.rows


# --- column types ---------------------------------------------------------------


def test_constant_matrix_has_one_type():
    types = column_types(_matrix("aa", "aa"))
    assert len(types) == 1
    assert types[0].cells == ("a", "a")
    assert types[0].count == 2


def test_single_row_forces_the_first_symbol():
    types = column_types(_matrix("aaaa"))
    assert len(types) == 1
    assert types[0].count == 4


def test_tied_columns_are_distinct_types():
    # (a,a), (a,b) and (b,a) are all normalized; ties do not collapse
    types = column_types(_matrix("aab", "aba"))
    assert [t.cells for t in types] == [("a", "a"), ("a", "b"), ("b", "a")]
    assert [t.count for t in types] == [1, 1, 1]


def test_unnormalized_input_names_the_column():
    with pytest.raises(NormalizationError) as err:
        column_types(_matrix("ab", "ab"))
    assert "1" in str(err.value)


def test_all_types_enumeration():
    assert all_types(1, AB) == (("a",),)
    assert all_types(2, AB) == (("a", "a"), ("a", "b"), ("b", "a"))
    assert len(all_types(3, AB)) == 4
    for k in (1, 2, 3, 4):
        for t in all_types(k, AB):
            assert is_normalized_column(t, AB)


def test_type_distance_and_mismatch_count():
    assert type_distance(("a", "b"), ("a", "b")) == 0
    assert type_distance(("a", "b"), ("b", "a")) == 2
    assert mismatch_count(("a", "a", "b"), "a") == 1
    assert mismatch_count(("a", "a", "b"), "b") == 2


# --- encoding --------------------------------------------------------------------


def test_trivial_single_cell_instance():
    inst = RcsInstance(_matrix("a"), 0, 0)
    assert check_resiliency(encode(inst)).resilient


def test_one_spare_distance_absorbs_one_change():
    inst = RcsInstance(_matrix("aa", "aa"), 1, 1)
    assert rcs_oracle(inst) is True
    assert check_resiliency(encode(inst)).resilient


def test_zero_distance_cannot_survive_a_split_column():
    inst = RcsInstance(_matrix("a", "a"), 0, 1)
    assert rcs_oracle(inst) is False
    verdict = check_resiliency(encode(inst))
    assert not verdict.resilient


def test_boxes_and_budget():
    inst = RcsInstance(_matrix("aa", "ab"), 1, 1)
    system = encode(inst)
    bounds = {vid.name: b for vid, b in system.z_vars}
    # two columns of type (a,a)? no: one (a,a) and one (a,b)
    assert bounds["z[aa->ab]"].upper == 1
    assert bounds["z[ab->aa]"].upper == 1
    assert bounds["z[ba->aa]"].upper == 0  # no (b,a) columns to move
    assert bounds["cnt[aa]"].upper == inst.matrix.length
    for _, b in system.x_vars:
        assert (b.lower, b.upper) == (0, inst.matrix.length)
    with pytest.raises(BudgetError):
        encode(RcsInstance(_matrix(*["a" * 2] * 5), 1, 1))


# --- scenario and solution decoding ------------------------------------------------


def _scenario_for(system, wanted):
    for scenario in enumerate_scenarios(system):
        if scenario.by_name() == wanted:
            return scenario
    raise AssertionError(f"no scenario {wanted}")


def test_identity_scenario_reproduces_the_matrix():
    inst = RcsInstance(_matrix("a", "a"), 0, 1)
    system = encode(inst)
    wanted = {name: 0 for name in (
        "z[aa->ab]", "z[aa->ba]", "z[ab->aa]", "z[ab->ba]",
        "z[ba->aa]", "z[ba->ab]", "cnt[ab]", "cnt[ba]",
    )}
    wanted.update({"z[aa->aa]": 1, "cnt[aa]": 1, "z[ab->ab]": 0, "z[ba->ba]": 0})
    corrupted = decode_scenario(inst, _scenario_for(system, wanted))
    assert corrupted == inst.matrix


def test_single_column_turned_adversarial():
    inst = RcsInstance(_matrix("a", "a"), 0, 1)
    system = encode(inst)
    wanted = {name: 0 for name in (
        "z[aa->aa]", "z[aa->ba]", "z[ab->aa]", "z[ab->ab]", "z[ab->ba]",
        "z[ba->aa]", "z[ba->ab]", "z[ba->ba]", "cnt[aa]", "cnt[ba]",
    )}
    wanted.update({"z[aa->ab]": 1, "cnt[ab]": 1})
    corrupted = decode_scenario(inst, _scenario_for(system, wanted))
    assert corrupted.rows == ("a", "b")


def test_decoded_scenarios_census_checks_out():
    rng = random.Random(50904)
    for _ in range(25):
        matrix, _ = normalize(_random_matrix(rng, max_k=2, max_len=3))
        inst = RcsInstance(
            matrix, rng.randint(0, 2), rng.randint(0, min(2, matrix.k * matrix.length))
        )
        system = encode(inst)
        for scenario in enumerate_scenarios(system):
            corrupted = decode_scenario(inst, scenario)
            values = scenario.by_name()
            census = {t.cells: t.count for t in column_types(corrupted)}
            for cells in all_types(inst.matrix.k, AB):
                key = "cnt[" + "".join(cells) + "]"
                assert values[key] == census.get(cells, 0)


def test_decode_scenario_rejects_foreign_names():
    inst = RcsInstance(_matrix("a"), 0, 0)
    with pytest.raises(ScenarioError):
        decode_scenario(inst, IntAssignment({VarId(0, "z[aa->ab]"): 0}))


def test_decode_solution_identical_rows():
    # identical rows normalize to all first-symbol columns
    inst = RcsInstance(_matrix("aa", "aa"), 0, 0)
    system = encode(inst)
    scenario = next(enumerate_scenarios(system))
    corrupted = decode_scenario(inst, scenario)
    x = solve_feasibility(substitute(system, scenario))
    assert decode_solution(inst, corrupted, x) == "aa"


def test_full_pipeline_validates_centers():
    rng = random.Random(50905)
    exercised = 0
    for _ in range(20):
        matrix, _ = normalize(_random_matrix(rng, max_k=2, max_len=3))
        inst = RcsInstance(
            matrix, rng.randint(0, 2), rng.randint(0, min(2, matrix.k * matrix.length))
        )
        system = encode(inst)
        if not check_resiliency(system).resilient:
            continue
        for scenario in enumerate_scenarios(system):
            corrupted = decode_scenario(inst, scenario)
            x = solve_feasibility(substitute(system, scenario))
            center = decode_solution(inst, corrupted, x)
            for row in corrupted.rows:
                hamming = sum(1 for p, q in zip(center, row) if p != q)
                assert hamming <= inst.d
            exercised += 1
    assert exercised > 10


# --- engine vs oracle -----------------------------------------------------------


def test_encoder_agrees_with_corruption_oracle():
    rng = random.Random(50906)
    yes = no = 0
    for _ in range(50):
        matrix, _ = normalize(_random_matrix(rng, max_k=3, max_len=3))
        inst = RcsInstance(
            matrix, rng.randint(0, 2), rng.randint(0, min(2, matrix.k * matrix.length))
        )
        got = check_resiliency(encode(inst)).resilient
        want = rcs_oracle(inst)
        assert got == want, inst.to_dict()
        if want:
            yes += 1
        else:
            no += 1
    assert yes and no


def test_zero_budget_collapses_to_plain_closest_string():
    rng = random.Random(50907)
    for _ in range(40):
        matrix, _ = normalize(_random_matrix(rng, max_k=3, max_len=3))
        inst = RcsInstance(matrix, rng.randint(0, 2), 0)
        got = check_resiliency(encode(inst)).resilient
        assert got == closest_string_oracle(matrix.rows, inst.d, "ab")


def test_shrinking_m_preserves_yes():
    rng = random.Random(50908)
    exercised = 0
    for _ in range(60):
        matrix, _ = normalize(_random_matrix(rng, max_k=2, max_len=3))
        inst = RcsInstance(
            matrix, rng.randint(0, 2), rng.randint(1, max(1, min(2, matrix.k * matrix.length)))
        )
        if not check_resiliency(encode(inst)).resilient:
            continue
        smaller = RcsInstance(matrix, inst.d, inst.m - 1)
        assert check_resiliency(encode(smaller)).resilient
        exercised += 1
    assert exercised > 10


def test_aggregate_distance_variant():
    rng = random.Random(50909)
    differs = 0
    for _ in range(30):
        matrix, _ = normalize(_random_matrix(rng, max_k=2, max_len=2))
        inst = RcsInstance(
            matrix, rng.randint(0, 2), rng.randint(0, min(1, matrix.k * matrix.length))
        )
        got = check_resiliency(
            encode(inst, per_row_distance=False)
        ).resilient
        want = rcs_oracle(inst, per_row_distance=False)
        assert got == want
        if want != rcs_oracle(inst):
            differs += 1
    # the aggregate reading is a genuinely different contract
    assert differs > 0


# --- instance documents -----------------------------------------------------------


def test_instance_ingest_normalizes_and_warns():
    doc = {"alphabet": ["a", "b"], "strings": ["b", "b"], "d": 0, "m": 0}
    with pytest.warns(UserWarning, match="0"):
        inst, bijections = instance_from_dict(doc)
    assert inst.matrix.rows == ("a", "a")
    assert bijections[0] == {"b": "a", "a": "b"}
    assert denormalize_rows(inst.matrix.rows, bijections) == ("b", "b")


def test_instance_ingest_round_trip_when_already_normalized():
    doc = {"alphabet": ["a", "b"], "strings": ["ab", "aa"], "d": 1, "m": 2}
    inst, _ = instance_from_dict(doc)
    assert inst.to_dict() == doc


@pytest.mark.parametrize(
    "doc",
    [
        {"alphabet": ["a", "b"], "strings": ["a"], "d": -1, "m": 0},
        {"alphabet": ["a", "b"], "strings": ["a"], "d": 0, "m": 2},
        {"alphabet": ["a", "b"], "strings": ["a", "ab"], "d": 0, "m": 0},
        {"alphabet": ["a", "a"], "strings": ["a"], "d": 0, "m": 0},
        {"alphabet": ["a"], "strings": ["a"], "d": 0, "m": 0, "seed": 9},
        # ordered fields, so a set is refused
        {"alphabet": {"a", "b"}, "strings": ["a"], "d": 0, "m": 0},
        {"alphabet": ["a", "b"], "strings": {"ab", "aa"}, "d": 0, "m": 0},
    ],
)
def test_bad_instance_documents_rejected(doc):
    with pytest.raises(ValidationError):
        instance_from_dict(doc)


def test_decode_solution_rejects_counts_that_miss_the_census():
    inst = RcsInstance(StringMatrix(AB, ("a",)), 0, 0)
    zero = IntAssignment({VarId(0, "x[a,a]"): 0, VarId(1, "x[a,b]"): 0})
    with pytest.raises(ValidationError, match="0 answers for 1 columns"):
        decode_solution(inst, inst.matrix, zero)
    extra = IntAssignment({VarId(0, "x[a,a]"): 2, VarId(1, "x[a,b]"): 0})
    with pytest.raises(ValidationError, match="more answers"):
        decode_solution(inst, inst.matrix, extra)
