"""The schemas in docs/formats.md must hold for live payloads."""

import copy
import json
import re
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator
from referencing import Registry, Resource

from resilp import bribery, closest_string, scheduling, setcover
from resilp.cli import main
from resilp.engine import check_resiliency
from resilp.errors import ValidationError
from resilp.jsonio import (
    resiliency_from_dict,
    resiliency_to_dict,
    verdict_to_dict,
)
from resilp.sampling import (
    random_bribery,
    random_rcs,
    random_rdscp,
    random_sched,
    random_system,
)

import random

DOC = Path(__file__).resolve().parent.parent / "docs" / "formats.md"

EXPECTED_IDS = {
    "resilp:system",
    "resilp:resiliency-system",
    "resilp:verdict",
    "resilp:report",
    "resilp:oracle-report",
    "resilp:rdscp-instance",
    "resilp:policy-instance",
    "resilp:rcs-instance",
    "resilp:sched-instance",
    "resilp:bribery-instance",
    "resilp:hitting-set-source",
    "resilp:3dm-source",
}


def load_schemas():
    blocks = re.findall(r"```json\n(.*?)```", DOC.read_text(), re.DOTALL)
    schemas = {}
    for block in blocks:
        schema = json.loads(block)
        schemas[schema["$id"]] = schema
    return schemas


SCHEMAS = load_schemas()
REGISTRY = Registry().with_resources(
    (sid, Resource.from_contents(schema)) for sid, schema in SCHEMAS.items()
)


def check(doc, schema_id):
    Draft202012Validator(SCHEMAS[schema_id], registry=REGISTRY).validate(doc)


def test_all_published_ids_present_and_wellformed():
    assert set(SCHEMAS) == EXPECTED_IDS
    for schema in SCHEMAS.values():
        Draft202012Validator.check_schema(schema)


def test_encoded_systems_validate():
    rng = random.Random(11)
    for _ in range(10):
        check(resiliency_to_dict(random_system(rng)), "resilp:resiliency-system")
    check(
        resiliency_to_dict(setcover.encode(random_rdscp(rng))),
        "resilp:resiliency-system",
    )
    check(
        resiliency_to_dict(closest_string.encode(random_rcs(rng))),
        "resilp:resiliency-system",
    )
    sys_doc = resiliency_to_dict(scheduling.encode(random_sched(rng)))
    check(sys_doc, "resilp:resiliency-system")
    del sys_doc["zvars"]
    check(sys_doc, "resilp:system")


def test_verdicts_validate():
    rng = random.Random(3)
    for _ in range(10):
        verdict = check_resiliency(random_system(rng))
        check(verdict_to_dict(verdict), "resilp:verdict")


def test_instance_documents_validate():
    rng = random.Random(7)
    for _ in range(20):
        check(random_rdscp(rng).to_dict(), "resilp:rdscp-instance")
        check(random_rcs(rng).to_dict(), "resilp:rcs-instance")
        check(random_sched(rng).to_dict(), "resilp:sched-instance")
        check(random_bribery(rng).to_dict(), "resilp:bribery-instance")
    policy = setcover.AuthorizationPolicy(
        users=("u1", "u2"),
        resources=("r1", "r2"),
        vr=frozenset([("u1", "r1"), ("u2", "r2")]),
        p=("r1",),
        s=1,
        d=1,
        t=1,
    )
    check(policy.to_dict(), "resilp:policy-instance")


def test_source_documents_validate():
    check({"n": 3, "sets": [[1, 2], [2, 3]], "k": 1}, "resilp:hitting-set-source")
    check({"n": 2, "triples": [[1, 1, 2], [2, 2, 1]], "k": 2}, "resilp:3dm-source")


SCHED = {"machines": 2, "ptimes": [[1, 2]], "counts": [2], "K": 2, "cmax": 3}
RDSCP = {"n": 2, "family": [[1], [2], [1, 2]], "s": 1, "d": 1, "t": 2}
POLICY = {
    "users": ["u1", "u2"],
    "resources": ["r1"],
    "vr": [["u1", "r1"], ["u2", "r1"]],
    "p": ["r1"],
    "s": 1,
    "d": 1,
    "t": 1,
}
RCS = {"alphabet": ["a", "b"], "strings": ["aa", "ab"], "d": 1, "m": 1}
BRIBERY = {
    "candidates": 2,
    "votes": [{"order": [1, 2], "count": 2}, {"order": [2, 1], "count": 1}],
    "scoring": [1, 0],
    "ba": 1,
    "b": 1,
}


# every problem, once resilient (a decoded solution) and once not (a
# decoded witness)
REPORTED = [
    ("sched", SCHED, 0),
    ("sched", {**SCHED, "cmax": 2}, 1),
    ("rdscp", RDSCP, 0),
    ("rdscp", {**RDSCP, "s": 2}, 1),
    ("policy", POLICY, 0),
    ("policy", {**POLICY, "s": 2}, 1),
    ("rcs", RCS, 0),
    ("rcs", {**RCS, "d": 0}, 1),
    ("bribery", BRIBERY, 0),
    ("bribery", {**BRIBERY, "b": 0}, 1),
]


@pytest.mark.parametrize(
    "problem,inst,expect_code",
    REPORTED,
    ids=[f"{problem}-{code}" for problem, _, code in REPORTED],
)
def test_cli_reports_validate(tmp_path, capsys, problem, inst, expect_code):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(inst))

    code = main(
        ["check", "--problem", problem, str(path), "--oracle", "--decode"]
    )
    out = capsys.readouterr().out
    assert code == expect_code
    report = json.loads(out)
    check(report, "resilp:report")
    assert report["decoded"]["adversary"] is not None
    assert (report["decoded"]["solution"] is not None) == (expect_code == 0)

    code = main(["oracle", "--problem", problem, str(path)])
    out = capsys.readouterr().out
    assert code == expect_code
    check(json.loads(out), "resilp:oracle-report")


def test_cli_raw_decode_report_validates(tmp_path, capsys):
    rng = random.Random(2)
    for _ in range(8):
        doc = resiliency_to_dict(random_system(rng))
        path = tmp_path / "sys.json"
        path.write_text(json.dumps(doc))
        code = main(["check", "--raw", str(path), "--decode"])
        out = capsys.readouterr().out
        assert code in (0, 1)
        check(json.loads(out), "resilp:report")


# --------------------------------------------- schema vs. reader, mutated

READERS = {
    "resilp:resiliency-system": resiliency_from_dict,
    "resilp:rdscp-instance": setcover.RdscpInstance.from_dict,
    "resilp:policy-instance": setcover.AuthorizationPolicy.from_dict,
    "resilp:rcs-instance": closest_string.instance_from_dict,
    "resilp:sched-instance": scheduling.SchedulingInstance.from_dict,
    "resilp:bribery-instance": bribery.BriberyInstance.from_dict,
}
SOURCES = {"resilp:hitting-set-source": "hitting-set", "resilp:3dm-source": "3dm"}


def valid_documents(schema_id):
    """Seeded valid documents of one schema, with nested objects present."""
    rng = random.Random(29)
    if schema_id == "resilp:resiliency-system":
        systems = [random_system(rng) for _ in range(6)]
        systems.append(scheduling.encode(random_sched(rng)))
        return [resiliency_to_dict(system) for system in systems]
    makers = {
        "resilp:rdscp-instance": random_rdscp,
        "resilp:rcs-instance": random_rcs,
        "resilp:sched-instance": random_sched,
        "resilp:bribery-instance": random_bribery,
    }
    if schema_id in makers:
        return [makers[schema_id](rng).to_dict() for _ in range(6)]
    return [
        {
            "resilp:policy-instance": {
                "users": ["u1", "u2"],
                "resources": ["r1", "r2"],
                "vr": [["u1", "r1"], ["u2", "r2"]],
                "p": ["r1"],
                "s": 1,
                "d": 1,
                "t": 1,
            },
            "resilp:hitting-set-source": {"n": 3, "sets": [[1, 2], [2, 3]], "k": 1},
            "resilp:3dm-source": {"n": 2, "triples": [[1, 1, 2], [2, 2, 1]], "k": 2},
        }[schema_id]
    ]


def _objects(node, path=()):
    """Every object in a document, with its path; a list stands for itself
    by its first entry."""
    if isinstance(node, dict):
        yield path, node
        for key, value in node.items():
            yield from _objects(value, path + (key,))
    elif isinstance(node, list) and node:
        yield from _objects(node[0], path + (0,))


def _replaced(doc, path, obj):
    """A copy of ``doc`` with the object at ``path`` swapped for ``obj``."""
    if not path:
        return obj
    out = copy.deepcopy(doc)
    parent = out
    for step in path[:-1]:
        parent = parent[step]
    parent[path[-1]] = obj
    return out


def _arrays(node, path=()):
    """Every non-empty array in a document, with its path; as in
    ``_objects``, a list stands for itself by its first entry."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _arrays(value, path + (key,))
    elif isinstance(node, list) and node:
        yield path, node
        yield from _arrays(node[0], path + (0,))


ELEMENT_MUTANTS = (1.5, True, [1], "a", None)


def mutants(doc):
    """(label, document) pairs: in every object, each key dropped, an
    unknown key added, and each array field turned into a string; in every
    array, the first entry swapped for each of ``ELEMENT_MUTANTS``."""
    for path, obj in list(_objects(doc)):
        for key in obj:
            rest = {k: v for k, v in obj.items() if k != key}
            yield f"{path} without {key!r}", _replaced(doc, path, rest)
        yield f"{path} with an unknown key", _replaced(doc, path, {**obj, "extra": 0})
        for key, value in obj.items():
            if isinstance(value, list):
                for text in ("", "ab"):
                    label = f"{path} with {key!r} = {text!r}"
                    yield label, _replaced(doc, path, {**obj, key: text})
    for path, array in list(_arrays(doc)):
        for entry in ELEMENT_MUTANTS:
            label = f"{path} with entry 0 = {entry!r}"
            yield label, _replaced(doc, path, [entry, *array[1:]])


def schema_rejects(doc, schema_id):
    validator = Draft202012Validator(SCHEMAS[schema_id], registry=REGISTRY)
    return not validator.is_valid(doc)


@pytest.mark.parametrize("schema_id", sorted(READERS) + sorted(SOURCES))
def test_readers_reject_what_the_schema_rejects(schema_id, tmp_path, capsys):
    rejected, missed = 0, []
    for doc in valid_documents(schema_id):
        check(doc, schema_id)
        for label, mutant in mutants(doc):
            if not schema_rejects(mutant, schema_id):
                continue
            rejected += 1
            if schema_id in SOURCES:
                path = tmp_path / "source.json"
                path.write_text(json.dumps(mutant))
                code = main(["gen", "--reduction", SOURCES[schema_id], str(path)])
                capsys.readouterr()
                if code != 2:
                    missed.append((label, f"exit {code}"))
                continue
            try:
                READERS[schema_id](mutant)
            except ValidationError:
                continue
            except Exception as exc:  # noqa: BLE001 - reported below
                missed.append((label, repr(exc)))
            else:
                missed.append((label, "accepted"))
    assert rejected > 0
    assert not missed, missed
