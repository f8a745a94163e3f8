"""Digest of what the CLI prints, for comparing two checkouts.

Runs ``resilp.cli.main`` in process on every perfbench document
(``encode --kappa``, ``check --decode``, rcs also with
``--aggregate-distance``, and ``oracle``) and runs ``gen`` and
``gen --verify`` on the reduction sources the tests use, then a few other
checks (``check_runs``), ``check --raw -`` and ``oracle --raw -`` on an
encoded system fed on standard input (``stdin_runs``), a few inputs
that must be refused (``error_runs``) and what the parsers print for
help and usage errors (``help_runs``).  Prints one line per run: its
label, its exit code and short hashes of stdout and stderr, with
``wall_time`` values, the document path and the location a warning
points at masked.  ``cli_digest.txt`` next to this file holds the
committed digest:

    python3 tools/cli_digest.py --check                 # compare, exit 1 on a difference
    python3 tools/cli_digest.py > tools/cli_digest.txt  # write it again

A change that should not change what the CLI prints passes ``--check``; a
change that means to rewrites the file, and its diff names the runs that
moved.  Imports resilp from the ``src/`` of the checkout this file sits in.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import hashlib
import io
import json
import random
import re
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tools" / "cli_digest.txt"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from resilp import cli, setcover  # noqa: E402

import workloads  # noqa: E402

_WALL_TIME = re.compile(r'("wall_time": )[-+.0-9e]+')


def _hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def call(argv, stdin: str = ""):
    """Exit code, stdout and stderr of one in-process CLI call; stderr is
    preceded by every warning the call raised."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            saved, sys.stdin = sys.stdin, io.StringIO(stdin)
            try:
                code = cli.main(argv)
            finally:
                sys.stdin = saved
    # a warning without the file and line it points at, which differ by checkout
    notes = "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)
    return code, out.getvalue(), notes + err.getvalue()


def run(argv, path: str, stdin: str = "") -> str:
    """Exit code and masked output hashes of one in-process CLI call that
    reads ``stdin`` as its standard input."""
    code, out, err = call(argv, stdin)

    def mask(text):
        return _WALL_TIME.sub(r"\1<t>", text.replace(path, "<path>"))

    return f"exit={code} out={_hash(mask(out))} err={_hash(mask(err))}"


def document_runs(problem: str):
    """(label, argv) for one perfbench document of ``problem``."""
    which = ["--raw"] if problem == "raw" else ["--problem", problem]
    if problem != "raw":
        yield "encode", ["encode", "--problem", problem, "--kappa"]
    yield "check", ["check", *which, "--decode"]
    if problem == "rcs":
        yield "check-aggregate", ["check", *which, "--decode", "--aggregate-distance"]
    yield "oracle", ["oracle", *which]


def gen_sources():
    """(label, reduction, source) for the sources the tests reduce."""
    yield "hs-edge", "hitting-set", {"n": 2, "sets": [[1, 2]], "k": 1}
    yield "hs-empty", "hitting-set", {"n": 1, "sets": [], "k": 0}
    yield "hs-21-edges", "hitting-set", {
        "n": 42, "sets": [[2 * i + 1, 2 * i + 2] for i in range(21)], "k": 20
    }
    yield "hs-malformed", "hitting-set", {"n": 2, "k": 1}
    yield "3dm-single", "3dm", {"n": 1, "triples": [[1, 1, 1]], "k": 1}
    yield "3dm-short", "3dm", {"n": 1, "triples": [[1, 1]], "k": 1}
    # the seeded sources of acceptance criteria 3 and 4
    for seed in range(50):
        rng = random.Random(seed)
        n = rng.randint(2, 4)
        sets = [
            sorted(rng.sample(range(1, n + 1), 2)) for _ in range(rng.randint(0, 4))
        ]
        yield f"hs-seed{seed}", "hitting-set", {"n": n, "sets": sets, "k": rng.randint(0, 2)}
    for seed in range(50):
        rng = random.Random(seed)
        n = rng.randint(1, 2)
        triples = sorted(
            {
                (rng.randint(1, n), rng.randint(1, n), rng.randint(1, n))
                for _ in range(rng.randint(0, 4))
            }
        )
        doc = {"n": n, "triples": [list(t) for t in triples], "k": rng.randint(1, 2)}
        yield f"3dm-seed{seed}", "3dm", doc


def check_runs():
    """(label, argv, document text) for checks outside the perfbench set:
    ``check --decode`` on an rcs document whose columns are renamed on
    reading, and ``check`` on two rdscp instances that ``gen`` builds with
    universes of more than six elements."""
    yield "rcs-renamed", ["check", "--problem", "rcs", "--decode"], json.dumps(
        {"alphabet": ["a", "b"], "strings": ["bb", "ba", "ab"], "d": 1, "m": 1}
    )
    sources = {name: (reduction, doc) for name, reduction, doc in gen_sources()}
    for name in ("3dm-single", "hs-seed0"):
        reduction, doc = sources[name]
        if reduction == "3dm":
            built = setcover.gen_from_3dm(doc["n"], doc["triples"], doc["k"])
        else:
            built = setcover.gen_from_hitting_set(doc["n"], doc["sets"], doc["k"])
        yield f"rdscp-{name}", ["check", "--problem", "rdscp"], json.dumps(
            built.to_dict()
        )


def stdin_runs():
    """(label, argv, standard input) for the raw commands reading ``-``:
    ``check --raw -`` (also with ``--oracle --exhaustive``) and ``oracle
    --raw -`` on what ``encode --problem sched -`` prints for the perfbench
    document ``sched-001``, whose box is small enough for the oracle's
    plain enumeration."""
    doc = next(doc for iid, _, doc in workloads.all_instances() if iid == "sched-001")
    code, system, err = call(["encode", "--problem", "sched", "-"], json.dumps(doc))
    assert code == 0, err
    yield "check-raw", ["check", "--raw", "-"], system
    yield "check-raw-both", ["check", "--raw", "-", "--oracle", "--exhaustive"], system
    yield "oracle-raw", ["oracle", "--raw", "-"], system


def error_runs():
    """(label, argv, document text) for inputs the CLI must refuse: a null
    bound, a bare-integer string coefficient, nesting deeper than the JSON
    reader recurses, reduction sources just over the generators' member
    budget, the ``--max-patterns`` option, which no longer exists,
    ``--aggregate-distance`` outside rcs, ``gen --verify`` on a source
    whose instance has more sets than the rdscp oracle takes, a
    negative value for each budget or count flag, and ``--max-points``
    where no enumeration reads it.  A run whose document
    text is ``None`` reads no document."""
    raw = ["check", "--raw"]
    yield "null-bound", raw, json.dumps(
        {"variables": [{"name": "x", "lower": 0, "upper": None}], "zvars": [], "rows": []}
    )
    yield "string-integer", raw, json.dumps(
        {
            "variables": [
                {"name": "x", "lower": 0, "upper": 3},
                {"name": "z", "lower": 0, "upper": 1},
            ],
            "zvars": ["z"],
            "rows": [{"coeffs": {"x": "3", "z": 1}, "rel": "<=", "rhs": "+2/1"}],
        }
    )
    yield "deep-nesting", raw, "[" * 100_000 + "]" * 100_000
    yield "3dm-600", ["gen", "--reduction", "3dm"], json.dumps(
        {"n": 600, "triples": [[i, i, i] for i in range(1, 601)], "k": 1}
    )
    yield "hs-60", ["gen", "--reduction", "hitting-set"], json.dumps(
        {"n": 60, "sets": [[1, 2, 3, 4]], "k": 1}
    )
    yield "max-patterns", ["check", "--problem", "rdscp", "--max-patterns", "1"], json.dumps(
        {"n": 2, "family": [[1], [2], [1, 2]], "s": 1, "d": 1, "t": 2}
    )
    sched = {"machines": 2, "ptimes": [[1, 2]], "counts": [2], "K": 2, "cmax": 3}
    yield "aggregate-sched", ["check", "--problem", "sched", "--aggregate-distance"], (
        json.dumps(sched)
    )
    code, system, err = call(["encode", "--problem", "sched", "-"], json.dumps(sched))
    assert code == 0, err
    yield "aggregate-raw", ["check", "--raw", "--aggregate-distance"], system
    yield "3dm-570-verify", ["gen", "--reduction", "3dm", "--verify"], json.dumps(
        {"n": 570, "triples": [[i, i, i] for i in range(1, 571)], "k": 1}
    )
    yield "max-scenarios-negative", [
        "check", "--problem", "sched", "--max-scenarios", "-5"
    ], json.dumps(sched)
    yield "check-max-points-negative", [
        "check", "--problem", "sched", "--oracle", "--max-points", "-1"
    ], json.dumps(sched)
    yield "oracle-max-points-negative", [
        "oracle", "--problem", "sched", "--max-points", "-1"
    ], json.dumps(sched)
    rcs = json.dumps({"alphabet": ["a", "b"], "strings": ["aa", "ab"], "d": 1, "m": 1})
    yield "oracle-rcs-max-points", ["oracle", "--problem", "rcs", "--max-points", "0"], rcs
    yield "check-rcs-oracle-max-points", [
        "check", "--problem", "rcs", "--oracle", "--max-points", "0"
    ], rcs
    yield "check-sched-max-points", [
        "check", "--problem", "sched", "--max-points", "0"
    ], json.dumps(sched)
    yield "count-negative", ["gen-random", "--family", "system", "--count", "-2"], None


def help_runs(path: str):
    """(label, argv) for what the parsers print: top-level ``-h``, each
    command's ``-h``, no command, an unknown command, and an argument
    that ``encode``, ``oracle`` and ``gen`` do not take, after a document
    ``path`` they would read."""
    yield "top", ["-h"]
    for command in ("encode", "check", "oracle", "gen", "gen-random"):
        yield command, [command, "-h"]
    yield "no-command", []
    yield "unknown-command", ["nosuch"]
    yield "encode-bogus", ["encode", "--problem", "sched", path, "--bogus"]
    yield "oracle-bogus", ["oracle", "--problem", "sched", path, "--bogus", "1"]
    yield "gen-bogus", ["gen", "--reduction", "3dm", path, "--bogus"]


def digest_lines():
    """Every line of the digest, in order."""
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "doc.json")

        def digest(label, argv, text):
            Path(path).write_text(text)
            return f"{label} {run(argv + [path], path)}"

        for iid, problem, doc in workloads.all_instances():
            for what, argv in document_runs(problem):
                yield digest(f"{what} {iid}", argv, json.dumps(doc))
        for name, reduction, doc in gen_sources():
            for flags in ([], ["--verify"]):
                argv = ["gen", "--reduction", reduction, *flags]
                yield digest(" ".join(["gen", *flags, name]), argv, json.dumps(doc))
        for name, argv, text in check_runs():
            yield digest(f"check {name}", argv, text)
        for name, argv, text in stdin_runs():
            yield f"stdin {name} {run(argv, path, stdin=text)}"
        for name, argv, text in error_runs():
            if text is None:
                yield f"error {name} {run(argv, path)}"
            else:
                yield digest(f"error {name}", argv, text)
        Path(path).write_text(json.dumps({"n": 1, "triples": [[1, 1, 1]], "k": 1}))
        for name, argv in help_runs(path):
            yield f"help {name} {run(argv, path)}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help=f"compare with {GOLDEN.name} instead of printing")
    args = parser.parse_args(argv)
    if not args.check:
        for line in digest_lines():
            print(line, flush=True)
        return 0
    committed = GOLDEN.read_text().splitlines()
    fresh = list(digest_lines())
    diff = list(difflib.unified_diff(committed, fresh, GOLDEN.name, "now", lineterm=""))
    for line in diff:
        print(line)
    print(f"{len(fresh)} lines, {'differs from' if diff else 'matches'} {GOLDEN.name}")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
