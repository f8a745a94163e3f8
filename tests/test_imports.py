"""What importing resilp loads, and the package's lazily bound exports."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import resilp

SRC = Path(__file__).resolve().parents[1] / "src"
PROBLEM_MODULES = {
    "resilp.bribery",
    "resilp.closest_string",
    "resilp.scheduling",
    "resilp.setcover",
}
# One resilient document per input `check` reads; "raw" is a system.
DOCS = {
    "sched": {"machines": 2, "ptimes": [[1, 2]], "counts": [2], "K": 2, "cmax": 3},
    "rcs": {"alphabet": ["a", "b"], "strings": ["aa", "ab"], "d": 1, "m": 1},
    "bribery": {
        "candidates": 2,
        "votes": [{"order": [1, 2], "count": 2}, {"order": [2, 1], "count": 1}],
        "scoring": [1, 0],
        "ba": 1,
        "b": 1,
    },
    "rdscp": {"n": 2, "family": [[1], [2], [1, 2]], "s": 1, "d": 1, "t": 2},
    "raw": {
        "variables": [
            {"name": "x", "lower": 0, "upper": 1},
            {"name": "z", "lower": 0, "upper": 1},
        ],
        "zvars": ["z"],
        "rows": [{"coeffs": {"x": 1, "z": 1}, "rel": "<=", "rhs": 2}],
    },
}
# Loading either costs every start several ms; see docs/review-checklist.md.
HEAVY_STDLIB = {"dataclasses", "inspect"}


def modules_after(code: str) -> set:
    """Every module a fresh interpreter holds after running ``code``."""
    script = code + "\nimport json, sys\nprint(json.dumps(list(sys.modules)))"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    return set(json.loads(done.stdout.splitlines()[-1]))


def loaded_after(code: str) -> set:
    """The resilp modules a fresh interpreter holds after running ``code``."""
    return {m for m in modules_after(code) if m.split(".")[0] == "resilp"}


def check_modules(tmp_path, which: str, *flags) -> set:
    """Every module a fresh interpreter holds after a successful ``check``
    of ``DOCS[which]``."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(DOCS[which]))
    source = ["--raw"] if which == "raw" else ["--problem", which]
    argv = ["check", *source, str(path), *flags]
    return modules_after(f"import resilp.cli\nassert resilp.cli.main({argv!r}) == 0")


def test_import_resilp_loads_only_the_package():
    assert loaded_after("import resilp") == {"resilp"}


def test_import_cli_loads_no_problem_module_oracle_or_generator():
    loaded = loaded_after("import resilp.cli")
    assert not loaded & (PROBLEM_MODULES | {"resilp.oracles", "resilp.sampling"})


def test_import_cli_loads_no_heavy_stdlib_module():
    assert not modules_after("import resilp.cli") & HEAVY_STDLIB


@pytest.mark.parametrize("which", ["sched", "rcs", "bribery", "rdscp", "raw"])
def test_check_loads_no_heavy_stdlib_module(tmp_path, which):
    assert not check_modules(tmp_path, which) & HEAVY_STDLIB


def test_import_cli_builds_no_parser():
    loaded_after(
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting_init(self, *args, **kwargs):\n"
        "    built.append(kwargs.get('prog'))\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting_init\n"
        "import resilp.cli\n"
        "assert not built, built"
    )


def test_check_loads_only_its_own_problem_module(tmp_path):
    loaded = check_modules(tmp_path, "sched")
    assert loaded & PROBLEM_MODULES == {"resilp.scheduling"}
    assert "resilp.oracles" not in loaded


def test_check_with_oracle_loads_the_oracles(tmp_path):
    assert "resilp.oracles" in check_modules(tmp_path, "sched", "--oracle")


def test_every_export_is_the_object_its_module_defines():
    for name in resilp.__all__:
        value = getattr(resilp, name)
        if name == "__version__":
            assert isinstance(value, str)
            continue
        assert getattr(sys.modules[value.__module__], name) is value, name


def test_star_import_binds_every_export():
    namespace = {}
    exec("from resilp import *", namespace)
    assert set(resilp.__all__) <= set(namespace)
    assert set(resilp.__all__) <= set(dir(resilp))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        resilp.no_such_name
    assert not hasattr(resilp, "no_such_name")


def test_submodule_import_from_the_package():
    from resilp import bribery

    assert bribery is sys.modules["resilp.bribery"]
    # in a fresh interpreter the submodule is not loaded yet
    assert "resilp.bribery" in loaded_after(
        "from resilp import bribery\nassert bribery.__name__ == 'resilp.bribery'"
    )
