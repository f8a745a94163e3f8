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
SCHED = {"machines": 2, "ptimes": [[1, 2]], "counts": [2], "K": 2, "cmax": 3}


def loaded_after(code: str) -> set:
    """The resilp modules a fresh interpreter holds after running ``code``."""
    script = code + (
        "\nimport json, sys"
        "\nprint(json.dumps([m for m in sys.modules if m.split('.')[0] == 'resilp']))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    return set(json.loads(done.stdout.splitlines()[-1]))


def check_sched(tmp_path, *flags) -> set:
    path = tmp_path / "sched.json"
    path.write_text(json.dumps(SCHED))
    argv = ["check", "--problem", "sched", str(path), *flags]
    return loaded_after(f"import resilp.cli\nassert resilp.cli.main({argv!r}) == 0")


def test_import_resilp_loads_only_the_package():
    assert loaded_after("import resilp") == {"resilp"}


def test_import_cli_loads_no_problem_module_oracle_or_generator():
    loaded = loaded_after("import resilp.cli")
    assert not loaded & (PROBLEM_MODULES | {"resilp.oracles", "resilp.sampling"})


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
    loaded = check_sched(tmp_path)
    assert loaded & PROBLEM_MODULES == {"resilp.scheduling"}
    assert "resilp.oracles" not in loaded


def test_check_with_oracle_loads_the_oracles(tmp_path):
    assert "resilp.oracles" in check_sched(tmp_path, "--oracle")


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
