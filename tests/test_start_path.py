"""What a process loads: `import confal` and each CLI command load only their layers.

Each case runs in a fresh interpreter and reports which confal submodules
ended up in `sys.modules`, so a top-level import that drags a layer onto the
start path fails here.
"""

import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

import confal
from confal.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WEYL_FILE = str(ROOT / "instances" / "weyl.confal")

PROBE = """
import contextlib, io, json, sys
{body}
print(json.dumps(sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("confal."))))
"""

RUN_MAIN = """
from confal.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main({argv!r}) == 0
"""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _loaded(body: str) -> set:
    out = subprocess.run([sys.executable, "-c", PROBE.format(body=body)], cwd=ROOT,
                         env=_env(), capture_output=True, text=True, check=True).stdout
    return set(json.loads(out.splitlines()[-1]))


def test_import_confal_loads_no_submodule():
    assert _loaded("import confal") == set()


def test_import_cli_leaves_the_algorithms_unloaded():
    loaded = _loaded("import confal.cli")
    assert "cli" in loaded
    assert not loaded & {"axioms", "growth", "structure", "instances"}


@pytest.mark.parametrize("argv", [
    ["locality", WEYL_FILE],
    ["oracle", WEYL_FILE, "--max-order", "1", "--window", "1"],
])
def test_model_commands_load_no_algorithm_layer(argv):
    loaded = _loaded(RUN_MAIN.format(argv=argv))
    assert not loaded & {"axioms", "growth", "structure"}


def test_growth_command_leaves_structure_unloaded():
    loaded = _loaded(RUN_MAIN.format(argv=["growth", WEYL_FILE, "--rmax", "2"]))
    assert "growth" in loaded
    assert "structure" not in loaded


def test_run_as_module_matches_in_process_output():
    argv = ["growth", WEYL_FILE, "--rmax", "3", "--format", "json"]
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "confal.cli",
                           *argv], cwd=ROOT, env=_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0
    assert proc.stdout == buf.getvalue()


def test_every_export_is_its_submodules_object():
    for name in confal.__all__:
        value = getattr(confal, name)
        module = sys.modules.get(f"confal.{confal._SUBMODULE[name]}")
        assert module is not None, name
        assert value is vars(module)[name], name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="nope"):
        confal.nope  # noqa: B018
    assert not hasattr(confal, "nope")
