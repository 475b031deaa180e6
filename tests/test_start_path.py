"""What a process loads: `import confal` and each CLI command load only their layers.

Each case runs in a fresh interpreter and reports which confal submodules
ended up in `sys.modules`, so a top-level import that drags a layer onto the
start path fails here.  No case may load `dataclasses`: its import pulls in
`inspect`, `ast`, `dis` and `tokenize`, which every CLI process would pay for.
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
PRESENTED_FILE = str(ROOT / "instances" / "cur2_presented.confal")
FINDIM_FILE = str(ROOT / "instances" / "cureps.confal")
CUR2_FILE = str(ROOT / "instances" / "cur2.confal")

PROBE = """
import contextlib, io, json, sys
{body}
print(json.dumps(sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("confal."))))
print(json.dumps("dataclasses" in sys.modules))
"""

RUN_MAIN = """
from confal.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main({argv!r}) == 0
"""

RUN_MAIN_REJECTED = """
from confal.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    assert main({argv!r}) == 2
"""


RUN_MAIN_REFUSED = """
from confal.cli import main
err = io.StringIO()
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
    assert main({argv!r}) == 2
assert err.getvalue() == {stderr!r}, err.getvalue()
"""

# fast flags per command; identity's element is each file's conformal identity
FLAGS = {
    "locality": [],
    "oracle": ["--max-order", "1", "--window", "1"],
    "check": ["--max-order", "1", "--window", "1"],
    "growth": ["--rmax", "2"],
}
IDENTITY = {WEYL_FILE: "e", CUR2_FILE: "u11 + u22", PRESENTED_FILE: "u11 + u22"}


def _argv(cmd: str, path: str) -> list:
    flags = ["--element", IDENTITY[path]] if cmd == "identity" else FLAGS[cmd]
    return [cmd, path, *flags]


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _loaded(body: str) -> set:
    """The confal submodules `body` loads; fails if it loads `dataclasses`."""
    out = subprocess.run([sys.executable, "-c", PROBE.format(body=body)], cwd=ROOT,
                         env=_env(), capture_output=True, text=True, check=True).stdout
    *_, modules, dataclasses_loaded = out.splitlines()
    assert json.loads(dataclasses_loaded) is False, "dataclasses was imported"
    return set(json.loads(modules))


def test_import_confal_loads_no_submodule():
    assert _loaded("import confal") == set()


def test_import_cli_leaves_the_algorithms_unloaded():
    loaded = _loaded("import confal.cli")
    assert "cli" in loaded
    assert not loaded & {"axioms", "growth", "structure", "instances",
                         "diff_conformal", "presented_conformal"}


@pytest.mark.parametrize("argv", [
    ["locality", WEYL_FILE],
    ["oracle", WEYL_FILE, "--max-order", "1", "--window", "1"],
])
def test_model_commands_load_no_algorithm_layer(argv):
    loaded = _loaded(RUN_MAIN.format(argv=argv))
    assert not loaded & {"axioms", "growth", "structure"}


@pytest.mark.parametrize("argv,unloaded", [
    (["locality", WEYL_FILE], {"presented_conformal"}),
    (["locality", PRESENTED_FILE], {"diff_conformal"}),
    (["check", PRESENTED_FILE, "--max-order", "1", "--window", "1"], {"diff_conformal"}),
    (["simplicity", FINDIM_FILE, "--trials", "5", "--degree-bound", "3"], {"growth", "axioms"}),
    (["transport", FINDIM_FILE, "--r", "b2"], {"growth"}),
], ids=["locality-differential", "locality-presented", "check-presented", "simplicity",
        "transport"])
def test_command_leaves_layers_it_does_not_run_unloaded(argv, unloaded):
    assert not _loaded(RUN_MAIN.format(argv=argv)) & unloaded


@pytest.mark.parametrize("argv", [
    *(["transport", str(ROOT / "instances" / f"{name}.confal"), "--r", "x"]
      for name in ("weyl", "cur2", "polyzero", "cur2_presented")),
    ["simplicity", PRESENTED_FILE],
], ids=["transport-weyl", "transport-cur2", "transport-polyzero", "transport-cur2p",
        "simplicity-cur2p"])
def test_rejected_command_leaves_structure_unloaded(argv):
    # the model check comes first: an instance the command cannot take exits 2
    # before the algorithm layer is imported
    assert "structure" not in _loaded(RUN_MAIN_REJECTED.format(argv=argv))


def test_import_cli_leaves_base_rings_and_linalg_unloaded():
    loaded = _loaded("import confal.cli")
    assert not loaded & {"ore_skew", "linalg"}


@pytest.mark.parametrize("cmd", ["locality", "oracle", "check", "identity"])
@pytest.mark.parametrize("path", [WEYL_FILE, CUR2_FILE], ids=["weyl", "cur2"])
def test_command_without_elimination_leaves_linalg_unloaded(cmd, path):
    loaded = _loaded(RUN_MAIN.format(argv=_argv(cmd, path)))
    assert "ore_skew" in loaded
    assert "linalg" not in loaded


@pytest.mark.parametrize("cmd", ["locality", "oracle", "check", "identity", "growth"])
def test_presented_command_leaves_base_rings_unloaded(cmd):
    loaded = _loaded(RUN_MAIN.format(argv=_argv(cmd, PRESENTED_FILE)))
    assert "presented_conformal" in loaded
    assert "ore_skew" not in loaded


@pytest.mark.parametrize("argv,stderr", [
    (["transport", PRESENTED_FILE, "--r", "x"],
     "error: transport needs a findim differential instance\n"),
    (["simplicity", PRESENTED_FILE], "error: simplicity needs a differential instance\n"),
], ids=["transport", "simplicity"])
def test_presented_spec_is_refused_before_the_differential_layers(argv, stderr):
    loaded = _loaded(RUN_MAIN_REFUSED.format(argv=argv, stderr=stderr))
    assert not loaded & {"ore_skew", "diff_conformal"}


def test_findim_base_finds_its_unit_through_linalg():
    argv = ["check", FINDIM_FILE, *FLAGS["check"]]
    assert {"ore_skew", "linalg"} <= _loaded(RUN_MAIN.format(argv=argv))


def test_no_command_loads_dataclasses():
    # one process runs all nine commands, on a differential and a presented file;
    # transport and simplicity need a differential algebra (exit 2 otherwise)
    differential_only = ("transport", "simplicity")
    runs = [
        ([cmd, path, *flags], 2 if path == PRESENTED_FILE and cmd in differential_only else 0)
        for path in (FINDIM_FILE, PRESENTED_FILE)
        for cmd, flags in (
            ("check", ["--max-order", "1", "--window", "1"]),
            ("oracle", ["--max-order", "1", "--window", "1"]),
            ("locality", []),
            ("identity", ["--element", "u1" if path == FINDIM_FILE else "u11 + u22"]),
            ("growth", ["--rmax", "2"]),
            ("coeff-growth", ["--rmax", "2"]),
            ("recognize", []),
            ("transport", ["--r", "b2"]),
            ("simplicity", ["--trials", "2", "--degree-bound", "2"]),
        )
    ]
    body = "from confal.cli import main\nwith contextlib.redirect_stdout(io.StringIO()):\n"
    body += "".join(f"    assert main({argv!r}) == {rc}\n" for argv, rc in runs)
    assert {"structure", "presented_conformal"} <= _loaded(body)


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
