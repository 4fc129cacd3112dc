"""The build cache and flags of the C step kernels (``asianpde._step``) and
the declarations that ctypes calls them with.

Each build-cache test runs the program in fresh processes with ``XDG_CACHE_HOME`` in a
temporary directory, so it starts from an empty cache and this process's
loaded build plays no part.
"""

import ast
import ctypes
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from asianpde import _step
from asianpde.advection import SolverOptions, StepWorkspace
from asianpde.pricing import (
    KINDS,
    InstrumentSpec,
    _courant_x_terms,
    _write_courant_y,
    grid_from_price_domain,
    make_transform,
    terminal_condition,
)

PACKAGE_ROOT = Path(_step.__file__).parents[1]
LOAD = "from asianpde._step import library; print(library()._name)"
FIRST_KERNEL_CALL = """
from asianpde.advection import upwind_step
from asianpde.grid import GridSpec, ScalarField, VectorField
spec = GridSpec(0.0, 1.0, 0.0, 1.0, 4, 4)
try:
    upwind_step(ScalarField.zeros(spec), VectorField.zeros(spec))
except OSError as exc:
    print(repr(exc))
"""
# the CLI in a process whose step library links a missing numpy archive
NO_ARCHIVE = """
import sys
from pathlib import Path
from asianpde import _step
_step.ARCHIVE = Path(sys.argv[1])
from asianpde.cli import main
main(sys.argv[2:])
"""
FAST = ["--nx", "32", "--ny", "32", "--dt", "0.005", "--paths", "300", "--steps", "40"]


def environment(cache: Path, path: str | None = None) -> dict:
    env = dict(os.environ, XDG_CACHE_HOME=str(cache), PYTHONPATH=str(PACKAGE_ROOT))
    if path is not None:
        env["PATH"] = path
    return env


def run(args, env) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120)


def no_gcc_path(tmp_path: Path) -> str:
    empty = tmp_path / "bin"
    empty.mkdir()
    return str(empty)


def test_concurrent_builds_leave_one_build(tmp_path):
    env = environment(tmp_path)
    procs = [
        subprocess.Popen([sys.executable, "-c", LOAD], env=env, stdout=subprocess.PIPE, text=True)
        for _ in range(2)
    ]
    loaded = [proc.communicate(timeout=120)[0].strip() for proc in procs]
    assert [proc.returncode for proc in procs] == [0, 0]
    build = tmp_path / "asianpde" / _step.build_path().name
    assert loaded == [str(build)] * 2
    assert list((tmp_path / "asianpde").iterdir()) == [build]


def test_missing_gcc_raises_one_os_error(tmp_path):
    env = environment(tmp_path / "cache", no_gcc_path(tmp_path))
    done = run(["-c", FIRST_KERNEL_CALL], env)
    assert done.returncode == 0, done.stderr
    message = done.stdout.strip()
    assert message.startswith("OSError(") and "gcc" in message
    assert str(tmp_path / "cache" / "asianpde") in message
    assert not (tmp_path / "cache").exists()


def test_missing_archive_raises_one_os_error(tmp_path, monkeypatch):
    missing = tmp_path / "libnpyrandom.a"
    monkeypatch.setattr(_step, "ARCHIVE", missing)
    with pytest.raises(OSError, match=re.escape(str(missing))) as raised:
        _step.build_path()
    assert raised.value.__cause__ is None and raised.value.__suppress_context__


def test_library_leaves_numpy_random_unimported(tmp_path):
    # the archive is found by path: numpy.random's modules would cost a valuation 2.5 MB
    probe = LOAD + "; import sys; print('numpy.random' in sys.modules)"
    done = run(["-c", probe], environment(tmp_path))
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"


def test_archive_bytes_key_the_build(tmp_path, monkeypatch):
    # a numpy upgrade that changes its random library builds anew
    archive = tmp_path / "libnpyrandom.a"
    archive.write_bytes(_step.ARCHIVE.read_bytes())
    monkeypatch.setattr(_step, "ARCHIVE", archive)
    same = _step.build_path()
    assert same == _step.build_path()
    with archive.open("ab") as out:
        out.write(b"\0")
    assert _step.build_path() != same


@pytest.mark.parametrize("missing, command", [(m, c) for m in ("gcc", "archive") for c in ("price", "mc")])
def test_missing_build_input_exits_4_without_traceback(tmp_path, missing, command):
    # mc too: the Monte Carlo normals and running sum are C kernels
    if missing == "gcc":
        env = environment(tmp_path / "cache", no_gcc_path(tmp_path))
        done = run(["-m", "asianpde.cli", command, *FAST], env)
        named = "gcc"
    else:
        named = str(tmp_path / "libnpyrandom.a")
        done = run(["-c", NO_ARCHIVE, named, command, *FAST], environment(tmp_path / "cache"))
    assert done.returncode == 4
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("i/o error:") and named in lines[0]
    assert "Traceback" not in done.stderr
    assert not (tmp_path / "cache").exists()


def test_help_never_builds(tmp_path):
    env = environment(tmp_path / "cache", no_gcc_path(tmp_path))
    assert "Usage" in run(["-m", "asianpde.cli", "--help"], env).stdout
    assert not (tmp_path / "cache").exists()


def test_python_m_asianpde_runs_the_cli_without_a_build(tmp_path):
    env = environment(tmp_path / "cache", no_gcc_path(tmp_path))
    done = run(["-m", "asianpde", "--help"], env)
    assert done.returncode == 0, done.stderr
    assert "Usage" in done.stdout
    assert not (tmp_path / "cache").exists()


def test_source_compiles_without_warnings():
    # with the build's own flags, so that one the local gcc rejects fails here
    done = subprocess.run(
        ["gcc", "-Wall", "-Wextra", "-Werror", *_step.FLAGS, "-fsyntax-only", str(_step.SOURCE)],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0 and done.stderr == "", done.stderr


def exported(source: str) -> set[str]:
    """The functions that ``source`` defines and exports: a definition starts
    a line with its return type and has a body; a static one is not exported."""
    definitions = re.findall(r"^(static\s+)?[a-z_][\w ]*?\**\s*\b(\w+)\([^;{]*\)\s*\{", source, re.M)
    return {name for static, name in definitions if not static}


def test_kernel_parse_counts_definitions_only():
    source = _step.SOURCE.read_text()
    assert "random_standard_normal_fill(" in source
    assert "random_standard_normal_fill" not in exported(source)
    undeclared = "\nvoid undeclared(double *z,\n                long n)\n{\n}\n"
    assert exported(source + undeclared) == exported(source) | {"undeclared"}


def test_every_kernel_has_declared_types():
    assert exported(_step.SOURCE.read_text()) == set(_step.ARGTYPES)
    lib = _step.library()
    for name, (argtypes, restype) in _step.ARGTYPES.items():
        kernel = getattr(lib, name)
        assert tuple(kernel.argtypes) == argtypes and kernel.restype is restype
    assert _step.ARGTYPES["max_abs"][1] is ctypes.c_double


def test_one_route_to_c():
    # every array reaches C through the record _step.dims makes, the
    # workspace's scratch rows included
    found = []
    for path in sorted(Path(_step.__file__).parent.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.FunctionDef):
                for number in range(node.lineno, node.end_lineno + 1):
                    if "ctypes.data" in lines[number - 1]:
                        found.append((path.name, node.name, "scratch" in lines[number - 1]))
    assert sorted(found) == [("_step.py", "dims", False)]


@pytest.mark.parametrize("machine, width", [("x86_64", True), ("AMD64", True), ("aarch64", False)])
def test_vector_width_flag_only_on_x86(monkeypatch, machine, width):
    monkeypatch.setattr(_step.platform, "machine", lambda: machine)
    assert (_step.VECTOR_WIDTH in _step._flags()) == width


def _march_bytes(nx: int, ny: int, dt: float) -> list:
    """What StepWorkspace.march returns and leaves in the whole stack, for
    both kinds, 1, 2 and 4 iterations, with and without the limiter."""
    spec = grid_from_price_domain(50.0, 200.0, 200.0, nx, ny)
    marched = []
    for kind in KINDS:
        inst = InstrumentSpec(kind, 100.0, 0.5, 0.3, 0.1, 100.0)
        tr = make_transform(inst)
        for n_iters in (1, 2, 4):
            for nonoscillatory in (True, False):
                ws = StepWorkspace.holding(terminal_condition(inst, spec))
                _write_courant_y(ws, tr, spec, -dt)
                ran = ws.march(
                    round(inst.maturity / dt), SolverOptions(n_iters, nonoscillatory),
                    _courant_x_terms(tr, spec, -dt),
                )
                marched.append((ran, ws.fields.tobytes()))
    return marched


@pytest.fixture
def fresh_library():
    """After the test, library() loads the usual build again."""
    yield
    _step.library.cache_clear()


@pytest.mark.skipif(_step.VECTOR_WIDTH not in _step.FLAGS, reason="this platform's build takes no width flag")
def test_vector_width_moves_no_bit(tmp_path, monkeypatch, fresh_library):
    # row lengths that leave a tail after the last full vector of a row
    grids = [(24, 21, 1.0 / 100.0), (48, 43, 1.0 / 400.0)]
    marched, builds = [], []
    for flags in (_step.FLAGS, tuple(f for f in _step.FLAGS if f != _step.VECTOR_WIDTH)):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / str(len(flags))))
        monkeypatch.setattr(_step, "FLAGS", flags)
        _step.library.cache_clear()
        builds.append(_step.library()._name)
        marched.append([_march_bytes(*grid) for grid in grids])
    assert builds[0] != builds[1]
    assert marched[0] == marched[1]
