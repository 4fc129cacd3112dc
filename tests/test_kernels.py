"""The build cache and flags of the C step kernels (``asianpde._step``), the
declarations that ctypes calls them with, and the one route from Python to
them and from their checks to an error.

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

import numpy as np
import pytest

from asianpde import _step, advection
from asianpde.advection import SolverOptions, StepWorkspace
from asianpde.errors import StabilityError
from asianpde.pricing import (
    KINDS,
    InstrumentSpec,
    _courant_x_terms,
    _write_courant_y,
    grid_from_price_domain,
    make_transform,
    terminal_condition,
)
from oracles import reference_normals

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
# the CLI in a process whose numpy's exp has no float64 loop
NO_FLOAT64_EXP = """
import sys
import numpy
numpy.exp = numpy.invert
from asianpde.cli import main
main(sys.argv[1:])
"""
FAST = ["--nx", "32", "--ny", "32", "--dt", "0.005", "--paths", "300", "--steps", "40"]
# two threads make the process's first normals calls at once, each into its
# own file of argv[1]
FIRST_NORMALS = """
import sys, threading
import numpy as np
from asianpde._step import library
lib, start = library(), threading.Barrier(2)
def draw(k):
    z = np.full((37, 1000), np.nan)
    start.wait()
    lib.normals(z, 37, 1000, 5, 0)
    z.tofile(f"{sys.argv[1]}/{k}")
threads = [threading.Thread(target=draw, args=(k,)) for k in (0, 1)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join()
"""


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


def test_first_normals_calls_on_two_threads_draw_numpys_bits(tmp_path):
    # the ziggurat tables are set up once per process, under both threads
    done = run(["-c", FIRST_NORMALS, str(tmp_path)], environment(tmp_path / "cache"))
    assert done.returncode == 0, done.stderr
    want = reference_normals(5, 0, 37, 1000).tobytes()
    assert [(tmp_path / str(k)).read_bytes() == want for k in (0, 1)] == [True, True]


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


def test_numpy_without_a_float64_exp_loop_raises_one_os_error(monkeypatch, fresh_library):
    # the averages kernel calls numpy's float64 exp loop, and has no other
    monkeypatch.setattr(np, "exp", np.invert)
    _step.library.cache_clear()
    with pytest.raises(OSError, match=f"numpy {np.__version__} has no float64 loop of exp") as raised:
        _step.library()
    assert raised.value.__cause__ is None and raised.value.__context__ is None


def test_a_build_for_another_halo_raises_one_os_error(monkeypatch, fresh_library):
    # the kernels take the halo width as a constant of their build, which
    # library() checks against _step.HALO: one width for C and Python
    monkeypatch.setattr(_step, "HALO", 3)
    _step.library.cache_clear()
    with pytest.raises(OSError, match="take a halo of 2, and asianpde._step.HALO is 3") as raised:
        _step.library()
    assert raised.value.__cause__ is None and raised.value.__context__ is None


def test_numpy_without_a_float64_exp_loop_exits_4_without_traceback(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_ROOT))  # this process's cache: no build
    done = run(["-c", NO_FLOAT64_EXP, "mc", *FAST], env)
    assert done.returncode == 4
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("i/o error:") and "no float64 loop of exp" in lines[0]


def test_library_leaves_numpy_random_unimported(tmp_path):
    # the archive is found by path: numpy.random's modules would cost a valuation 2.5 MB
    probe = LOAD + "; import sys; print('numpy.random' in sys.modules)"
    done = run(["-c", probe], environment(tmp_path))
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"


def test_loading_a_cached_build_leaves_sysconfig_unimported():
    # only a build reads Python's include path: sysconfig would cost every start 2 ms and 0.2 MB
    _step.library()  # this process's cache holds the build
    probe = LOAD + "; import sys; print('sysconfig' in sys.modules)"
    done = run(["-c", probe], dict(os.environ, PYTHONPATH=str(PACKAGE_ROOT)))
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [_step.library()._name, "False"]


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
    # mc too: the Monte Carlo averages are a C kernel
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


def test_source_compiles_without_warnings(tmp_path):
    # with the build's own flags, so that one the local gcc rejects fails
    # here, and into an object file: gcc's middle-end warnings at -O3
    # (-Wmaybe-uninitialized, -Warray-bounds) come only from a real compile
    done = subprocess.run(
        ["gcc", "-Wall", "-Wextra", "-Werror", *_step.FLAGS, _step.python_include(), "-c", "-o",
         str(tmp_path / "step.o"), str(_step.SOURCE)],
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
    for numpys in ("random_standard_normal", "random_standard_normal_fill"):
        assert f"{numpys}(" in source
        assert numpys not in exported(source)
    undeclared = "\nvoid undeclared(double *z,\n                long n)\n{\n}\n"
    assert exported(source + undeclared) == exported(source) | {"undeclared"}


def test_every_kernel_has_declared_types():
    assert exported(_step.SOURCE.read_text()) == set(_step.ARGTYPES)
    lib = _step.library()
    for name, (argtypes, restype) in _step.ARGTYPES.items():
        kernel = getattr(lib, name)
        assert tuple(kernel.argtypes) == argtypes and kernel.restype is restype
    assert _step.ARGTYPES["max_abs"][1] is _step.ARGTYPES["courant_x"][1] is ctypes.c_double


def test_averages_work_rows_match_the_c_lanes():
    # the work array that reference allocates holds the 2 LANES rows that averages uses
    assert re.search(r"^#define LANES (\d+)$", _step.SOURCE.read_text(), re.M)[1] == str(_step.LANES)


def test_one_route_to_c():
    # every array reaches C through the record _step.dims makes, psi's
    # second buffer in the workspace included
    found = []
    for path in sorted(Path(_step.__file__).parent.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.FunctionDef):
                for number in range(node.lineno, node.end_lineno + 1):
                    if "ctypes.data" in lines[number - 1]:
                        found.append((path.name, node.name))
    assert sorted(found) == [("_step.py", "dims")]


def _calls(node: ast.AST, scope: tuple = ()):
    """``(enclosing class and function names, called expression)`` of every call under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            yield ".".join(scope), ast.unparse(child.func)
        named = isinstance(child, (ast.ClassDef, ast.FunctionDef))
        yield from _calls(child, scope + (child.name,) if named else scope)


def test_one_raise_site_per_refusal():
    # a stability error is built where its check runs: in the march, or in
    # upwind_step's own check of a field the march never sees; the CLI only
    # translates the library's refusals, and no input passes with a warning
    built, from_cli, warned = [], [], []
    for path in sorted(Path(_step.__file__).parent.glob("*.py")):
        for scope, called in _calls(ast.parse(path.read_text())):
            if called == "StabilityError":
                built.append((path.name, scope))
            if called == "ConfigurationError" and path.name == "cli.py":
                from_cli.append(scope)
            if called.split(".")[-1] == "warn":
                warned.append((path.name, scope))
    assert sorted(built) == [("advection.py", "StepWorkspace.march"), ("advection.py", "upwind_step")]
    assert from_cli == [] and warned == []


@pytest.mark.parametrize("machine, width", [("x86_64", True), ("AMD64", True), ("aarch64", False)])
def test_vector_width_flag_only_on_x86(monkeypatch, machine, width):
    monkeypatch.setattr(_step.platform, "machine", lambda: machine)
    assert (_step.VECTOR_WIDTH in _step._flags()) == width


def _march_bytes(nx: int, ny: int, dt: float, threads: int = 1) -> list:
    """The steps that StepWorkspace.march on ``threads`` threads counts and
    what it leaves in the whole stack, for both kinds, 1, 2 and 4
    iterations, with and without the limiter."""
    spec = grid_from_price_domain(50.0, 200.0, 200.0, nx, ny)
    marched = []
    for kind in KINDS:
        inst = InstrumentSpec(kind, 100.0, 0.5, 0.3, 0.1, 100.0)
        tr = make_transform(inst)
        for n_iters in (1, 2, 4):
            for nonoscillatory in (True, False):
                ws = StepWorkspace.holding(terminal_condition(inst, spec))
                _write_courant_y(ws, tr, spec, -dt)
                ws.march(
                    round(inst.maturity / dt), SolverOptions(n_iters, nonoscillatory),
                    _courant_x_terms(tr, spec, -dt), threads=threads,
                )
                marched.append((ws.steps, ws.fields.tobytes()))
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


@pytest.mark.parametrize(
    "nx, ny, dt, threads",
    [
        (24, 21, 1.0 / 100.0, (2, 3)),
        (25, 20, 1.0 / 100.0, (2, 3, 4)),  # blocks of uneven rows
        (5, 16, 1.0 / 100.0, (5, 9)),  # a row a thread, and more threads than rows
    ],
)
def test_split_march_moves_no_bit(nx, ny, dt, threads):
    # each element gets its operations from one thread, in the same order
    want = _march_bytes(nx, ny, dt)
    for count in threads:
        assert _march_bytes(nx, ny, dt, count) == want, count


def _last_live_column(ws: StepWorkspace) -> int:
    return int(np.flatnonzero(ws.psi.interior.any(axis=0))[-1])


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_band_limited_courant_x_keeps_every_byte(monkeypatch, threads):
    # After step 0 of a call the march rebuilds a put's C_x only on the band
    # and the column after it, and checks the band's max |C_x| alone: the
    # faces past it keep the bits that step 0 wrote and checked.  A march in
    # one C call must leave psi, C and both corrective slots as one-step
    # calls do, each of which builds every column at its step 0.
    nx, ny, dt = 24, 20, 0.01
    spec = grid_from_price_domain(50.0, 200.0, 200.0, nx, ny)
    inst = InstrumentSpec("put", 100.0, 0.5, 0.3, 0.1, 100.0)
    tr = make_transform(inst)

    def marched(ws: StepWorkspace, n_steps: int, per_call: int | None = None) -> bytes:
        if per_call is not None:
            monkeypatch.setattr(advection, "MARCH_CALL_CELL_STEPS", nx * ny * per_call)
        # forward in time: C_y > 0 carries the put's front up, a column a pass
        _write_courant_y(ws, tr, spec, dt)
        ws.march(n_steps, SolverOptions(2, True), _courant_x_terms(tr, spec, dt), threads=threads)
        monkeypatch.undo()
        return ws.fields[:7].tobytes()

    # the front climbs from column 9 to the top: the band reaches full width
    # during the call, and the build covers every column again
    start = terminal_condition(inst, spec)
    ws = StepWorkspace.holding(start)
    assert _last_live_column(ws) == 9
    assert marched(ws, 20) == marched(StepWorkspace.holding(start), 20, per_call=1)
    assert _last_live_column(ws) == ny - 1
    # a reused workspace: psi's halo rows and C_x past the new band are stale,
    # which a C_x written before step 0's fills would read
    ws.psi.interior[:, 4:] = 0.0
    fresh = [StepWorkspace(nx, ny) for _ in range(2)]
    for other in fresh:
        other.psi.interior[...] = ws.psi.interior
    assert marched(ws, 4) == marched(fresh[0], 4) == marched(fresh[1], 4, per_call=1)
    assert _last_live_column(ws) == 7  # short of the top: every later step built the band alone


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_band_limited_courant_x_stops_as_one_step_calls(monkeypatch, threads):
    # After step 0 of a call a put's march checks the max |C_x| of its band
    # alone: the faces past it keep step 0's bits, which passed step 0's
    # check.  Here max |C_x| is 0.00554 in every column at step 0, and the
    # band's grows to 0.006826 at step 19 and 0.006892 at step 20, while the
    # front stays at column 9.  With the limit between, a march in one C call must
    # stop where one-step calls, each of which builds and checks every face,
    # stop, with the same error, and leave psi as they do.
    nx, ny, dt = 24, 20, 0.004
    spec = grid_from_price_domain(50.0, 200.0, 200.0, nx, ny)
    inst = InstrumentSpec("put", 100.0, 2.0, 0.6, 0.1, 100.0)
    tr = make_transform(inst)
    monkeypatch.setattr(advection, "_COURANT_LIMIT", 0.00686)

    def stopped(per_call: int | None = None) -> tuple:
        if per_call is not None:
            monkeypatch.setattr(advection, "MARCH_CALL_CELL_STEPS", nx * ny * per_call)
        ws = StepWorkspace.holding(terminal_condition(inst, spec))
        _write_courant_y(ws, tr, spec, -dt)
        ws.courant.comp_y[...] *= 0.1  # C_y below the limit
        with pytest.raises(StabilityError) as caught:
            ws.march(
                round(inst.maturity / dt), SolverOptions(2, True), _courant_x_terms(tr, spec, -dt), threads=threads
            )
        error = caught.value
        report = (error.report.max_abs_courant_x, error.report.max_abs_courant_y)
        return ws.steps, _last_live_column(ws), str(error), error.step_index, report, ws.psi.values.tobytes()

    one_call = stopped()
    assert one_call[:2] == (20, 9) and one_call[3] == 20
    assert one_call == stopped(per_call=1)


# A program that runs march on 13 x 12 cells for each (kind, n_iters,
# nonoscillatory[, steps]) of argv's cases, 30 steps unless given, on 1, 2
# and 3 threads and exits 1 unless every split leaves the one-thread march's
# workspace, result and out.  It prints each case's steps run and out[2].
# An odd number of passes leaves the march's field in psi's second buffer
# (the last slot), from which march copies it back.  Kind 0 is a call's payoff, 1 a
# put's (+0.0 from column 5 up, so the march runs a band), and 2 a field of
# 1.3e308 with one 0 cell, which overflows in the first upwind pass under
# an outflow sum of 1.71, so the march stops: at step 1 on the physical
# field with one iteration, at step 0 on the first corrective field with more.
# Kind 3 is the put under C_y > 0, which carries its front to the top column
# within a few steps, so the band, and the C_x build with it, widens to full
# width during the call.
MARCH_DRIVER = r"""
#include <errno.h>
#include <math.h>
#include <pthread.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <unistd.h>

long march(double *psi, long nx, long ny, long r, double *cx, double *cy, double *ax,
           double *ay, double *bx, double *by, double *spare, long n_steps, long n_iters,
           long nonoscillatory, long diffusion_ok, long periodic, long rebuild, long threads, double u,
           double coef, double scale, double courant_max, double eps, double *out);

/* the thread starts of the current march call */
static int creates;

#ifdef REFUSE_THREADS
int __wrap_pthread_create(pthread_t *t, const pthread_attr_t *attr, void *(*f)(void *), void *arg)
{
    (void)t, (void)attr, (void)f, (void)arg;
    return EAGAIN;
}
#endif

#ifdef ONE_HELPER
/* the first start of each march call succeeds, the rest fail; the started
 * helper gets 20 ms to reach the gate while the team's size is not final */
int __real_pthread_create(pthread_t *t, const pthread_attr_t *attr, void *(*f)(void *), void *arg);
int __wrap_pthread_create(pthread_t *t, const pthread_attr_t *attr, void *(*f)(void *), void *arg)
{
    if (creates++)
        return EAGAIN;
    int err = __real_pthread_create(t, attr, f, arg);
    usleep(20000);
    return err;
}
#endif

enum { NX = 13, NY = 12, H = 2, R = NY + 1 + 2 * H, SLOT = (NX + 1 + 2 * H) * R, SLOTS = 8 };

static long run(double *w, int kind, long n_iters, long nonosc, long steps, long threads, double *out)
{
    memset(w, 0, SLOTS * SLOT * sizeof *w);
    for (long a = H; a < H + NX; a++) {
        for (long b = H; b < H + NY; b++) {
            double y = b - H + 0.5;
            w[a * R + b] = kind == 0 ? fmax(y - 6.0, 0.0) : kind == 2 ? 1.3e308 : fmax(5.0 - y, 0.0);
        }
        for (long b = H; b <= H + NY; b++)
            w[2 * SLOT + a * R + b] = kind == 2 ? -0.84 : 0.02 * (a - H + 1) * (kind == 3 ? 1 : -1);
    }
    if (kind == 2)
        w[(H + 5) * R + H + 4] = 0.0;
    double u = kind == 2 ? 8.7 : 0.055;
    creates = 0;
    return march(w, NX, NY, R, w + SLOT, w + 2 * SLOT, w + 3 * SLOT, w + 4 * SLOT, w + 5 * SLOT,
                 w + 6 * SLOT, w + 7 * SLOT, steps, n_iters, nonosc, 1, 0, 1, threads, u,
                 -0.9, -0.1, 1.0 + 1e-12, 1e-15, out);
}

int main(int argc, char **argv)
{
    double *one = malloc(SLOTS * SLOT * sizeof *one), *split = malloc(SLOTS * SLOT * sizeof *split);
    for (int i = 1; i < argc; i++) {
        int kind;
        long n_iters, nonosc, steps = 30;
        sscanf(argv[i], "%d,%ld,%ld,%ld", &kind, &n_iters, &nonosc, &steps);
        double want[3], got[3];
        long ran = run(one, kind, n_iters, nonosc, steps, 1, want);
        for (long threads = 2; threads <= 3; threads++) {
            if (run(split, kind, n_iters, nonosc, steps, threads, got) != ran || memcmp(got, want, sizeof got)
                || memcmp(one, split, SLOTS * SLOT * sizeof *one))
                return 1;
#ifdef ONE_HELPER
            if (creates != threads - 1) /* at 3, the refused start was asked for */
                return 1;
#endif
        }
        printf("%ld %g\n", ran, want[2]);
    }
    return 0;
}
"""
# 3 and 4 limited iterations write the corrective slot that the step's
# previous field occupied; corrective stops with and without the limiter; an
# odd number of passes, upwind and limited, ends in the second buffer
DRIVER_CASES = [
    "0,1,1", "0,2,1", "1,2,1", "1,3,0", "2,1,1", "2,2,1", "3,2,1",
    "0,3,1", "1,4,1", "2,3,1", "2,2,0", "0,1,1,29", "3,3,1,29",
]
DRIVER_STOPS = [
    "30 0", "30 1", "30 1", "30 1", "1 0", "0 1", "30 1",
    "30 1", "30 1", "0 1", "0 1", "29 0", "29 1",
]


def _program(tmp_path: Path, source: str, *flags: str) -> str:
    """``source`` built with ``_step.c`` and ``flags`` into a program in ``tmp_path``."""
    (tmp_path / "driver.c").write_text(source)
    program = tmp_path / "driver"
    include = next(f for f in _step.FLAGS if f.startswith("-I"))
    build = [
        "gcc", "-O1", "-g", "-ffp-contract=off", include, _step.python_include(), *flags, "-o", str(program),
        str(tmp_path / "driver.c"), str(_step.SOURCE), str(_step.ARCHIVE), "-lm", "-pthread",
    ]
    built = subprocess.run(build, capture_output=True, text=True, timeout=120)
    assert built.returncode == 0, built.stderr
    return str(program)


def _driver(tmp_path: Path, *flags: str) -> subprocess.CompletedProcess:
    """MARCH_DRIVER built with ``_step.c`` and ``flags``, run on every case."""
    program = _program(tmp_path, MARCH_DRIVER, *flags)
    return subprocess.run([program, *DRIVER_CASES], capture_output=True, text=True, timeout=120)


def test_split_march_is_free_of_data_races(tmp_path):
    # ThreadSanitizer watches every access of the split marches, the
    # stopped ones included, and exits 66 on a report
    done = _driver(tmp_path, "-fsanitize=thread")
    assert "ThreadSanitizer" not in done.stderr, done.stderr
    assert done.returncode == 0 and done.stdout.splitlines() == DRIVER_STOPS


# Two threads make the process's first averages calls at once, on the
# disjoint path ranges [0, SPLIT) and [SPLIT, PATHS) of one output array,
# each with its own work rows; the program exits 1 unless they write what one
# call over [0, PATHS) writes.  A stub stands in for numpy's exp loop, which
# lives in numpy's extension module.
AVERAGES_DRIVER = r"""
#include <pthread.h>
#include <stdint.h>
#include <string.h>

struct loop {
    void (*run)(char **args, const long *n, const long *steps, void *data);
    void *data;
};

void averages(double *out, long n_insts, long n_paths, const double *inst, long m, uint64_t seed,
              long start, long stop, double *work, const struct loop *exp_loop);

enum { INSTS = 2, PATHS = 83, SPLIT = 45, STEPS = 37, LANES = 8 };

/* 1 + x for exp(x) */
static void stub_exp(char **args, const long *n, const long *steps, void *data)
{
    (void)steps, (void)data;
    for (long i = 0; i < *n; i++)
        ((double *)args[1])[i] = 1.0 + ((double *)args[0])[i];
}

static const struct loop stub = {stub_exp, NULL};
static const double inst[INSTS * 3] = {100.0, 1e-3, 0.02, 90.0, -2e-3, 0.05}; /* spot, drift, vol */
static double split[INSTS * PATHS], whole[INSTS * PATHS];

struct range {
    long start, stop;
    double work[2 * LANES * STEPS];
};

static void *run(void *arg)
{
    struct range *r = arg;
    averages(split, INSTS, PATHS, inst, STEPS, 3, r->start, r->stop, r->work, &stub);
    return NULL;
}

int main(void)
{
    static struct range ranges[2] = {{0, SPLIT, {0}}, {SPLIT, PATHS, {0}}};
    pthread_t threads[2];
    for (int i = 0; i < 2; i++)
        if (pthread_create(&threads[i], NULL, run, &ranges[i]))
            return 2;
    for (int i = 0; i < 2; i++)
        pthread_join(threads[i], NULL);
    averages(whole, INSTS, PATHS, inst, STEPS, 3, 0, PATHS, ranges[0].work, &stub);
    return memcmp(split, whole, sizeof whole) != 0;
}
"""


def test_split_averages_are_free_of_data_races(tmp_path):
    # ThreadSanitizer watches both threads' first calls, the ziggurat tables'
    # set-up included, and exits 66 on a report
    program = _program(tmp_path, AVERAGES_DRIVER, "-fsanitize=thread")
    done = subprocess.run([program], capture_output=True, text=True, timeout=120)
    assert "ThreadSanitizer" not in done.stderr, done.stderr
    assert done.returncode == 0


def test_march_runs_on_one_thread_when_none_can_start(tmp_path):
    # every pthread_create fails: the calling thread runs the whole march
    done = _driver(tmp_path, "-Wl,--wrap=pthread_create", "-DREFUSE_THREADS")
    assert done.returncode == 0 and done.stdout.splitlines() == DRIVER_STOPS, done.stderr


def test_march_runs_on_the_threads_that_start(tmp_path):
    # only the first pthread_create of each march succeeds: threads 3 gives a
    # team of 2, whose helper waits at the gate until the team's size is final
    done = _driver(tmp_path, "-Wl,--wrap=pthread_create", "-DONE_HELPER")
    assert done.returncode == 0 and done.stdout.splitlines() == DRIVER_STOPS, done.stderr
