"""What the step kernels of ``_step.c`` write and return on corner inputs.

The clamps of the donor-cell fluxes and of the FCT limiter must give the
numpy oracles' bits on Courant numbers of -0.0, +0.0, NaN, +-inf and exactly
+-1 and on limiter ratios of exactly 1; ``courant_x``, ``antidiffusive`` and
``limit`` must return the ``max_abs`` of the faces they wrote, bit for bit,
and so must a march that stops on a failed check.
"""

import numpy as np
import pytest

from asianpde._step import MAXIMA, library
from asianpde.advection import (
    DEFAULT_EPSILON,
    SolverOptions,
    StepWorkspace,
    _max_abs,
    antidiffusive_courant,
    nonoscillatory_limit,
)
from asianpde.errors import StabilityError
from asianpde.grid import GridSpec, ScalarField, VectorField, fill_halos_scalar, fill_halos_vector
from asianpde.pricing import grid_from_price_domain
from oracles import (
    limiter_ratios,
    reference_antidiffusive,
    reference_limit,
    reference_periodic_fill_scalar,
    reference_upwind,
)

SPEC = GridSpec(0.0, 1.0, 0.0, 1.0, 9, 7)
# The NaN that this machine's arithmetic makes of inf - inf.  Where two NaNs
# meet in a product, either one's bits can come out, as the compiler orders
# the operands; with this the only NaN in play, every NaN has the same bits.
with np.errstate(invalid="ignore"):
    MADE_NAN = np.float64(np.inf) - np.float64(np.inf)
# Courant numbers at the edges of every clamp, and psi values whose limiter
# ratios come out exact, 1.0 among them: each flux is at least 16, so adding
# epsilon moves no bit
CORNERS = [-0.0, 0.0, MADE_NAN, np.inf, -np.inf, 1.0, -1.0, 0.5, -0.5, 0.25]
DYADIC = [0.0, 64.0, 128.0, 256.0, 512.0]
# a NaN other than numpy's, so that a kernel that made its own would show
NAN_PAYLOAD = np.array([0x7FF8000000000ABC]).view(np.float64)[0]


def bits(a) -> np.ndarray:
    return np.asarray(a, dtype=np.float64).view(np.int64)


def corner_pair(seed: int) -> tuple[ScalarField, VectorField]:
    """psi of dyadic values and a Courant field of corner values, halos included."""
    rng = np.random.default_rng(seed)
    psi = ScalarField(rng.choice(DYADIC, ScalarField.zeros(SPEC).values.shape))
    courant = VectorField.zeros(SPEC)
    for comp in (courant.comp_x, courant.comp_y):
        comp[:] = rng.choice(CORNERS, comp.shape)
    return psi, courant


@pytest.mark.parametrize("seed", range(4))
def test_upwind_matches_numpy_on_corner_courant_numbers(seed):
    psi, courant = corner_pair(seed)
    ws = StepWorkspace.holding(psi, courant)
    # upwind_step refuses |C| > 1: the kernel itself takes any field
    assert library().upwind(*ws.psi.c_values, ws.courant.c_comp_x[0], ws.courant.c_comp_y[0]) == 0
    assert np.array_equal(bits(ws.psi.values), bits(reference_upwind(psi, courant).values))


@pytest.mark.parametrize("seed", range(4))
def test_antidiffusive_matches_numpy_on_corner_courant_numbers(seed):
    psi, courant = corner_pair(seed)
    got, want = antidiffusive_courant(psi, courant), reference_antidiffusive(psi, courant)
    assert np.array_equal(bits(got.comp_x), bits(want.comp_x))
    assert np.array_equal(bits(got.comp_y), bits(want.comp_y))


@pytest.mark.parametrize("seed", range(4))
def test_limit_matches_numpy_on_corner_courant_numbers_and_unit_ratios(seed):
    psi, corrective = corner_pair(seed)
    up, dn = limiter_ratios(psi, corrective)
    assert (up == 1.0).any() and (dn == 1.0).any()
    got, want = nonoscillatory_limit(psi, corrective), reference_limit(psi, corrective)
    got, want = (np.concatenate([f.comp_x.ravel(), f.comp_y.ravel()]) for f in (got, want))
    # the one difference the _step.c header names: where C keeps the clamps
    # of -0.0 as -0.0, numpy makes them +0.0
    differ = bits(got) != bits(want)
    assert differ.any()
    assert (bits(got[differ]) == bits(-0.0)).all() and (bits(want[differ]) == bits(0.0)).all()


def seeded_pair(specials: tuple) -> tuple[ScalarField, VectorField]:
    """A positive psi and a Courant field within |C| < 0.9, each with the
    ``specials`` planted at seeded places; all +0.0 when ``specials`` is None."""
    psi, courant = ScalarField.zeros(SPEC), VectorField.zeros(SPEC)
    if specials is None:
        return psi, courant
    rng = np.random.default_rng(len(specials))
    psi.values[:] = rng.uniform(0.0, 2.0, psi.values.shape)
    for comp in (courant.comp_x, courant.comp_y):
        comp[:] = rng.uniform(-0.9, 0.9, comp.shape)
    for values in (psi.values, courant.comp_x, courant.comp_y):
        flat = values.reshape(-1)
        flat[rng.choice(flat.size, len(specials), replace=False)] = specials
    return psi, courant


SPECIALS = [None, (), (-0.0, -0.0), (np.inf,), (-np.inf, 0.0), (np.nan,), (NAN_PAYLOAD, np.nan, np.inf, -np.inf, -0.0)]


@pytest.mark.parametrize("specials", SPECIALS, ids=lambda s: "zero" if s is None else repr(s))
def test_courant_x_returns_the_max_abs_of_its_faces(specials):
    psi, _ = seeded_pair(specials)
    ws = StepWorkspace.holding(psi)
    for terms in ((0.3, -0.7, 1.3), (0.0, 0.5, -2.0)):  # the second makes -0.0 of a zero field
        top = library().courant_x(*ws.psi.c_values, ws.courant.c_comp_x[0], *terms, DEFAULT_EPSILON)
        assert bits(top) == bits(_max_abs(ws.courant)[0])


@pytest.mark.parametrize("kernel", ["antidiffusive", "limit"])
@pytest.mark.parametrize("specials", SPECIALS, ids=lambda s: "zero" if s is None else repr(s))
def test_corrective_kernels_return_the_max_abs_of_their_faces(kernel, specials):
    psi, courant = seeded_pair(specials)
    ws = StepWorkspace.holding(psi, courant)
    out, top = ws.corrective[0], MAXIMA()
    getattr(library(), kernel)(
        *ws.psi.c_values, ws.courant.c_comp_x[0], ws.courant.c_comp_y[0], out.c_comp_x[0], out.c_comp_y[0],
        DEFAULT_EPSILON, top,
    )
    assert np.array_equal(bits(list(top)), bits(_max_abs(out)))


def _last_live_column(psi: ScalarField) -> int:
    return int(np.flatnonzero(psi.interior.any(axis=0))[-1])


def _maxima(err: StabilityError) -> list[float]:
    """The failing field's max |C_x| and max |C_y| that ``err`` reports."""
    return [err.report.max_abs_courant_x, err.report.max_abs_courant_y]


@pytest.mark.parametrize("periodic", [False, True])
@pytest.mark.parametrize("nonosc", [True, False])
def test_march_failing_a_corrective_check_reports_the_maxima_of_its_slot(nonosc, periodic):
    """A put-like field, +0.0 from column 3 up, under C_y = 0.5, which moves
    its front up about a column a step, and a C_x that gathers it onto the
    middle rows, where it grows until it overflows in step 5 or 6 (7 or 8 on
    the torus).  The first corrective field after the overflow fails its
    check (in y; without the limiter not in x).  The march reports the
    maxima that the kernel found as it wrote the field, which must be those
    of every real face of the slot it stopped in: over the band, with +0.0
    above it, or before a wrap that copies the first faces over the last."""
    spec = grid_from_price_domain(50.0, 200.0, 200.0, 24, 20)
    start = ScalarField.zeros(spec)
    start.interior[:, :3] = np.random.default_rng(7).uniform(0.5, 2.0, (24, 3)) * 2e307
    courant = VectorField.zeros(spec)
    courant.interior_x[:13] = 0.24
    courant.interior_x[13:] = -0.24
    courant.interior_y[:] = 0.5
    fill_halos_vector(courant)
    opts = SolverOptions(n_iters=2, nonoscillatory=nonosc)
    ws = StepWorkspace.holding(start, courant)
    with pytest.raises(StabilityError) as err:
        ws.march(50, opts, periodic=periodic)
    ran, corrective, (max_cx, max_cy) = ws.steps, err.value.step_index is None, _maxima(err.value)
    assert corrective and ran >= 5 and np.isnan(max_cy) and np.isnan(max_cx) == nonosc
    # a march split over threads (the torus keeps one) stops at the same check with the same maxima
    for threads in (2, 3, 24):
        split = StepWorkspace.holding(start, courant)
        with pytest.raises(StabilityError) as stopped:
            split.march(50, opts, periodic=periodic, threads=threads)
        assert bits(_maxima(stopped.value)).tobytes() == bits([max_cx, max_cy]).tobytes()
        assert (split.steps, stopped.value.step_index is None) == (ran, corrective)
        assert split.fields.tobytes() == ws.fields.tobytes()
    slot = ws.corrective[1 if nonosc else 0]  # the step's first corrective field: antidiffusive, then limited
    if not periodic:
        live = _last_live_column(ws.psi) + 1 + opts.n_iters  # the band the failing step ran on
        assert 3 + opts.n_iters < live < spec.ny
        assert not slot.interior_x[:, live:].any()
    assert np.array_equal(bits([max_cx, max_cy]), bits(_max_abs(slot)))


@pytest.mark.parametrize("periodic", [False, True])
@pytest.mark.parametrize("nonosc", [True, False])
def test_a_corrective_stop_leaves_the_steps_upwind_pass(nonosc, periodic):
    """Every pass writes psi's second buffer, which becomes psi only once
    the pass's field passes its check.  So the march of the last test,
    stopped by a corrective field, leaves psi as the failing step's upwind
    pass left it, with its halos filled for the corrective pass, and a
    march of that step's upwind pass on its own, refilled, gives the same
    bytes, halos included; on any split of the rows."""
    spec = grid_from_price_domain(50.0, 200.0, 200.0, 24, 20)
    start = ScalarField.zeros(spec)
    start.interior[:, :3] = np.random.default_rng(7).uniform(0.5, 2.0, (24, 3)) * 2e307
    courant = VectorField.zeros(spec)
    courant.interior_x[:13] = 0.24
    courant.interior_x[13:] = -0.24
    courant.interior_y[:] = 0.5
    fill_halos_vector(courant)
    opts = SolverOptions(n_iters=2, nonoscillatory=nonosc)
    fill = reference_periodic_fill_scalar if periodic else fill_halos_scalar
    for threads in (1, 2, 3):
        ws = StepWorkspace.holding(start, courant)
        with pytest.raises(StabilityError) as err:
            ws.march(50, opts, periodic=periodic, threads=threads)
        assert err.value.step_index is None
        before = StepWorkspace.holding(start, courant)
        before.march(ws.steps, opts, periodic=periodic, threads=threads)  # up to the failing step
        upwind = StepWorkspace.holding(before.psi, courant)
        upwind.march(1, SolverOptions(n_iters=1), periodic=periodic, threads=threads)
        assert ws.psi.values.tobytes() == fill(upwind.psi).values.tobytes(), threads
