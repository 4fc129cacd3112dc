"""Byte-for-byte pins of the transport step.

The digests are the sha256 of ``integrate(...).interior.tobytes()`` as the
direct 2D-slice evaluation of the scheme produced them; the padded-layout
kernels must reproduce every interior value exactly, not within a tolerance.
Where two digests coincide the limiter (or, at one iteration, the option)
does not change the result.
"""

import hashlib

import numpy as np
import pytest

from asianpde.advection import (
    SolverOptions,
    antidiffusive_courant,
    mpdata_step,
    nonoscillatory_limit,
    upwind_step,
)
from asianpde import _step, advection
from asianpde._step import HALO
from asianpde.advection import StepWorkspace
from asianpde.benchmarks import gaussian_field, unit_square
from asianpde.errors import StabilityError
from asianpde.grid import ScalarField, fill_halos_scalar, fill_halos_vector
from asianpde.pricing import (
    InstrumentSpec,
    _courant_x_terms,
    build_courant,
    grid_from_price_domain,
    integrate,
    make_transform,
    terminal_condition,
)
from conftest import random_courant, random_positive_field, wrap_courant
from oracles import (
    full_width_integrate,
    full_width_step,
    periodic_mpdata_step,
    reference_periodic_fill_scalar,
    reference_periodic_fill_vector,
)

GRID_DT = {(24, 20): 1.0 / 100.0, (48, 40): 1.0 / 400.0}

# (nx, ny, n_iters, nonoscillatory, kind) -> digest; sigma 0.3, rate 0.1, K = S0 = 100, T = 0.5
DIGESTS = {
    (24, 20, 1, True, "call"): "e735cf33bf7178f8412defb0f09864d8d68432a9684a55007db902eccda5e7cc",
    (24, 20, 1, True, "put"): "162f4305e6b95d164da69912cd2d9a12c9189dcf7ea4ebd560c14817e24fc3d3",
    (24, 20, 1, False, "call"): "e735cf33bf7178f8412defb0f09864d8d68432a9684a55007db902eccda5e7cc",
    (24, 20, 1, False, "put"): "162f4305e6b95d164da69912cd2d9a12c9189dcf7ea4ebd560c14817e24fc3d3",
    (24, 20, 2, True, "call"): "1e7bbe64b35e9de50db7779cc1755e33b1a6c7ce958944ab28d859053b6e0ca6",
    (24, 20, 2, True, "put"): "7a52e949b4f7ed19bb28602abd885dfa5a4eab3d03e1e1927ed692a85f566413",
    (24, 20, 2, False, "call"): "1e7bbe64b35e9de50db7779cc1755e33b1a6c7ce958944ab28d859053b6e0ca6",
    (24, 20, 2, False, "put"): "7a52e949b4f7ed19bb28602abd885dfa5a4eab3d03e1e1927ed692a85f566413",
    (24, 20, 4, True, "call"): "d479debf8ca30c7defda8f1efbc44d846418654a70dc95a174c13a1ec1b88e55",
    (24, 20, 4, True, "put"): "858e7feafd1f91c4e927d8a69a9f48954458ed05977114aa6bba5d39a12ee9e6",
    (24, 20, 4, False, "call"): "3f7da3c8cf07a553a3f532870f2924646d559d3563e727b2d69eccd92eac76e5",
    (24, 20, 4, False, "put"): "54cd461c1c942006799676d9b3b032d09637475fcf43e62bb5f72cf28366ef61",
    (48, 40, 1, True, "call"): "e1e1230b63f23e3feaf1f9d4a3df2dafcc418bd080f9b2173d2c25095b8515aa",
    (48, 40, 1, True, "put"): "ec54433c2858ced1492e8b9e125dca249359088efea95efb11d8ab603874eeb5",
    (48, 40, 1, False, "call"): "e1e1230b63f23e3feaf1f9d4a3df2dafcc418bd080f9b2173d2c25095b8515aa",
    (48, 40, 1, False, "put"): "ec54433c2858ced1492e8b9e125dca249359088efea95efb11d8ab603874eeb5",
    (48, 40, 2, True, "call"): "c26a405b4d89fce48285540822c9b98950ea9fe579fc77b7b49a89c89da62c76",
    (48, 40, 2, True, "put"): "23b99e55da36fe8483418155fca1b46ed812a5d45113595992d8c7f15a09d642",
    (48, 40, 2, False, "call"): "9c60dfca1cab542ef8cfb7ac6c2da8cc86da951aac128b9b12e5759480ad7e2e",
    (48, 40, 2, False, "put"): "c0633858fc27da5214ee066ef916c29a9aced6ad687759359fe4fe2a2a973ffb",
    (48, 40, 4, True, "call"): "2e54a2c552314b8b7da9a3ea1a76559cd52c78de053cba089de1fd140836c63f",
    (48, 40, 4, True, "put"): "4d6d19782b9c92c76d4e757ac6476e6207d554c6cea10b3ed001d7b4b96e9ac4",
    (48, 40, 4, False, "call"): "8fb634089f8245b6ab6c44babab128cde7f4696628b2f06568dc80c7395b8487",
    (48, 40, 4, False, "put"): "9e8768359924dc5275d85a5f8295e9754f7866b31accdbe493b01efd5b57a601",
}

# T = 0.503 at dt = 1/100: 50 full steps and a 0.003 tail step
TAIL_DIGEST = "85d8a53c8f49aff251486f1cf176b5038afee3581f70b16a6dfadb681203610d"


def _digest(nx, ny, dt, n_iters, nonosc, kind, maturity=0.5):
    spec = grid_from_price_domain(50.0, 200.0, 200.0, nx, ny)
    inst = InstrumentSpec(kind, 100.0, maturity, 0.3, 0.1, 100.0)
    psi = integrate(inst, spec, dt, SolverOptions(n_iters=n_iters, nonoscillatory=nonosc))
    return hashlib.sha256(psi.interior.tobytes()).hexdigest()


@pytest.mark.parametrize("key", sorted(DIGESTS), ids=lambda k: "-".join(map(str, k)))
def test_integrate_interior_bytes(key):
    nx, ny, n_iters, nonosc, kind = key
    assert _digest(nx, ny, GRID_DT[(nx, ny)], n_iters, nonosc, kind) == DIGESTS[key]


def test_fractional_tail_step_bytes():
    assert _digest(24, 20, 1.0 / 100.0, 2, True, "call", maturity=0.503) == TAIL_DIGEST


@pytest.mark.parametrize("per_call", [1, 7])
def test_march_cut_into_calls_gives_the_same_bytes(monkeypatch, per_call):
    monkeypatch.setattr(advection, "MARCH_CALL_CELL_STEPS", 24 * 20 * per_call)
    for key in [(24, 20, 2, True, "call"), (24, 20, 4, False, "put")]:
        nx, ny, n_iters, nonosc, kind = key
        assert _digest(nx, ny, GRID_DT[(nx, ny)], n_iters, nonosc, kind) == DIGESTS[key]
    assert _digest(24, 20, 1.0 / 100.0, 2, True, "call", maturity=0.503) == TAIL_DIGEST


@pytest.mark.parametrize(
    "n_iters, nonosc, maturity, kind",
    [
        pytest.param(*case, kind, id="-".join(map(str, case)) + ("-put" if kind == "put" else ""))
        for kind in ("call", "put")
        for case in [(n, lim, 0.5) for n in (1, 2, 4) for lim in (True, False)] + [(2, True, 0.503)]
    ],
)
def test_integrate_matches_a_loop_of_public_passes(n_iters, nonosc, maturity, kind):
    """integrate's march in C gives, byte for byte, the field of a loop over
    the public passes, which run over every column: fill psi, build the
    Courant field, fill its faces, then UPWIND and the corrective passes.
    A put's march runs only its band of live columns."""
    spec = grid_from_price_domain(50.0, 200.0, 200.0, 24, 20)
    inst = InstrumentSpec(kind, 100.0, maturity, 0.3, 0.1, 100.0)
    opts = SolverOptions(n_iters=n_iters, nonoscillatory=nonosc)
    want = full_width_integrate(terminal_condition(inst, spec), inst, spec, 0.01, opts)
    assert integrate(inst, spec, 0.01, opts).values.tobytes() == want.values.tobytes()


def _last_live_column(psi: ScalarField) -> int:
    return int(np.flatnonzero(psi.interior.any(axis=0))[-1])


@pytest.mark.parametrize("n_iters", [1, 2, 4])
@pytest.mark.parametrize("nonosc", [True, False])
def test_band_grows_with_the_front(n_iters, nonosc):
    """A field with zero top columns under a constant C_y = 1: UPWIND moves
    the front up one column and the first corrective pass one more, the
    farthest any field tried moved it in a step, so the march's band must
    widen as it goes.  The march gives the full-width passes' psi byte for
    byte, and in the corrective slots their last fields (which a full-width
    march holds as +-0 above the band, the march as +0.0); and, split over
    threads, the one-thread march's whole stack."""
    spec = grid_from_price_domain(50.0, 200.0, 200.0, 24, 20)
    rng = np.random.default_rng(3)
    start = ScalarField.zeros(spec)
    start.interior[:, :3] = rng.uniform(0.5, 2.0, (24, 3))
    courant = random_courant(spec, rng)
    courant.interior_y[:] = 1.0
    fill_halos_vector(courant)
    opts = SolverOptions(n_iters=n_iters, nonoscillatory=nonosc)
    for n_steps in (2, 20):  # the band still short of the top, then past it
        ws = StepWorkspace.holding(start, courant)
        ws.march(n_steps, opts)
        assert ws.steps == n_steps
        for threads in (2, 3):
            split = StepWorkspace.holding(start, courant)
            split.march(n_steps, opts, threads=threads)
            assert split.steps == n_steps
            assert split.fields.tobytes() == ws.fields.tobytes()
        psi, fronts = start, [_last_live_column(start)]
        for _ in range(n_steps):
            psi, written = full_width_step(fill_halos_scalar(psi), courant, opts)
            fronts.append(_last_live_column(psi))
        assert fronts[1] - fronts[0] == min(n_iters, 2)
        assert ws.psi.values.tobytes() == psi.values.tobytes()
        for slot, fields in zip(ws.corrective, (written[0::2], written[1::2])):
            if fields:
                assert np.array_equal(slot.comp_x, fields[-1].comp_x)
                assert np.array_equal(slot.comp_y, fields[-1].comp_y)
    assert fronts[-1] == spec.ny - 1


def _march_case(kind):
    """``(start, courant, courant_x, periodic, refill)`` of a call's or a put's
    first step, or of a translation on the torus, with ``refill`` psi's own
    boundary fill."""
    if kind == "periodic":
        spec = unit_square(16)
        start = reference_periodic_fill_scalar(gaussian_field(spec))
        courant = reference_periodic_fill_vector(wrap_courant(random_courant(spec, np.random.default_rng(5))))
        return start, courant, None, True, reference_periodic_fill_scalar
    spec = grid_from_price_domain(50.0, 200.0, 200.0, 24, 20)
    inst = InstrumentSpec(kind, 100.0, 0.5, 0.3, 0.1, 100.0)
    tr, start = make_transform(inst), terminal_condition(inst, spec)
    courant = fill_halos_vector(build_courant(fill_halos_scalar(start.copy()), tr, spec, -0.01))
    return start, courant, _courant_x_terms(tr, spec, -0.01), False, fill_halos_scalar


@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("n_steps", [3, 4])
@pytest.mark.parametrize("kind", ["call", "put", "periodic"])
def test_a_finished_march_leaves_psi_halos_filled(kind, n_steps, threads):
    """Each pass fills the y halos of the rows it writes, and psi's boundary
    fill (the edge rows, or on the torus the wrap of every halo) runs before
    each pass and at the end, so a finished march leaves psi equal to its own
    refill: the production fill, or the wrap of the torus in a periodic march
    (which runs on one thread).  1 and 3 iterations over 3 and 4 steps give
    an odd and an even number of passes, so the field ends in either buffer."""
    start, courant, courant_x, periodic, refill = _march_case(kind)
    for n_iters in (1, 3):
        for nonosc in (True, False):
            ws = StepWorkspace.holding(start, courant)
            ws.march(n_steps, SolverOptions(n_iters, nonosc), courant_x, periodic=periodic, threads=threads)
            assert ws.steps == n_steps
            assert ws.psi.values.tobytes() == refill(ws.psi.copy()).values.tobytes()


@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("kind", ["call", "put", "periodic"])
def test_a_march_stopped_at_step_0_leaves_psi_halos_filled(kind, threads):
    """A C_y above 1 stops the march at step 0 with psi as the step found
    it, and a corrective field made NaN by psi's cells near 9e307 with psi as
    the step's upwind pass left it: its rows' y halos filled once per call
    and by each pass, and its boundary fill run before each pass (a stop
    runs none), so psi equals its own refill there too, on any split of the
    rows."""
    start, courant, courant_x, periodic, refill = _march_case(kind)
    huge = start.copy()
    huge.interior[...] *= 9e307 / huge.interior.max()
    for n_iters in (2, 3):
        ws = StepWorkspace.holding(huge, courant)
        with pytest.raises(StabilityError, match="= nan > 1") as err:
            ws.march(4, SolverOptions(n_iters), courant_x, periodic=periodic, threads=threads)
        assert err.value.step_index is None and ws.steps == 0
        assert ws.psi.values.tobytes() == refill(ws.psi.copy()).values.tobytes()
    courant.interior_y[3, 4] = 1.5  # a face that the torus does not wrap
    courant = reference_periodic_fill_vector(courant) if periodic else fill_halos_vector(courant)
    for n_iters in (1, 3):
        ws = StepWorkspace.holding(start, courant)
        with pytest.raises(StabilityError, match="max \\|C_y\\| = 1.5 > 1") as err:
            ws.march(4, SolverOptions(n_iters), courant_x, periodic=periodic, threads=threads)
        assert err.value.step_index == 0 and ws.steps == 0
        assert ws.psi.values.tobytes() == refill(ws.psi.copy()).values.tobytes()
        np.testing.assert_array_equal(ws.psi.interior, start.interior)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("kind", ["call", "put"])
def test_no_pass_reads_the_courant_x_halos_before_they_are_filled(kind, threads):
    """The march fills a rebuilt C_x's halos only when a corrective pass
    follows, since only the antidiffusive field reads them; an upwind pass
    reads real faces alone.  So NaN in C_x's halos leaves psi as a clean
    march does, and with a corrective pass the whole workspace."""
    start, courant, courant_x, _, _ = _march_case(kind)
    dirty = courant.copy()
    cx = dirty.comp_x
    cx[:HALO] = cx[-HALO:] = cx[:, :HALO] = cx[:, -HALO:] = np.nan
    for n_iters in (1, 2):
        marched = []
        for field in (courant, dirty):
            ws = StepWorkspace.holding(start, field)
            ws.march(4, SolverOptions(n_iters), courant_x, threads=threads)
            assert ws.steps == 4
            marched.append(ws)
        assert marched[0].psi.values.tobytes() == marched[1].psi.values.tobytes()
        if n_iters > 1:
            assert marched[0].fields.tobytes() == marched[1].fields.tobytes()


@pytest.mark.parametrize("kind", ["call", "put", "periodic"])
def test_a_march_of_no_steps_calls_no_kernel(monkeypatch, kind):
    """StepWorkspace.march never calls C for 0 steps, so the C march has no
    zero-step branch: the workspace keeps every byte and its step count."""
    start, courant, courant_x, periodic, _ = _march_case(kind)
    ws = StepWorkspace.holding(start, courant)
    ws.march(2, SolverOptions(3), courant_x, periodic=periodic)  # a used workspace, with every slot written
    fields, steps = ws.fields.tobytes(), ws.steps
    marched = []
    monkeypatch.setattr(_step.library(), "march", lambda *args: marched.append(None))
    ws.march(0, SolverOptions(3), courant_x, periodic=periodic, threads=2)
    assert marched == [] and ws.steps == steps == 2
    assert ws.fields.tobytes() == fields


@pytest.mark.parametrize("nonosc", [True, False])
def test_a_call_clears_the_faces_above_its_band(rng, nonosc):
    """Each march call takes its band from psi's last live column, which can
    lie below the last call's band.  The faces above the new band, where the
    last call left its corrective fields, then read +0.0, so the call's
    checks scan what a full-width march holds there, +-0."""
    spec = grid_from_price_domain(50.0, 200.0, 200.0, 24, 20)
    courant = fill_halos_vector(random_courant(spec, rng))
    opts = SolverOptions(n_iters=3, nonoscillatory=nonosc)
    ws = StepWorkspace.holding(random_positive_field(spec, rng, lo=0.5), courant)
    ws.march(1, opts)
    assert ws.steps == 1
    ws.psi.interior[:, 4:] = 0.0
    psi, written = full_width_step(fill_halos_scalar(ws.psi.copy()), courant, opts)
    ws.march(1, opts)
    assert ws.steps == 2
    assert ws.psi.values.tobytes() == psi.values.tobytes()
    # the step writes its corrective fields into the two slots in turn, an even number here
    for slot, field in zip(ws.corrective, written[-2:]):
        assert np.array_equal(slot.comp_x, field.comp_x) and np.array_equal(slot.comp_y, field.comp_y)


@pytest.mark.parametrize("nonosc", [True, False])
def test_public_passes_compose_to_mpdata_step(nonosc):
    """The per-pass functions on plain fields, composed as the step composes
    them, give mpdata_step's field bit for bit, once the last pass's output
    is filled as the march fills it, and leave their inputs alone."""
    spec = grid_from_price_domain(50.0, 200.0, 200.0, 24, 20)
    inst = InstrumentSpec("call", 100.0, 0.5, 0.3, 0.1, 100.0)
    opts = SolverOptions(n_iters=3, nonoscillatory=nonosc)
    psi = fill_halos_scalar(terminal_condition(inst, spec))
    for _ in range(5):  # move off the piecewise-linear payoff
        courant = fill_halos_vector(build_courant(psi, make_transform(inst), spec, -0.01))
        psi = fill_halos_scalar(mpdata_step(psi, courant, opts))
    courant = fill_halos_vector(build_courant(psi, make_transform(inst), spec, -0.01))
    psi_before, courant_before = psi.values.copy(), courant.comp_x.copy()

    want = mpdata_step(psi, courant, opts)

    out = upwind_step(psi, courant)
    current = courant
    for _ in range(opts.n_iters - 1):
        fill_halos_scalar(out)
        corrective = fill_halos_vector(antidiffusive_courant(out, current))
        if nonosc:
            corrective = fill_halos_vector(nonoscillatory_limit(out, corrective))
        out = upwind_step(out, corrective)
        current = corrective
    assert fill_halos_scalar(out).values.tobytes() == want.values.tobytes()
    np.testing.assert_array_equal(psi.values, psi_before)
    np.testing.assert_array_equal(courant.comp_x, courant_before)


@pytest.mark.parametrize("nonosc", [True, False])
def test_public_passes_with_periodic_fills_compose_to_periodic_mpdata_step(nonosc):
    """The per-pass functions with the numpy periodic fills, composed as the
    step composes them and with the last pass's output wrapped, give the
    one-step periodic march's field bit for bit."""
    spec = unit_square(16)
    opts = SolverOptions(n_iters=3, nonoscillatory=nonosc)
    psi = reference_periodic_fill_scalar(gaussian_field(spec))
    courant = reference_periodic_fill_vector(wrap_courant(random_courant(spec, np.random.default_rng(5))))

    want = periodic_mpdata_step(psi, courant, opts)

    out = upwind_step(psi, courant)
    current = courant
    for _ in range(opts.n_iters - 1):
        reference_periodic_fill_scalar(out)
        corrective = reference_periodic_fill_vector(antidiffusive_courant(out, current))
        if nonosc:
            corrective = reference_periodic_fill_vector(nonoscillatory_limit(out, corrective))
        out = upwind_step(out, corrective)
        current = corrective
    assert reference_periodic_fill_scalar(out).values.tobytes() == want.values.tobytes()
