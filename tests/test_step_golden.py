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
from asianpde.grid import fill_halos_scalar, fill_halos_vector
from asianpde.pricing import (
    InstrumentSpec,
    build_courant,
    grid_from_price_domain,
    integrate,
    make_transform,
    terminal_condition,
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


@pytest.mark.parametrize("nonosc", [True, False])
def test_public_passes_compose_to_mpdata_step(nonosc):
    """The per-pass functions on plain fields, composed as the step composes
    them, give mpdata_step's field bit for bit and leave their inputs alone."""
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
        corrective = fill_halos_vector(antidiffusive_courant(out, current, opts))
        if nonosc:
            corrective = fill_halos_vector(nonoscillatory_limit(out, corrective, opts.epsilon))
        out = upwind_step(out, corrective)
        current = corrective
    assert out.values.tobytes() == want.values.tobytes()
    np.testing.assert_array_equal(psi.values, psi_before)
    np.testing.assert_array_equal(courant.comp_x, courant_before)
