"""Metamorphic relations of the valuation: changes of the inputs that the
continuous problem does not see, and what they leave of the discrete one.

*Time rescaling*: T -> cT, dt -> c dt, sigma -> sigma / sqrt(c), r -> r / c
keeps rT and sigma^2 T, so the problem is the same.  With c a power of two
every product is exact: the Courant numbers, the diffusion number and the
discount are the same doubles, so the whole field of ``integrate`` and the
Monte Carlo path averages must not move by a bit.  That includes sigma^2:
``make_transform`` and the Monte Carlo drift write it ``sigma * sigma``, a
correctly rounded product, so (sigma / sqrt(c))^2 is sigma^2 / c exactly.
libm's pow, which ``sigma**2`` calls, is not correctly rounded: for 2 to 2.5
of 10^4 sigmas (one is 0.38741809845035424, with c = 1/4) it rounded the two
one unit apart.

*Price homogeneity* (Merton 1973): scaling spot, strike and the S and A
domains by lambda scales the price by lambda.  It holds only to rounding,
since ln(lambda S) rounds and the ratio guard (1e-15) is absolute.

The grids run from 24x20 to 48x40.  Each dt lies within the largest step
that the 2D donor-cell criterion allows, the outflow of every cell at most
1: 2 max |C_x| + max |C_y| <= 1 with max |C_x| <= (|u| + sigma^2 / dx)
dt / dx and max |C_y| <= dt smax / (T dy).
"""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from asianpde.advection import SolverOptions
from asianpde.pricing import InstrumentSpec, grid_from_price_domain, integrate, readout
from asianpde.reference import McConfig, mc_path_averages

SMIN, SMAX, AMAX, SPOT = 50.0, 200.0, 200.0, 100.0
# |price(lambda) / lambda - price| / price: 1.4e-14 at most on the default
# grid; on these grids up to 1.5e-13 over 800 random draws, the largest at
# prices near 0.02, where the absolute ratio guard weighs most
HOMOGENEITY_REL = 1e-12


@st.composite
def valuations(draw):
    """(instrument, grid, dt, options) of one integrate call."""
    nx, ny = draw(st.integers(24, 48)), draw(st.integers(20, 40))
    sigma, rate = draw(st.floats(0.1, 0.4)), draw(st.floats(0.0, 0.15))
    maturity = draw(st.floats(0.1, 0.5))
    inst = InstrumentSpec(draw(st.sampled_from(["call", "put"])), draw(st.floats(90.0, 110.0)), maturity, sigma,
                          rate, SPOT)
    dx, dy = math.log(SMAX / SMIN) / nx, AMAX / ny
    largest = 1.0 / (2.0 * (abs(rate - sigma**2 / 2) + sigma**2 / dx) / dx + SMAX / (maturity * dy))
    dt = draw(st.floats(0.5, 1.0)) * largest
    opts = SolverOptions(draw(st.sampled_from([1, 2, 4])), draw(st.booleans()))
    return inst, grid_from_price_domain(SMIN, SMAX, AMAX, nx, ny), dt, opts


def rescaled(inst: InstrumentSpec, c: float) -> InstrumentSpec:
    return InstrumentSpec(inst.kind, inst.strike, c * inst.maturity, inst.sigma / math.sqrt(c), inst.rate / c,
                          inst.spot)


# the input that showed pow's rounding of sigma**2
POW_SIGMA = 0.38741809845035424
POW_VALUATION = (
    InstrumentSpec("call", 90.0, 0.5, POW_SIGMA, 0.0, SPOT), grid_from_price_domain(SMIN, SMAX, AMAX, 24, 20),
    0.00754322941854805, SolverOptions(1, False),
)


@settings(max_examples=30, deadline=None)
@given(valuations(), st.sampled_from([4.0, 0.25]))
@example(POW_VALUATION, 0.25)
def test_power_of_two_time_rescaling_keeps_every_bit_of_the_field(valuation, c):
    inst, spec, dt, opts = valuation
    field = integrate(inst, spec, dt, opts)
    moved = integrate(rescaled(inst, c), spec, c * dt, opts)
    assert moved.values.tobytes() == field.values.tobytes()


@settings(max_examples=30, deadline=None)
@given(valuations(), st.sampled_from([2.0, 3.0]))
def test_price_is_homogeneous_in_spot_strike_and_domain(valuation, lam):
    inst, spec, dt, opts = valuation
    price = readout(integrate(inst, spec, dt, opts), inst, spec)
    scaled = InstrumentSpec(inst.kind, lam * inst.strike, inst.maturity, inst.sigma, inst.rate, lam * inst.spot)
    lam_spec = grid_from_price_domain(lam * SMIN, lam * SMAX, lam * AMAX, spec.nx, spec.ny)
    lam_price = readout(integrate(scaled, lam_spec, dt, opts), scaled, lam_spec)
    assert abs(lam_price / lam - price) <= HOMOGENEITY_REL * price


@settings(max_examples=30, deadline=None)
@given(
    st.floats(0.0, 1.0), st.floats(-0.1, 0.3), st.floats(0.01, 5.0), st.integers(2, 300), st.integers(1, 60),
    st.integers(0, 2**64 - 1), st.sampled_from([4.0, 0.25]),
)
@example(POW_SIGMA, 0.0, 0.5, 300, 60, 1, 0.25)
def test_power_of_two_time_rescaling_keeps_every_bit_of_the_mc_averages(sigma, rate, maturity, paths, steps,
                                                                        seed, c):
    # vol = sigma sqrt(T / m) and drift = (r - sigma^2 / 2) T / m are the same doubles
    inst = InstrumentSpec("call", 100.0, maturity, sigma, rate, SPOT)
    cfg = McConfig(paths, steps, seed)
    averages, moved = mc_path_averages(inst, cfg), mc_path_averages(rescaled(inst, c), cfg)
    assert moved.tobytes() == averages.tobytes()
