import ctypes
import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asianpde import _step
from asianpde.errors import ConfigurationError
from asianpde.pricing import InstrumentSpec
from asianpde.reference import (
    _PATH_BLOCK,
    McConfig,
    european_bs_price,
    geometric_asian_price,
    mc_asian_price,
    mc_path_averages,
    mc_path_averages_many,
    mc_result_from_averages,
    norm_cdf,
)
from oracles import gbm_path, reference_normals, reference_walk

# golden constants computed with a 50-digit erfc-based normal CDF before the
# implementation existed
GEOMETRIC_CALL_GOLDEN = 4.3840446464471234  # S=K=100, r=0.1, sigma=0.2, T=0.5
GEOMETRIC_PUT_GOLDEN = 2.1384121612040241
EUROPEAN_CALL_GOLDEN = 19.386356841700628  # S=K=100, r=0.08, sigma=0.4, T=1
EUROPEAN_PUT_GOLDEN = 11.697991480364206
NORM_CDF_1_GOLDEN = 0.84134474606854293

params = st.tuples(
    st.sampled_from(["call", "put"]),
    st.floats(50.0, 200.0),  # strike
    st.floats(0.1, 3.0),  # maturity
    st.floats(0.05, 0.8),  # sigma
    st.floats(0.0, 0.15),  # rate
    st.floats(50.0, 200.0),  # spot
)


def instrument(kind="call", strike=100.0, maturity=0.5, sigma=0.2, rate=0.1, spot=100.0):
    return InstrumentSpec(kind, strike, maturity, sigma, rate, spot)


class TestNormCdf:
    def test_centre_and_symmetry(self):
        assert norm_cdf(0.0) == 0.5
        assert norm_cdf(1.0) + norm_cdf(-1.0) == pytest.approx(1.0, abs=1e-15)

    def test_golden_value(self):
        assert norm_cdf(1.0) == pytest.approx(NORM_CDF_1_GOLDEN, abs=1e-15)


class TestGeometricAsian:
    def test_deep_out_of_the_money_call(self):
        inst = instrument(strike=1e6 * 100.0)
        assert 0.0 <= geometric_asian_price(inst) <= 1e-6

    @settings(max_examples=60)
    @given(params)
    def test_parity_identity(self, p):
        _, strike, maturity, sigma, rate, spot = p
        call = geometric_asian_price(instrument("call", strike, maturity, sigma, rate, spot))
        put = geometric_asian_price(instrument("put", strike, maturity, sigma, rate, spot))
        forward = spot * math.exp(-(maturity / 2.0) * (rate + sigma**2 / 6.0))
        expected = forward - strike * math.exp(-rate * maturity)
        assert call - put == pytest.approx(expected, abs=1e-12 * max(1.0, spot))

    def test_golden_values(self):
        assert geometric_asian_price(instrument("call")) == pytest.approx(
            GEOMETRIC_CALL_GOLDEN, abs=1e-12
        )
        assert geometric_asian_price(instrument("put")) == pytest.approx(
            GEOMETRIC_PUT_GOLDEN, abs=1e-12
        )

    def test_zero_vol_deterministic_limit(self):
        # geometric mean of the deterministic path is S0 e^{rT/2}
        inst = instrument(sigma=0.0, maturity=1.0, rate=0.1)
        expected = math.exp(-0.1) * (100.0 * math.exp(0.05) - 100.0)
        assert geometric_asian_price(inst) == pytest.approx(expected, rel=1e-13)
        assert geometric_asian_price(instrument("put", sigma=0.0, maturity=1.0)) == 0.0


class TestEuropean:
    def test_vanishing_strike_call_approaches_spot(self):
        inst = instrument(strike=1e-9)
        assert european_bs_price(inst) == pytest.approx(100.0, abs=1e-6)

    @settings(max_examples=60)
    @given(params)
    def test_put_call_parity(self, p):
        _, strike, maturity, sigma, rate, spot = p
        call = european_bs_price(instrument("call", strike, maturity, sigma, rate, spot))
        put = european_bs_price(instrument("put", strike, maturity, sigma, rate, spot))
        expected = spot - strike * math.exp(-rate * maturity)
        assert call - put == pytest.approx(expected, abs=1e-12 * max(1.0, spot))

    def test_golden_values(self):
        inst_c = instrument("call", sigma=0.4, rate=0.08, maturity=1.0)
        inst_p = instrument("put", sigma=0.4, rate=0.08, maturity=1.0)
        assert european_bs_price(inst_c) == pytest.approx(EUROPEAN_CALL_GOLDEN, abs=1e-12)
        assert european_bs_price(inst_p) == pytest.approx(EUROPEAN_PUT_GOLDEN, abs=1e-12)


class TestMcConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [dict(n_paths=0, n_steps=10), dict(n_paths=10, n_steps=0), dict(n_paths=1, n_steps=10)],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            McConfig(**kwargs)


class TestGbmPath:
    def test_zero_vol_is_exact_drift(self):
        inst = instrument(sigma=0.0, maturity=1.0, rate=0.1)
        path = gbm_path(inst, McConfig(10, 8, seed=1), path_index=0)
        d_tau = 1.0 / 8
        expected = 100.0 * np.exp(0.1 * d_tau * np.arange(1, 9))
        np.testing.assert_allclose(path, expected, rtol=1e-12)

    def test_same_key_reproduces_bits(self):
        inst = instrument()
        cfg = McConfig(10, 64, seed=42)
        np.testing.assert_array_equal(gbm_path(inst, cfg, 3), gbm_path(inst, cfg, 3))

    def test_distinct_paths_differ(self):
        inst = instrument()
        cfg = McConfig(10, 64, seed=42)
        assert not np.array_equal(gbm_path(inst, cfg, 3), gbm_path(inst, cfg, 4))
        assert not np.array_equal(
            gbm_path(inst, cfg, 3), gbm_path(inst, McConfig(10, 64, seed=43), 3)
        )

    def test_log_return_moment(self):
        # mean of ln(S_M / S0) over 1e5 paths within 4 standard errors of (r - sigma^2/2) T
        inst = instrument(sigma=0.3, rate=0.1, maturity=2.0)
        cfg = McConfig(4000, 8, seed=5)
        terminal = np.array([gbm_path(inst, cfg, p)[-1] for p in range(cfg.n_paths)])
        log_returns = np.log(terminal / inst.spot)
        expected = (inst.rate - 0.5 * inst.sigma**2) * inst.maturity
        se = inst.sigma * math.sqrt(inst.maturity) / math.sqrt(log_returns.size)
        assert abs(log_returns.mean() - expected) < 4.0 * se


class TestWalk:
    @pytest.mark.parametrize(
        "n, m, sigma",
        [(_PATH_BLOCK, 40, 0.3), (37, 40, 0.3), (_PATH_BLOCK, 1, 0.3), (_PATH_BLOCK, 1000, 0.4), (_PATH_BLOCK, 40, 0.0)],
        ids=["full block", "partial block", "m=1", "m=1000", "sigma=0"],
    )
    def test_matches_numpy_running_sum(self, n, m, sigma):
        # the steps of mc_path_averages_many, one year at rate 0.1
        z = np.random.default_rng(n * m).standard_normal((_PATH_BLOCK, m))
        drift, vol = (0.1 - 0.5 * sigma**2) / m, sigma * math.sqrt(1.0 / m)
        rel = np.full((n, m), np.nan)
        _step.library().walk(z[:n], rel, *rel.shape, vol, drift)
        assert rel.tobytes() == reference_walk(z[:n], vol, drift).tobytes()

    def test_rows_must_be_contiguous_float64(self):
        walk = _step.library().walk
        rel = np.empty((4, 8))
        for z in (np.ones((4, 16))[:, ::2], np.ones((4, 8), dtype=np.float32)):
            with pytest.raises(ctypes.ArgumentError):
                walk(z, rel, *rel.shape, 0.1, 0.0)


class TestNormals:
    @pytest.mark.parametrize(
        "seed, first, n, m",
        [
            (1, 0, _PATH_BLOCK, 1000),
            (1, 0, 37, 40),
            (3, 0, _PATH_BLOCK, 1),
            (3, 0, 37, 1001),
            (7, 999, _PATH_BLOCK, 40),
            (2**63 + 5, 12345, 64, 40),
            (-5, 0, 37, 40),
            (1, 2**32 + 7, 37, 40),
        ],
        ids=["full block", "partial block", "m=1", "m=1001", "first=999", "seed>=2^63", "negative seed", "path>=2^32"],
    )
    def test_matches_numpy_philox_streams(self, seed, first, n, m):
        z = np.full((n, m), np.nan)
        _step.library().normals(z, n, m, seed & 0xFFFFFFFFFFFFFFFF, first)
        assert z.tobytes() == reference_normals(seed, first, n, m).tobytes()

    def test_rows_must_be_contiguous_float64(self):
        for z in (np.ones((4, 16))[:, ::2], np.ones((4, 8), dtype=np.float32)):
            with pytest.raises(ctypes.ArgumentError):
                _step.library().normals(z, 4, 8, 1, 0)


class TestMcAsianPrice:
    def test_zero_vol_matches_closed_form(self):
        inst = instrument(sigma=0.0, maturity=1.0, rate=0.1)
        exact = math.exp(-0.1) * (100.0 * (math.exp(0.1) - 1.0) / 0.1 - 100.0)
        res = mc_asian_price(inst, McConfig(100, 1000, seed=9))
        assert res.price == pytest.approx(exact, abs=1e-6)
        assert res.std_error == pytest.approx(0.0, abs=1e-12)

    def test_vanishing_strike(self):
        # call pays the discounted average; put pays nothing
        inst_c = instrument(kind="call", strike=1e-9, sigma=0.0, maturity=1.0, rate=0.1)
        inst_p = instrument(kind="put", strike=1e-9, sigma=0.0, maturity=1.0, rate=0.1)
        cfg = McConfig(50, 200, seed=3)
        average = 100.0 * (math.exp(0.1) - 1.0) / 0.1
        assert mc_asian_price(inst_c, cfg).price == pytest.approx(
            math.exp(-0.1) * average, rel=1e-6
        )
        assert mc_asian_price(inst_p, cfg).price == 0.0

    def test_deterministic_for_fixed_seed(self):
        inst = instrument()
        cfg = McConfig(2000, 50, seed=11)
        a = mc_asian_price(inst, cfg)
        b = mc_asian_price(inst, cfg)
        assert a == b

    def test_path_prefix_property(self):
        # the first N paths of a larger run are bit-identical to a smaller run,
        # so shared path averages price several strikes consistently
        inst = instrument()
        big = mc_path_averages(inst, McConfig(500, 32, seed=2))
        small = mc_path_averages(inst, McConfig(100, 32, seed=2))
        np.testing.assert_array_equal(big[:100], small)

    def test_average_matches_gbm_path_trapezoid(self):
        inst = instrument(sigma=0.25, maturity=0.75)
        cfg = McConfig(64, 40, seed=13)
        averages = mc_path_averages(inst, cfg)
        for p in (0, 17, 63):
            path = gbm_path(inst, cfg, p)
            trapezoid = (0.5 * inst.spot + path[:-1].sum() + 0.5 * path[-1]) / cfg.n_steps
            assert averages[p] == pytest.approx(trapezoid, rel=1e-13)

    def test_shared_normals_match_separate_runs(self):
        # one normal stream for every spec, bit for bit what separate runs draw,
        # including the partial last block
        specs = [
            instrument(sigma=0.15, maturity=0.25, spot=90.0),
            instrument(sigma=0.3, maturity=0.5, spot=100.0),
            instrument(sigma=0.45, maturity=1.0, spot=110.0, rate=0.05),
            instrument(sigma=0.6, maturity=2.0, spot=120.0),
        ]
        cfg = McConfig(_PATH_BLOCK + 37, 40, seed=21)
        shared = mc_path_averages_many(specs, cfg)
        assert len(shared) == len(specs)
        for spec, averages in zip(specs, shared):
            assert np.array_equal(averages, mc_path_averages(spec, cfg))

    def test_path_ranges_concatenate_to_whole(self):
        # range edges off the block grid (301 = 2 * 128 + 45); each path keeps its
        # own (seed, index) stream
        specs = [instrument(sigma=0.2, maturity=0.5), instrument(sigma=0.4, maturity=1.0)]
        cfg = McConfig(3 * _PATH_BLOCK + 45, 30, seed=8)
        whole = mc_path_averages_many(specs, cfg)
        parts = [mc_path_averages_many(specs, cfg, a, b) for a, b in ((0, 50), (50, 301), (301, None))]
        for i, averages in enumerate(whole):
            assert np.array_equal(np.concatenate([part[i] for part in parts]), averages)

    def test_threads_on_interleaved_ranges_match_serial(self):
        # each call's Philox streams live on its own stack: two threads that
        # draw at the same time take alternate blocks and get the serial bytes
        specs = [instrument(sigma=0.2, maturity=0.5), instrument(sigma=0.4, maturity=1.0)]
        cfg = McConfig(16 * _PATH_BLOCK + 45, 1000, seed=17)
        edges = [*range(0, cfg.n_paths, _PATH_BLOCK), cfg.n_paths]
        ranges = list(zip(edges[:-1], edges[1:]))
        parts, start = {}, threading.Barrier(2)

        def run(mine):
            start.wait()
            for a, b in mine:
                parts[a] = mc_path_averages_many(specs, cfg, a, b)

        threads = [threading.Thread(target=run, args=(ranges[k::2],)) for k in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for i, averages in enumerate(mc_path_averages_many(specs, cfg)):
            assert np.concatenate([parts[a][i] for a, _ in ranges]).tobytes() == averages.tobytes()

    @pytest.mark.parametrize("start, stop", [(-1, 10), (10, 5), (0, 301)])
    def test_path_range_outside_refused(self, start, stop):
        with pytest.raises(ConfigurationError, match="path range"):
            mc_path_averages_many([instrument()], McConfig(300, 30), start, stop)

    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_averages_refused(self, n):
        with pytest.raises(ConfigurationError, match="at least 2 paths"):
            mc_result_from_averages(np.full(n, 100.0), instrument())

    def test_std_error_shrinks_like_sqrt_n(self):
        inst = instrument()
        small = mc_asian_price(inst, McConfig(20_000, 100, seed=4))
        big = mc_asian_price(inst, McConfig(40_000, 100, seed=4))
        ratio = big.std_error / small.std_error
        assert 0.65 <= ratio <= 0.76

    @pytest.mark.parametrize(
        "sigma,t_months,strike",
        [(0.2, 6, 100.0), (0.2, 12, 105.0), (0.4, 6, 105.0), (0.4, 12, 100.0)],
    )
    def test_geometric_average_bounds(self, sigma, t_months, strike):
        # pathwise: geometric mean <= arithmetic mean, so the geometric
        # closed form bounds calls from below and puts from above
        cfg = McConfig(20_000, 500, seed=6)
        maturity = t_months / 12.0
        proto = instrument("call", strike, maturity, sigma)
        averages = mc_path_averages(proto, cfg)
        call = mc_result_from_averages(averages, proto)
        put = mc_result_from_averages(averages, instrument("put", strike, maturity, sigma))
        assert call.price >= geometric_asian_price(proto) - 3.0 * call.std_error
        assert put.price <= geometric_asian_price(
            instrument("put", strike, maturity, sigma)
        ) + 3.0 * put.std_error
