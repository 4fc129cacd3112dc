import ctypes
import math
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asianpde import _step, reference
from asianpde.errors import ConfigurationError
from asianpde.pricing import InstrumentSpec
from asianpde.reference import (
    McConfig,
    european_bs_price,
    geometric_asian_price,
    mc_asian_price,
    mc_path_averages,
    mc_path_averages_many,
    mc_result_from_averages,
    norm_cdf,
)
from oracles import gbm_path, reference_averages, reference_normals

# golden constants computed with a 50-digit erfc-based normal CDF before the
# implementation existed
GEOMETRIC_CALL_GOLDEN = 4.3840446464471234  # S=K=100, r=0.1, sigma=0.2, T=0.5
GEOMETRIC_PUT_GOLDEN = 2.1384121612040241
EUROPEAN_CALL_GOLDEN = 19.386356841700628  # S=K=100, r=0.08, sigma=0.4, T=1
EUROPEAN_PUT_GOLDEN = 11.697991480364206
NORM_CDF_1_GOLDEN = 0.84134474606854293
# r of numpy's 256-layer normal ziggurat: beyond it lies the tail
ZIGGURAT_TAIL_EDGE = 3.6541528853610088
# paths per averages call: below, at and above its 8 lanes, and whole blocks with tails
PATHS_PER_CALL = (1, 7, 8, 9, 31, 33, 37)
# steps per path: below, at and above the walk's 8-step tiles and numpy's
# 8-way and 128-element pairwise blocks
STEPS = (1, 2, 7, 8, 9, 16, 17, 128, 129, 136, 257, 1000)
BLOCK = 128  # a path count that is a whole number of blocks

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
        [
            dict(n_paths=0, n_steps=10),
            dict(n_paths=10, n_steps=0),
            dict(n_paths=1, n_steps=10),
            # a Philox key word is 64 bits: numpy refuses these keys too
            dict(n_paths=10, n_steps=10, seed=-1),
            dict(n_paths=10, n_steps=10, seed=2**64),
        ],
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


def pinned_instruments() -> list[InstrumentSpec]:
    """Instruments whose walks have no noise, and a little and a lot of it."""
    return [
        instrument(sigma=0.0, maturity=1.0),
        instrument(sigma=0.3, maturity=0.5, spot=90.0),
        instrument(sigma=0.6, maturity=2.0, spot=120.0, rate=0.05),
    ]


def exp_in_place(x: np.ndarray) -> None:
    """``x``, contiguous, exponentiated in place by the float64 loop that the
    library found in numpy's exp and hands to ``averages``."""
    loop, data = _step.library().numpy_exp
    pointer = ctypes.POINTER(ctypes.c_ssize_t)
    run = ctypes.CFUNCTYPE(None, ctypes.POINTER(ctypes.c_void_p), pointer, pointer, ctypes.c_void_p)(loop)
    address = x.ctypes.data
    run((ctypes.c_void_p * 2)(address, address), (ctypes.c_ssize_t * 1)(x.size), (ctypes.c_ssize_t * 2)(8, 8), data)


class TestAverages:
    @pytest.mark.parametrize("m", STEPS, ids=[f"m={m}" for m in STEPS])
    def test_matches_numpy_pipeline(self, m):
        # consecutive calls of every size in PATHS_PER_CALL from path 3 on, so
        # that ranges start off the block grid and end in each tail of lanes
        specs = pinned_instruments()
        edges = np.cumsum((3, *PATHS_PER_CALL))
        cfg = McConfig(int(edges[-1]) + 2, m, seed=5)
        out = np.full((len(specs), cfg.n_paths), np.nan)
        for a, b in zip(edges, edges[1:]):
            mc_path_averages_many(specs, cfg, out, int(a), int(b))
        want = reference_averages(specs, cfg, 3, int(edges[-1]))
        assert out[:, 3 : edges[-1]].tobytes() == want.tobytes()
        assert np.isnan(out[:, :3]).all() and np.isnan(out[:, edges[-1] :]).all()

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_every_seed_word_keys_numpys_stream(self, seed):
        # the ends of the seeds that McConfig takes, as numpy's Philox keys them
        specs, cfg = pinned_instruments(), McConfig(11, 7, seed=seed)
        out = np.empty((len(specs), cfg.n_paths))
        mc_path_averages_many(specs, cfg, out, 0, cfg.n_paths)
        assert out.tobytes() == reference_averages(specs, cfg, 0, cfg.n_paths).tobytes()

    def test_tail_draws_match_numpy(self):
        # the ziggurat's tail draws go through numpy's own function
        specs, cfg = pinned_instruments(), McConfig(BLOCK, 1000, seed=11)
        assert np.count_nonzero(np.abs(reference_normals(11, 0, BLOCK, 1000)) > ZIGGURAT_TAIL_EDGE) > 0
        out = np.empty((len(specs), cfg.n_paths))
        mc_path_averages_many(specs, cfg, out, 0, cfg.n_paths)
        assert out.tobytes() == reference_averages(specs, cfg, 0, cfg.n_paths).tobytes()

    def test_rows_must_be_contiguous_writable_float64(self):
        averages = _step.library().averages
        steps, work = np.ones((1, 3)), np.empty((2 * _step.LANES, 8))
        read_only = np.ones((1, 8))
        read_only.flags.writeable = False
        for out in (np.ones((1, 16))[:, ::2], np.ones((1, 8), dtype=np.float32), read_only):
            with pytest.raises(ctypes.ArgumentError):
                averages(out, 1, 8, steps, 8, 1, 0, 8, work, _step.library().numpy_exp)

    @pytest.mark.parametrize("shape", [(1, 300), (2, 299), (300,)])
    def test_averages_of_another_shape_refused(self, shape):
        specs = [instrument(), instrument(sigma=0.4)]
        with pytest.raises(ConfigurationError, match="need averages of shape"):
            mc_path_averages_many(specs, McConfig(300, 30), np.empty(shape), 0, 300)

    @pytest.mark.parametrize(
        "n_paths, n_steps, n_insts, bound, sizes",
        [
            (12_500, 1000, 4, None, [8388, 4112]),  # the table's four sets, 12500 paths
            (10_000, 1000, 1, None, [10_000]),  # mc's defaults, 1e7 path-steps
            (40_000, 1000, 1, None, [33_554, 6_446]),
            (12, 40, 2, 80 * 6, [6, 6]),  # at the bound
            (3, 40, 2, 79, [1, 1, 1]),  # one path's steps above it
        ],
        ids=["table", "mc", "above-bound", "at-bound", "one-path"],
    )
    def test_mc_calls_bounded_in_path_steps(self, monkeypatch, n_paths, n_steps, n_insts, bound, sizes):
        # Python sees a Ctrl-C only between C calls, so none runs more than
        # MC_CALL_PATH_STEPS path-steps over its instruments, or one path
        if bound is not None:
            monkeypatch.setattr(reference, "MC_CALL_PATH_STEPS", bound)
        asked = []
        monkeypatch.setattr(_step.library(), "averages", lambda *args: asked.append(args[7] - args[6]))
        out = np.empty((n_insts, n_paths))
        mc_path_averages_many([instrument()] * n_insts, McConfig(n_paths, n_steps), out, 0, n_paths)
        assert asked == sizes


class TestNumpyExp:
    def test_loop_matches_np_exp(self):
        # every length up to 64 at every offset from a 64-byte line: the
        # vector loop's head, body and masked tail, as np.exp runs them
        rng = np.random.default_rng(7)
        for n in range(1, 65):
            for offset in range(8):
                x = rng.standard_normal(n) * rng.choice([1e-3, 1.0, 30.0, 800.0], n)
                x[rng.integers(n)] = rng.choice([np.nan, np.inf, -np.inf, -0.0, 5e-324, 709.78, -745.2])
                line = np.full(n + 16, np.nan)
                got = line[8 - line.ctypes.data % 64 // 8 + offset :][:n]
                got[...] = x
                exp_in_place(got)
                with np.errstate(over="ignore", under="ignore"):
                    assert got.tobytes() == np.exp(x).tobytes(), (n, offset)

    def test_overflow_gives_inf_without_a_warning(self):
        x = np.array([710.0, 1e308, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            exp_in_place(x)
            np.add(x, 1.0)  # numpy clears the flags that the loop left set
        assert x[0] == x[1] == np.inf and x[2] == math.e

    def test_overflowing_paths_give_inf_averages_without_a_warning(self):
        inst = instrument(sigma=1.0, rate=709.0, maturity=1.0)  # exp(rate T) is finite
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            averages = mc_path_averages(inst, McConfig(100, 10, seed=1))
        assert np.isinf(averages).any()
        assert averages.tobytes() == reference_averages([inst], McConfig(100, 10, seed=1), 0, 100)[0].tobytes()


class TestNormals:
    @pytest.mark.parametrize(
        "seed, first, n, m",
        [
            (1, 0, BLOCK, 1000),
            (1, 0, 37, 40),
            (3, 0, BLOCK, 1),
            (3, 0, 37, 1001),
            (7, 999, BLOCK, 40),
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

    def test_tail_draws_match_numpy(self):
        # 231 of these draws lie beyond numpy's tail edge, where the
        # ziggurat's layer-0 loop draws them
        want = reference_normals(11, 0, 1024, 1000)
        assert np.count_nonzero(np.abs(want) > ZIGGURAT_TAIL_EDGE) > 0
        z = np.full(want.shape, np.nan)
        _step.library().normals(z, *z.shape, 11, 0)
        assert z.tobytes() == want.tobytes()

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
        cfg = McConfig(BLOCK + 37, 40, seed=21)
        shared = np.empty((len(specs), cfg.n_paths))
        mc_path_averages_many(specs, cfg, shared, 0, cfg.n_paths)
        for spec, averages in zip(specs, shared):
            assert np.array_equal(averages, mc_path_averages(spec, cfg))

    def test_path_ranges_concatenate_to_whole(self):
        # range edges off the block grid (301 = 37 * 8 + 5); each path keeps its
        # own (seed, index) stream, and each range writes only its own slice
        specs = [instrument(sigma=0.2, maturity=0.5), instrument(sigma=0.4, maturity=1.0)]
        cfg = McConfig(3 * BLOCK + 45, 30, seed=8)
        whole = np.empty((len(specs), cfg.n_paths))
        mc_path_averages_many(specs, cfg, whole, 0, cfg.n_paths)
        parts = np.full((len(specs), cfg.n_paths), np.nan)
        for a, b in ((0, 50), (50, 301), (301, cfg.n_paths)):
            mc_path_averages_many(specs, cfg, parts, a, b)
        for part, averages in zip(parts, whole):
            assert np.array_equal(part, averages)

    def test_threads_on_interleaved_ranges_match_serial(self):
        # each call's Philox streams live on its own stack: two threads that
        # draw at the same time take alternate blocks and get the serial bytes
        specs = [instrument(sigma=0.2, maturity=0.5), instrument(sigma=0.4, maturity=1.0)]
        cfg = McConfig(16 * BLOCK + 45, 1000, seed=17)
        edges = [*range(0, cfg.n_paths, BLOCK), cfg.n_paths]
        ranges = list(zip(edges[:-1], edges[1:]))
        parts, start = np.full((len(specs), cfg.n_paths), np.nan), threading.Barrier(2)

        def run(mine):
            start.wait()
            for a, b in mine:
                mc_path_averages_many(specs, cfg, parts, a, b)

        threads = [threading.Thread(target=run, args=(ranges[k::2],)) for k in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        whole = np.empty((len(specs), cfg.n_paths))
        mc_path_averages_many(specs, cfg, whole, 0, cfg.n_paths)
        assert parts.tobytes() == whole.tobytes()

    @pytest.mark.parametrize("start, stop", [(-1, 10), (10, 5), (0, 301)])
    def test_path_range_outside_refused(self, start, stop):
        with pytest.raises(ConfigurationError, match="path range"):
            mc_path_averages_many([instrument()], McConfig(300, 30), np.empty((1, 300)), start, stop)

    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_averages_refused(self, n):
        with pytest.raises(ConfigurationError, match="at least 2 paths"):
            mc_result_from_averages(np.full(n, 100.0), instrument())

    @pytest.mark.parametrize("averages", [[np.inf, 100.0], [np.nan, 100.0], [1e200, 100.0]])
    def test_non_finite_estimate_refused(self, averages):
        # an overflowed path average, or a spread whose square overflows
        with np.errstate(all="ignore"), pytest.raises(ConfigurationError, match="is not finite"):
            mc_result_from_averages(np.array(averages), instrument())

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
