import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evbandit.costfit import (
    PriceTrace,
    estimate_chain,
    estimate_matrix,
    fit_cost_chain,
    quantize,
    resample,
)

FIXTURE = Path(__file__).resolve().parent.parent / "data" / "sample_rt_prices.csv"

HOUR = 3600.0


def trace_at_hours(hours, prices):
    return PriceTrace(np.asarray(hours, dtype=float) * HOUR, np.asarray(prices, float))


class TestPriceTrace:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            PriceTrace(np.array([]), np.array([]))

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            trace_at_hours([1, 1], [5, 6])

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            trace_at_hours([0, 1], [5, np.nan])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            trace_at_hours([0, 1, 2], [5, 6])

    def test_from_csv(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("timestamp,price\n2026-01-01T00:00,10\n2026-01-01T01:00,20\n")
        tr = PriceTrace.from_csv(p)
        assert tr.prices.tolist() == [10.0, 20.0]
        assert tr.timestamps[1] - tr.timestamps[0] == HOUR

    def test_naive_times_are_utc_in_any_time_zone(self, tmp_path, monkeypatch):
        """72 hourly samples over the night when New York's clocks skip
        02:00 (8 March 2026) fit the same chain in every host time zone;
        zones as POSIX rules, so that no time zone database is needed."""
        p = tmp_path / "t.csv"
        hours = np.arange(72)
        rows = [f"2026-03-{7 + h // 24:02d}T{h % 24:02d}:00,{10 + h % 7}" for h in hours]
        p.write_text("timestamp,price\n" + "\n".join(rows) + "\n")
        fits = []
        try:
            for zone in ("UTC0", "EST5EDT,M3.2.0,M11.1.0", "IST-5:30"):
                monkeypatch.setenv("TZ", zone)
                time.tzset()
                trace = PriceTrace.from_csv(p)
                fits.append(fit_cost_chain(trace, k=3, n_periods=4))
                assert np.array_equal(trace.timestamps - trace.timestamps[0], hours * HOUR)
        finally:
            monkeypatch.undo()
            time.tzset()
        for fit in fits[1:]:
            assert np.array_equal(fit.chain.values, fits[0].chain.values)
            assert np.array_equal(fit.chain.P, fits[0].chain.P)

    def test_offsets_are_kept(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("timestamp,price\n2026-01-01T00:00+01:00,10\n2026-01-01T00:00+00:00,20\n")
        tr = PriceTrace.from_csv(p)
        assert tr.timestamps[0] == 1767222000.0
        assert tr.timestamps[1] - tr.timestamps[0] == HOUR

    def test_from_csv_requires_header(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("2026-01-01T00:00,10\n")
        with pytest.raises(ValueError):
            PriceTrace.from_csv(p)


class TestResample:
    def test_mean_within_slot(self):
        tr = trace_at_hours([0.0, 0.5], [10, 20])
        assert resample(tr, 60).tolist() == [15.0]

    def test_gap_repeats_previous_value(self):
        tr = trace_at_hours([0, 2], [10, 30])
        assert resample(tr, 60).tolist() == [10.0, 10.0, 30.0]

    def test_hourly_grid_is_identity(self):
        px = np.arange(24.0) + 3.0
        tr = trace_at_hours(np.arange(24), px)
        assert np.array_equal(resample(tr, 60), px)

    def test_bad_slot_length(self):
        with pytest.raises(ValueError):
            resample(trace_at_hours([0], [1.0]), 0)


class TestQuantize:
    def test_two_bins(self):
        levels, states, retail = quantize([1.0, 2.0, 3.0, 4.0], 2, retail_price=1.0)
        assert levels.tolist() == [1.5, 3.5]
        assert states.tolist() == [0, 0, 1, 1]
        assert retail == 1.0

    def test_single_level_is_the_mean(self):
        levels, states, retail = quantize([2.0, 4.0], 1, retail_price=2.0)
        assert levels.tolist() == [1.5]
        assert states.tolist() == [0, 0]

    def test_default_retail_puts_mean_cost_at_half(self):
        px = np.array([10.0, 20.0, 80.0, 130.0, 7.0, 53.0])
        levels, states, retail = quantize(px, 3)
        assert retail == pytest.approx(2 * px.mean())
        counts = np.bincount(states, minlength=3)
        assert float(counts @ levels) / px.size == pytest.approx(0.5)

    def test_equal_counts_even_with_ties(self):
        levels, states, _ = quantize([5.0, 5.0, 5.0, 1.0], 2, retail_price=1.0)
        assert np.bincount(states).tolist() == [2, 2]
        assert levels.tolist() == [3.0, 5.0]

    def test_degenerate_trace_rejected(self):
        with pytest.raises(ValueError):
            quantize([2.0, 2.0, 2.0], 2)

    def test_too_few_slots_rejected(self):
        with pytest.raises(ValueError):
            quantize([1.0], 2)

    def test_bad_k_and_retail(self):
        with pytest.raises(ValueError):
            quantize([1.0, 2.0], 0)
        with pytest.raises(ValueError):
            quantize([1.0, 2.0], 2, retail_price=-1.0)


class TestEstimateMatrix:
    def test_frequency_counts(self):
        p = estimate_matrix([0, 0, 1, 0], k=2, alpha=0.0)
        assert np.allclose(p, [[0.5, 0.5], [1.0, 0.0]])

    def test_unvisited_state_smoothed_to_uniform(self):
        p = estimate_matrix([0, 0, 0], k=2, alpha=0.5)
        assert np.allclose(p[1], [0.5, 0.5])

    def test_unvisited_state_without_smoothing_raises(self):
        with pytest.raises(ValueError):
            estimate_matrix([0, 0, 0], k=2, alpha=0.0)

    def test_heavy_smoothing_approaches_uniform(self):
        p = estimate_matrix([0, 1, 0, 1], k=2, alpha=1e9)
        assert np.allclose(p, 0.5, atol=1e-8)

    def test_per_period_binning(self):
        p = estimate_matrix([0, 1, 0, 1, 0], k=2, alpha=0.5, n_periods=2)
        assert p.shape == (2, 2, 2)
        assert np.allclose(p[0, 0], [1 / 6, 5 / 6])
        assert np.allclose(p[0, 1], [0.5, 0.5])
        assert np.allclose(p[1, 1], [5 / 6, 1 / 6])

    def test_state_out_of_range(self):
        with pytest.raises(ValueError):
            estimate_matrix([0, 3], k=2, alpha=0.5)

    def test_too_short(self):
        with pytest.raises(ValueError):
            estimate_matrix([0], k=2, alpha=0.5)

    @settings(max_examples=50)
    @given(
        st.lists(st.integers(0, 2), min_size=2, max_size=40),
        st.floats(0.01, 5.0),
        st.sampled_from([None, 2, 3]),
    )
    def test_rows_always_stochastic(self, states, alpha, nper):
        p = estimate_matrix(states, k=3, alpha=alpha, n_periods=nper)
        assert np.all(p >= 0)
        assert np.allclose(p.sum(axis=-1), 1.0, atol=1e-12)

    def test_round_trip_recovers_the_chain(self):
        rng = np.random.default_rng(12345)
        p_true = np.array([[0.8, 0.2], [0.4, 0.6]])
        n = 20000
        s = np.empty(n, dtype=np.int64)
        s[0] = 0
        u = rng.random(n)
        for i in range(1, n):
            s[i] = int(u[i] > p_true[s[i - 1], 0])
        p_hat = estimate_matrix(s, k=2, alpha=0.0)
        assert np.max(np.abs(p_hat - p_true)) < 5.0 / np.sqrt(n)


class TestEstimateChain:
    def test_single_matrix(self):
        chain = estimate_chain([0, 1, 0], levels=[0.2, 0.8], alpha=0.5)
        assert chain.P.shape == (1, 2, 2)

    def test_per_period(self):
        chain = estimate_chain([0, 1, 0, 1], levels=[0.2, 0.8], alpha=0.5, n_periods=2)
        assert chain.P.shape == (2, 2, 2)


@pytest.fixture(scope="module")
def fit():
    return fit_cost_chain(PriceTrace.from_csv(FIXTURE), k=5)


class TestCheckedInFixture:
    """The 30-day hourly sample trace, fitted once and frozen."""

    LEVELS = [
        0.09911157022583955,
        0.17463603216512164,
        0.24009196196334287,
        0.3444701627112579,
        1.6416902729344385,
    ]
    P_ROW_0 = [
        0.7319587628865979,
        0.20962199312714777,
        0.030927835051546393,
        0.010309278350515464,
        0.01718213058419244,
    ]

    def test_shape(self, fit):
        assert fit.slot_prices.size == 720
        assert np.bincount(fit.states).tolist() == [144] * 5

    def test_levels(self, fit):
        assert fit.chain.values == pytest.approx(self.LEVELS, abs=1e-12)
        assert fit.retail_price == pytest.approx(155.8555, abs=1e-9)

    def test_transitions(self, fit):
        assert fit.chain.P[0, 0] == pytest.approx(self.P_ROW_0, abs=1e-12)
        assert np.allclose(fit.chain.P.sum(axis=2), 1.0)

    def test_long_run_mean_cost_near_half(self, fit):
        pi = fit.chain.stationary()
        assert float(pi @ fit.chain.values) == pytest.approx(0.5005480361309287, abs=1e-9)
