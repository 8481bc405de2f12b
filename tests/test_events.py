import math

import numpy as np
import pytest

from evsplat.events import (EventModelConfig, EventStream, accumulate_events,
                            log_intensity, simulate_motion_events)

CFG = EventModelConfig()


def make_frames(logs, times_us, cfg=CFG):
    """Frame sequence whose per-pixel log values are given directly."""
    return [(t, np.exp(cfg.gamma * np.asarray(l, dtype=np.float64)))
            for t, l in zip(times_us, logs)]


class TestLogIntensity:
    def test_unit_intensity_is_zero(self):
        assert log_intensity(np.array([[1.0]]), CFG)[0, 0] == 0.0

    def test_log_cancels_gamma(self):
        img = np.array([[math.exp(2.2)]])
        assert log_intensity(img, CFG)[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_zero_is_floored(self):
        # oracle: evaluate the floored formula directly
        expected = math.log(1e-6) / 2.2
        assert log_intensity(np.array([[0.0]]), CFG)[0, 0] == pytest.approx(expected, abs=1e-12)

    def test_inverse_recovers_above_floor(self, rng):
        img = rng.uniform(1e-5, 2.0, size=(8, 8))
        back = np.exp(CFG.gamma * log_intensity(img, CFG))
        np.testing.assert_allclose(back, img, rtol=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            log_intensity(np.array([[-0.1]]), CFG)


class TestAccumulateEvents:
    def test_empty_stream_all_zero(self):
        out = accumulate_events(EventStream.empty((4, 4)), 0, 100, CFG)
        np.testing.assert_array_equal(out, np.zeros((4, 4)))

    def test_three_pos_one_neg(self):
        s = EventStream.create((4, 4), [2, 2, 2, 2], [1, 1, 1, 1],
                               [10, 20, 30, 40], [1, 1, 1, -1])
        out = accumulate_events(s, 0, 100, CFG)
        assert out[1, 2] == pytest.approx(0.2)

    def test_window_semantics_half_open(self):
        # t0 < t <= t1: events at t0 excluded, at t1 included
        s = EventStream.create((2, 1), [0, 0, 0], [0, 0, 0], [10, 20, 30], [1, 1, 1])
        out = accumulate_events(s, 10, 20, CFG)
        assert out[0, 0] == pytest.approx(CFG.contrast_threshold)

    def test_out_of_span_window_is_zero(self):
        s = EventStream.create((2, 1), [0], [0], [100], [1])
        np.testing.assert_array_equal(accumulate_events(s, 200, 300, CFG), 0.0)
        np.testing.assert_array_equal(accumulate_events(s, 0, 50, CFG), 0.0)
        assert accumulate_events(s, 50, 150, CFG)[0, 0] == CFG.contrast_threshold

    def test_additive_over_adjacent_windows(self, rng):
        n = 500
        t = np.sort(rng.integers(0, 10_000, size=n))
        s = EventStream.create((8, 8), rng.integers(0, 8, n), rng.integers(0, 8, n),
                               t, rng.choice([-1, 1], n).astype(np.int8))
        # unit threshold: per-window sums are small integers, additivity is exact
        unit = EventModelConfig(contrast_threshold=1.0)
        a = accumulate_events(s, 0, 4000, unit)
        b = accumulate_events(s, 4000, 8000, unit)
        c = accumulate_events(s, 0, 8000, unit)
        np.testing.assert_array_equal(a + b, c)
        # arbitrary threshold: additive to one rounding step of C
        a = accumulate_events(s, 0, 4000, CFG)
        b = accumulate_events(s, 4000, 8000, CFG)
        c = accumulate_events(s, 0, 8000, CFG)
        np.testing.assert_allclose(a + b, c, rtol=0, atol=1e-15)

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            accumulate_events(EventStream.empty((2, 2)), 10, 10, CFG)


class TestSimulateMotionEvents:
    def test_constant_sequence_empty(self):
        img = np.full((4, 4), 0.3)
        s = simulate_motion_events([(0, img), (1000, img), (2000, img)], CFG)
        assert len(s) == 0

    def test_crossing_count(self):
        # one pixel's log goes 0 -> 0.35 with C = 0.1: three positive events
        frames = make_frames([[[0.0]], [[0.35]]], [0, 1000])
        s = simulate_motion_events(frames, CFG)
        assert len(s) == 3
        assert np.all(s.p == 1)

    def test_decreasing_all_negative(self):
        frames = make_frames([[[1.0]], [[0.4]], [[0.05]]], [0, 500, 1000])
        s = simulate_motion_events(frames, CFG)
        assert len(s) > 0
        assert np.all(s.p == -1)

    def test_resolution_mismatch_rejected(self):
        with pytest.raises(ValueError):
            simulate_motion_events([(0, np.zeros((2, 2))), (10, np.zeros((3, 3)))], CFG)

    def test_polarity_matches_segment_sign(self, rng):
        logs = rng.normal(0, 0.5, size=(6, 5, 5))
        frames = make_frames(logs, np.arange(6) * 1000)
        s = simulate_motion_events(frames, CFG)
        times = np.arange(6) * 1000
        for x, y, t, p in zip(s.x, s.y, s.t, s.p):
            seg = np.searchsorted(times, t, side="left") - 1
            seg = min(max(seg, 0), 4)
            dlog = logs[seg + 1][y, x] - logs[seg][y, x]
            assert np.sign(dlog) == p

    def test_round_trip_within_threshold(self, rng):
        logs = rng.normal(0, 0.8, size=(8, 6, 6))
        times = np.arange(8) * 1000
        frames = make_frames(logs, times)
        s = simulate_motion_events(frames, CFG)
        acc = accumulate_events(s, times[0], times[-1], CFG)
        np.testing.assert_array_less(np.abs(acc - (logs[-1] - logs[0])),
                                     CFG.contrast_threshold + 1e-12)

    def test_threshold_scaling(self, rng):
        # granularity property on monotone per-pixel ramps; a finer threshold
        # can additionally pick up one rounding event per pixel
        # (total variation 1.5 C fires 1 event at C but 3 at C/2)
        n_frames = 12
        amp = rng.uniform(0.5, 2.5, size=(8, 8))
        logs = [amp * i / (n_frames - 1) for i in range(n_frames)]
        times = np.arange(n_frames) * 1000
        frames = make_frames(logs, times)
        base = simulate_motion_events(frames, CFG)
        for k in (2.0, 0.5):
            cfg_k = EventModelConfig(contrast_threshold=k * CFG.contrast_threshold)
            other = simulate_motion_events(frames, cfg_k)
            slack = amp.size if k < 1 else 0
            assert len(other) <= np.ceil(1.0 / k) * len(base) + slack
            acc_a = accumulate_events(base, times[0], times[-1], CFG)
            acc_b = accumulate_events(other, times[0], times[-1], cfg_k)
            bound = max(CFG.contrast_threshold, k * CFG.contrast_threshold)
            assert np.abs(acc_a - acc_b).max() <= bound + 1e-12

    def test_sorted_output(self, rng):
        logs = rng.normal(0, 1.0, size=(5, 10, 10))
        frames = make_frames(logs, np.arange(5) * 777)
        s = simulate_motion_events(frames, CFG)
        assert np.all(np.diff(s.t) >= 0)

    def test_deterministic(self, rng):
        logs = rng.normal(0, 1.0, size=(4, 6, 6))
        frames = make_frames(logs, np.arange(4) * 1000)
        a = simulate_motion_events(frames, CFG)
        b = simulate_motion_events(frames, CFG)
        np.testing.assert_array_equal(a.t, b.t)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.p, b.p)


class TestEventStreamValidation:
    def test_rejects_unsorted(self):
        with pytest.raises(ValueError, match="unsorted timestamp at record 2"):
            EventStream.create((4, 4), [0, 0, 0], [0, 0, 0], [3, 10, 5], [1, 1, 1])

    def test_rejects_out_of_bounds(self):
        with pytest.raises(ValueError, match="out-of-bounds coordinates at record 1"):
            EventStream.create((4, 4), [0, 4], [0, 0], [0, 0], [1, 1])

    def test_rejects_bad_polarity(self):
        with pytest.raises(ValueError, match="invalid polarity at record 0"):
            EventStream.create((4, 4), [0], [0], [0], [0])
        # checked before the int8 cast, which would wrap 257 to +1
        with pytest.raises(ValueError, match="invalid polarity at record 1"):
            EventStream.create((4, 4), [0, 0], [0, 0], [0, 0], np.array([1, 257]))
