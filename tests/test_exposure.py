import numpy as np
import pytest

from conftest import scale_foreground, simulate_exposure_events

from evsplat.dataset import SyntheticSceneSpec, generate_synthetic_scene
from evsplat.events import EventModelConfig, EventStream
from evsplat.exposure import (TransmittanceProfile, cumulative_exposure, extract_ipe,
                              map_temporal_to_intensity, simulate_ipe,
                              transmittance_at)

LINEAR = TransmittanceProfile("linear", 1.0)


class TestTransmittance:
    def test_linear_midpoint(self):
        assert transmittance_at(LINEAR, 0.5) == pytest.approx(0.5)

    def test_one_beyond_end(self):
        assert transmittance_at(LINEAR, 2.0) == 1.0
        prof = TransmittanceProfile("sampled", 1.0,
                                    samples=np.array([[0.0, 0.0], [1.0, 1.0]]))
        assert transmittance_at(prof, 2.0) == 1.0

    def test_zero_at_start(self):
        assert transmittance_at(LINEAR, 0.0) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            transmittance_at(LINEAR, -0.1)

    def test_sampled_interpolates(self):
        prof = TransmittanceProfile("sampled", 2.0,
                                    samples=np.array([[0.0, 0.0], [1.0, 0.1], [2.0, 1.0]]))
        assert transmittance_at(prof, 0.5) == pytest.approx(0.05)
        assert transmittance_at(prof, 1.5) == pytest.approx(0.55)


class TestCumulativeExposure:
    def test_full_ramp(self):
        assert cumulative_exposure(LINEAR, 1.0) == pytest.approx(0.5)

    def test_half_ramp(self):
        assert cumulative_exposure(LINEAR, 0.5) == pytest.approx(0.125)

    def test_zero(self):
        assert cumulative_exposure(LINEAR, 0.0) == 0.0

    def test_beyond_end_grows_linearly(self):
        assert cumulative_exposure(LINEAR, 1.5) == pytest.approx(1.0)

    def test_strictly_increasing(self, rng):
        ts = np.sort(rng.uniform(1e-4, 2.0, size=64))
        h = cumulative_exposure(LINEAR, ts)
        assert np.all(np.diff(h) > 0)

    def test_sampled_matches_linear_closed_form(self):
        # trapezoid on a 1e-4-spaced table of the linear ramp is exact to 1e-9
        ts = np.arange(0, 1.0 + 1e-9, 1e-4)
        prof = TransmittanceProfile("sampled", 1.0, samples=np.column_stack([ts, ts]))
        probe = np.linspace(0.0, 1.0, 101)
        np.testing.assert_allclose(cumulative_exposure(prof, probe),
                                   cumulative_exposure(LINEAR, probe), atol=1e-9)


class TestExtractIpe:
    def test_first_positive_wins(self):
        s = EventStream.create((2, 1), [0, 0], [0, 0], [400_000, 700_000], [1, 1])
        assert extract_ipe(s, 0)[0, 0] == pytest.approx(0.4)

    def test_negative_only_invalid(self):
        s = EventStream.create((2, 1), [0, 1], [0, 0], [100, 200], [-1, 1])
        t_star = extract_ipe(s, 0)
        assert not np.isfinite(t_star[0, 0])
        assert np.isfinite(t_star[0, 1])

    def test_empty_all_invalid(self):
        t_star = extract_ipe(EventStream.empty((3, 3)), 0)
        assert t_star.shape == (3, 3)
        assert not np.isfinite(t_star).any()

    def test_events_before_open_ignored(self):
        s = EventStream.create((1, 1), [0, 0], [0, 0], [100, 500], [1, 1])
        assert extract_ipe(s, 200)[0, 0] == pytest.approx(300e-6)


class TestTemporalToIntensity:
    def test_two_pixel_example(self):
        # linear profile, t_end 1, t* {1.0, 0.5} -> 1 / h {2, 8} -> {0.25, 1.0}
        fr = map_temporal_to_intensity(np.array([[1.0, 0.5]]), LINEAR)
        np.testing.assert_allclose(fr.image, [[0.25, 1.0]])

    def test_single_valid_pixel_is_one(self):
        fr = map_temporal_to_intensity(np.array([[0.7, np.nan]]), LINEAR)
        assert fr.image[0, 0] == 1.0
        assert fr.image[0, 1] == 0.0
        assert not fr.mask[0, 1]

    def test_uniform_t_star_uniform_frame(self):
        fr = map_temporal_to_intensity(np.full((3, 3), 0.4), LINEAR)
        np.testing.assert_allclose(fr.image, 1.0)

    def test_all_invalid_rejected(self):
        with pytest.raises(ValueError):
            map_temporal_to_intensity(np.full((2, 2), np.nan), LINEAR)

    def test_percentile_clip_tames_hot_pixel(self):
        t_star = np.full((10, 10), 0.5)
        t_star[0, 0] = 1e-4              # simulated hot pixel fires absurdly early
        plain = map_temporal_to_intensity(t_star, LINEAR)
        clipped = map_temporal_to_intensity(t_star, LINEAR, clip_percentile=99.0)
        assert plain.image[5, 5] < 1e-6          # hot pixel crushed the rest
        assert clipped.image[5, 5] == pytest.approx(1.0)


class TestSimulateExposure:
    CFG = EventModelConfig(contrast_threshold=0.1)

    def test_analytic_first_crossing(self):
        # I = 0.2 with C = 0.1 on the linear ramp crosses at t* = 1.0
        img = np.array([[0.2]])
        s = simulate_exposure_events(img, LINEAR, self.CFG, levels=4000)
        assert extract_ipe(s)[0, 0] == pytest.approx(1.0, rel=1e-3)

    def test_brighter_is_earlier(self):
        img = np.array([[0.8]])
        s = simulate_exposure_events(img, LINEAR, self.CFG, levels=4000)
        assert extract_ipe(s)[0, 0] == pytest.approx(0.5, rel=1e-3)

    def test_zero_intensity_silent(self):
        s = simulate_exposure_events(np.zeros((3, 3)), LINEAR, self.CFG, levels=100)
        assert len(s) == 0

    def test_all_positive_and_sorted(self, rng):
        img = rng.uniform(0, 1, size=(8, 8))
        s = simulate_exposure_events(img, LINEAR, self.CFG, levels=50)
        assert np.all(s.p == 1)
        assert np.all(np.diff(s.t) >= 0)

    def test_order_preservation(self, rng):
        # strictly brighter pixels fire strictly earlier
        img = np.array([[0.2, 0.4, 0.9]])
        cfg = EventModelConfig(contrast_threshold=0.02)
        s = simulate_exposure_events(img, LINEAR, cfg, levels=400)
        t = extract_ipe(s)[0]
        assert t[2] < t[1] < t[0]

    def test_round_trip_proportional(self, rng):
        img = rng.uniform(0.05, 1.0, size=(16, 16))
        cfg = EventModelConfig(contrast_threshold=0.01)
        s = simulate_exposure_events(img, LINEAR, cfg, levels=100)
        fr = map_temporal_to_intensity(extract_ipe(s), LINEAR)
        ref = img / img.max()
        rel = np.abs(fr.image - ref) / ref
        assert rel.max() < 0.02

    def test_scale_invariance_of_mapped_frame(self, rng):
        img = rng.uniform(0.05, 1.0, size=(12, 12))
        cfg = EventModelConfig(contrast_threshold=0.005)
        frames = []
        for k in (1.0, 4.0):
            s = simulate_exposure_events(k * img, LINEAR, cfg, levels=200)
            frames.append(map_temporal_to_intensity(extract_ipe(s), LINEAR).image)
        np.testing.assert_allclose(frames[0], frames[1], atol=2e-3)


class TestSimulateIpe:
    """simulate_ipe equals the IPE of the full stream that conftest's
    simulate_exposure_events builds, bit for bit."""

    @staticmethod
    def assert_matches_stream(img, profile, cfg, levels):
        full = extract_ipe(simulate_exposure_events(img, profile, cfg, levels))
        fast = simulate_ipe(img, profile, cfg, levels)
        assert fast.shape == np.shape(img)
        assert np.array_equal(fast, full, equal_nan=True)

    def test_toy_stops(self):
        # every stop of the seed-0 toy spec, as make-synthetic builds them
        spec = SyntheticSceneSpec(seed=0)
        ds = generate_synthetic_scene(spec)
        profile = TransmittanceProfile("linear", spec.exposure_t_end)
        cfg = EventModelConfig(contrast_threshold=spec.exposure_contrast, gamma=spec.gamma)
        assert len(ds.gt_frames) == 200
        for gt in ds.gt_frames:
            self.assert_matches_stream(gt, profile, cfg, spec.levels)

    @pytest.mark.parametrize("levels", [2, 7, 100, 400])
    def test_random_images_with_dark_pixels(self, levels):
        rng = np.random.default_rng(levels)
        for _ in range(5):
            img = rng.uniform(0.0, 1.5, size=(12, 10))
            img[rng.uniform(size=img.shape) < 0.2] = 0.0
            c = float(rng.uniform(0.002, 0.2))
            self.assert_matches_stream(img, LINEAR, EventModelConfig(contrast_threshold=c),
                                       levels)

    def test_sampled_profile(self, rng):
        # TR stays 0 over the first tenth of the ramp, so early steps add no charge
        prof = TransmittanceProfile("sampled", 2.0, samples=np.array(
            [[0.0, 0.0], [0.2, 0.0], [1.0, 0.3], [2.0, 1.0]]))
        img = rng.uniform(0.0, 1.0, size=(16, 16))
        img[3:6, 4:9] = 0.0
        self.assert_matches_stream(img, prof, EventModelConfig(contrast_threshold=0.01), 150)

    def test_all_zero_image_all_nan(self):
        t_star = simulate_ipe(np.zeros((4, 5)), LINEAR, EventModelConfig(), 100)
        assert t_star.shape == (4, 5)
        assert np.isnan(t_star).all()
        self.assert_matches_stream(np.zeros((4, 5)), LINEAR, EventModelConfig(), 100)

    def test_rejects_what_the_simulator_rejects(self):
        cfg = EventModelConfig()
        with pytest.raises(ValueError):
            simulate_ipe(np.array([[-0.1]]), LINEAR, cfg, levels=100)
        with pytest.raises(ValueError):
            simulate_ipe(np.ones((2, 2)), LINEAR, cfg, levels=1)


class TestScaleForeground:
    def test_identity(self, rng):
        img = rng.uniform(0, 1, size=(4, 4))
        out = scale_foreground(img, np.ones_like(img, dtype=bool), 1.0)
        np.testing.assert_array_equal(out, img)

    def test_low_light_factor(self):
        img = np.array([[0.8]])
        out = scale_foreground(img, np.array([[True]]), 0.25)
        assert out[0, 0] == pytest.approx(0.2)

    def test_ceiling_clips(self):
        img = np.array([[0.9, 0.9]])
        mask = np.array([[True, False]])
        out = scale_foreground(img, mask, 1.5, ceiling=1.0)
        assert out[0, 0] == 1.0
        assert out[0, 1] == pytest.approx(0.9)
