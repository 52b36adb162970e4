import numpy as np
import numpy.testing as npt
import pytest

from conftest import VOICE_FORMANTS, formant_grid
from timbrekit.audio import AudioBuffer, SynthSpec, synth
from timbrekit.formants import (
    ANALYSIS_RATE,
    LPC_ORDER,
    burg,
    dispersion,
    formant_track,
    roots_to_formants,
)
from timbrekit.testkit import reflections_from_lpc


def pair_poly(freq, bandwidth, rate):
    r = np.exp(-np.pi * bandwidth / rate)
    theta = 2 * np.pi * freq / rate
    return np.array([1.0, -2.0 * r * np.cos(theta), r * r])


class TestBurg:
    def test_ar2_pole_recovery(self):
        lfilter = pytest.importorskip("scipy.signal").lfilter
        rate, rho, f_true = 11000.0, 0.95, 1000.0
        a1 = 2 * rho * np.cos(2 * np.pi * f_true / rate)
        a2 = -rho * rho
        noise = np.random.default_rng(0).standard_normal(10000)
        x = lfilter([1.0], [1.0, -a1, -a2], noise)
        coeffs = burg(x, 2)[0]
        root = np.roots(np.concatenate(([1.0], coeffs)))[0]
        recovered = abs(np.angle(root)) * rate / (2 * np.pi)
        assert abs(recovered - f_true) / f_true < 0.02

    def test_white_noise_reflections_small(self):
        noise = np.random.default_rng(1).uniform(-1, 1, 2000)
        reflections = reflections_from_lpc(burg(noise, 2)[0])
        assert np.all(np.abs(reflections) < 0.3)

    def test_unit_impulse_degenerates_to_zero(self):
        x = np.zeros(100)
        x[0] = 1.0
        coeffs = burg(x, 4)[0]
        npt.assert_array_equal(coeffs, np.zeros(4))

    def test_all_zero_window_errors(self):
        assert np.isnan(burg(np.zeros(100), 4)[0]).all()

    def test_window_shorter_than_order_errors(self):
        with pytest.raises(ValueError):
            burg(np.ones(8), 10)

    @pytest.mark.parametrize("seed", range(6))
    def test_stability_all_roots_inside_unit_circle(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(0, 1, 400) + np.sin(np.arange(400) * rng.uniform(0.05, 2.0))
        coeffs = burg(x, 10)[0]
        assert np.all(np.abs(reflections_from_lpc(coeffs)) < 1.0)
        roots = np.roots(np.concatenate(([1.0], coeffs)))
        assert np.all(np.abs(roots) < 1.0)


class TestRootsToFormants:
    def test_single_pole_pair_analytic(self):
        rate = 11000.0
        poly = pair_poly(1200.0, -np.log(0.97) * rate / np.pi, rate)  # radius exactly 0.97
        track = roots_to_formants(poly[1:], rate)
        assert len(track[0]) == 1
        assert track.frequencies[0, 0] == pytest.approx(1200.0, abs=1.0)
        assert track.bandwidths[0, 0] == pytest.approx(-np.log(0.97) * rate / np.pi, rel=1e-9)

    def test_a_frame_is_read_by_int_index_only(self):
        rate = 11000.0
        track = roots_to_formants(np.stack([pair_poly(1200.0, 90.0, rate)[1:]] * 3), rate)
        npt.assert_array_equal(track[np.int64(1)], track[1])
        assert [frame.shape for frame in track] == [(1, 2)] * 3
        for index in (slice(0, 2), np.arange(2)):
            with pytest.raises(TypeError):
                track[index]

    def test_real_roots_only_empty(self):
        # (1 - 0.5 z^-1)(1 + 0.25 z^-1): both roots on the real axis
        poly = np.polymul([1.0, -0.5], [1.0, 0.25])
        frame = roots_to_formants(poly[1:], 11000.0)[0]
        assert len(frame) == 0

    def test_five_pairs_recovered_ascending(self):
        rate = 11000.0
        freqs = [500.0, 1500.0, 2500.0, 3500.0, 4500.0]
        poly = np.array([1.0])
        for f in freqs:
            poly = np.polymul(poly, pair_poly(f, 90.0, rate))
        got = roots_to_formants(poly[1:], rate).frequencies[0]
        npt.assert_allclose(got, freqs, rtol=1e-6)

    def test_round_trip_exact(self):
        rate = 11000.0
        wanted = [(600.0, 70.0), (1800.0, 120.0), (3200.0, 250.0)]
        poly = np.array([1.0])
        for f, b in wanted:
            poly = np.polymul(poly, pair_poly(f, b, rate))
        track = roots_to_formants(poly[1:], rate)
        for i, (f, b) in enumerate(wanted):
            assert track.frequencies[0, i] == pytest.approx(f, rel=1e-9)
            assert track.bandwidths[0, i] == pytest.approx(b, rel=1e-9)

    def test_bandwidth_filter(self):
        rate = 11000.0
        poly = pair_poly(2000.0, 1200.0, rate)  # broader than max_bandwidth
        assert len(roots_to_formants(poly[1:], rate)[0]) == 0


class TestFormantTrack:
    def test_voice_like_source_within_3pct(self):
        spec = SynthSpec(kind="mixture", f0=120.0, duration=1.0,
                         formants=VOICE_FORMANTS, tilt_db_per_octave=-6.0, seed=2)
        buf = synth(spec)
        frames = formant_track(buf, formant_grid(buf))
        for k, truth in enumerate((500.0, 1500.0, 2500.0, 3500.0)):
            values = frames.frequencies[:, k]
            assert np.median(values[np.isfinite(values)]) == pytest.approx(truth, rel=0.03)

    def test_flat_impulse_source(self):
        # A flat (impulse-train) source pre-emphasized rises ~+6 dB/oct and
        # loads the F1 resonance asymmetrically; the fitted model genuinely
        # peaks ~8% high there, so F1 gets a wider bound than F2..F4.
        spec = SynthSpec(kind="resonated_pulses", f0=100.0, duration=1.0,
                         formants=VOICE_FORMANTS)
        buf = synth(spec)
        frames = formant_track(buf, formant_grid(buf))
        medians = []
        for k in range(4):
            values = frames.frequencies[:, k]
            medians.append(np.median(values[np.isfinite(values)]))
        assert medians[0] == pytest.approx(500.0, rel=0.10)
        for got, truth in zip(medians[1:], (1500.0, 2500.0, 3500.0)):
            assert got == pytest.approx(truth, rel=0.03)

    def test_white_noise_does_not_crash(self):
        buf = synth(SynthSpec(kind="white_noise", duration=0.5, seed=8))
        frames = formant_track(buf, formant_grid(buf))
        assert len(frames) > 0

    def test_pure_sine_does_not_crash(self):
        buf = synth(SynthSpec(kind="sine", f0=100.0, duration=0.5))
        frames = formant_track(buf, formant_grid(buf))
        assert len(frames) > 0

    def test_amplitude_invariance(self, voiced_buffer):
        scaled = AudioBuffer(voiced_buffer.samples * 4.0, voiced_buffer.sample_rate)
        a = formant_track(voiced_buffer, formant_grid(voiced_buffer))
        b = formant_track(scaled, formant_grid(scaled))
        for fa, fb in zip(a, b):
            assert len(fa) == len(fb)
            npt.assert_allclose(fa[:, 0], fb[:, 0], rtol=1e-6)

    def test_centers_argument_alignment(self, voiced_buffer):
        frames = formant_track(voiced_buffer, centers=[0.5, 2.0])
        assert len(frames) == 2
        found = np.isfinite(frames.frequencies[0])
        npt.assert_array_equal(frames[0], np.column_stack([frames.frequencies[0], frames.bandwidths[0]])[found])
        assert frames[1].shape == (0, 2)  # past the end of the buffer


class TestDispersion:
    def test_direct(self):
        assert dispersion(500.0, 3500.0) == pytest.approx(1000.0)

    def test_degenerate_zero(self):
        assert dispersion(800.0, 800.0) == 0.0

    def test_missing_propagates(self):
        assert np.isnan(dispersion(500.0, np.nan))
        assert np.isnan(dispersion(np.nan, 3500.0))


def track_of(case):
    noise = synth(SynthSpec(kind="white_noise", duration=0.5, seed=8))
    if case == "white_noise_track":
        return formant_track(noise, formant_grid(noise))
    if case == "white_noise_roots":
        return roots_to_formants(burg(noise.samples[:5500].reshape(20, 275), LPC_ORDER), ANALYSIS_RATE)
    # Row 0: a double root, which the eigenvalue solver splits into two
    # close frequencies. Row 1: two poles at a quarter of the rate, whose
    # frequencies come out equal, so the whole row reads empty.
    rows = [((1000.0, 90.0), (1000.0, 90.0)), ((2750.0, 50.0), (2750.0, 400.0))]
    lpc = [np.polymul(*(pair_poly(f, b, ANALYSIS_RATE) for f, b in row))[1:] for row in rows]
    return roots_to_formants(np.stack(lpc), ANALYSIS_RATE)


@pytest.mark.parametrize("case", ["white_noise_track", "white_noise_roots", "repeated_roots"])
def test_rows_rise_strictly_then_nan(case):
    """Each row rises strictly over its finite entries, and NaN comes only after the last one."""
    track = track_of(case)
    found = np.isfinite(track.frequencies)
    npt.assert_array_equal(found, np.isfinite(track.bandwidths))
    npt.assert_array_equal(found, np.logical_and.accumulate(found, axis=1))
    npt.assert_array_equal(np.diff(track.frequencies, axis=1) > 0, found[:, 1:])
    if case == "repeated_roots":
        assert found[0].sum() == 2 and not found[1].any()


def test_config_properties():
    assert LPC_ORDER == 10
    assert ANALYSIS_RATE == 11000
