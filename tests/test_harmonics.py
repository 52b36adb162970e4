import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timbrekit.audio import SynthSpec, synth
from timbrekit.harmonics import (
    TILT_NAMES,
    correction_db,
    harmonic_levels,
    magnitude_spectrum,
    rms_energy,
    tilt_measures,
)
from timbrekit.testkit import dft_amplitude_oracle

SR = 16000


def comb_window(amplitudes, f0=200.0, n=640, phase=0.0):
    """Sum of cosines at multiples of f0 with the given amplitudes."""
    t = np.arange(n) / SR
    x = np.zeros(n)
    for k, a in enumerate(amplitudes, start=1):
        x += a * np.cos(2 * np.pi * k * f0 * t + phase)
    return x


def one_frame(*formants):
    """(frequencies, bandwidths), each [1 x K], from (frequency, bandwidth) pairs."""
    pairs = np.array(formants, dtype=np.float64).reshape(1, -1, 2)
    return pairs[..., 0], pairs[..., 1]


def correction(freq, *formants):
    """correction_db of one row at `freq` from (frequency, bandwidth) pairs."""
    return correction_db(np.array([freq]), *one_frame(*formants), SR)[0]


def column(tilt, name):
    return tilt[:, TILT_NAMES.index(name)]


# Correction terms vanish as the pole radius goes to zero, so formants
# with enormous bandwidths stand in for "no vocal-tract influence".
NULL_FORMANTS = one_frame((500.0, 50.0 * SR), (1500.0, 50.0 * SR))


class TestMagnitudeSpectrum:
    def test_dc_concentration(self):
        spec = magnitude_spectrum(np.ones(640), SR)
        assert int(np.argmax(spec.magnitudes)) == 0

    def test_sine_peak_within_one_bin(self):
        x = comb_window([1.0], f0=1000.0)
        spec = magnitude_spectrum(x, SR)
        assert spec.fft_size == 4096
        peak_freq = spec.frequencies[int(np.argmax(spec.magnitudes))]
        assert abs(peak_freq - 1000.0) <= spec.sample_rate / spec.fft_size

    def test_parseval(self):
        rng = np.random.default_rng(5)
        x = rng.normal(0, 0.3, 640)
        spec = magnitude_spectrum(x, SR)
        windowed = x * np.hanning(x.size)
        full = np.concatenate([spec.magnitudes[0], spec.magnitudes[0, -2:0:-1]])
        lhs = np.sum(full**2) / spec.fft_size
        rhs = np.sum(windowed**2)
        assert abs(lhs - rhs) / rhs < 0.01

    def test_empty_window(self):
        with pytest.raises(ValueError):
            magnitude_spectrum(np.array([]), SR)


class TestHarmonicAmplitude:
    def test_matches_dft_oracle(self):
        x = comb_window([1.0])
        spec = magnitude_spectrum(x, SR)
        levels, _ = harmonic_levels(spec, np.array([[200.0]]), np.array([200.0]))
        want = dft_amplitude_oracle(x, 200.0, SR)
        assert levels[0, 0] == pytest.approx(want, abs=0.2)

    def test_two_tone_difference(self):
        x = comb_window([1.0, 0.1])
        spec = magnitude_spectrum(x, SR)
        levels, _ = harmonic_levels(spec, np.array([[200.0, 400.0]]), np.array([200.0]))
        h1, h2 = levels[0]
        assert h1 - h2 == pytest.approx(20.0, abs=0.5)

    def test_nyquist_bound(self):
        spec = magnitude_spectrum(comb_window([1.0]), SR)
        levels, _ = harmonic_levels(spec, np.array([[7900.0, 8100.0]]), np.array([200.0]))
        assert not np.isnan(levels[0, 0])
        assert np.isnan(levels[0, 1])

    def test_snaps_to_nearest_harmonic(self):
        # target 2000 with f0=300 must measure harmonic 7 (2100 Hz)
        x = comb_window([1.0] * 6 + [0.1] + [1.0] * 10, f0=300.0)
        spec = magnitude_spectrum(x, SR)
        levels, _ = harmonic_levels(spec, np.array([[2000.0]]), np.array([300.0]))
        want = dft_amplitude_oracle(x, 2100.0, SR)
        assert levels[0, 0] == pytest.approx(want, abs=0.5)


class TestFormantCorrection:
    def test_far_below_narrow_formant_is_small(self):
        term = correction(100.0, (3000.0, 50.0))
        assert abs(term) < 1.0

    def test_at_peak_exceeds_10db(self):
        term = correction(500.0, (500.0, 80.0))
        assert term > 10.0

    def test_vanishes_as_radius_shrinks(self):
        term = correction(500.0, (500.0, 50.0 * SR))
        assert abs(term) < 1e-6

    def test_additive_and_order_independent(self):
        formants = [(500.0, 80.0), (1500.0, 100.0), (2500.0, 150.0)]
        total = correction(700.0, *formants)
        parts = sum(correction(700.0, f) for f in formants)
        assert total == pytest.approx(parts, rel=1e-12)
        assert correction(700.0, *formants[::-1]) == pytest.approx(total, rel=1e-12)

    def test_rows_and_nan_formants(self):
        freqs = np.array([[500.0, 1500.0], [500.0, np.nan]])
        bws = np.array([[80.0, 100.0], [80.0, np.nan]])
        terms = correction_db(np.array([700.0, 700.0]), freqs, bws, SR)
        assert terms[0] == pytest.approx(correction(700.0, (500.0, 80.0), (1500.0, 100.0)), rel=1e-12)
        assert terms[1] == pytest.approx(correction(700.0, (500.0, 80.0)), rel=1e-12)


class TestTiltMeasures:
    def test_flat_comb_no_correction_all_zero(self):
        x = comb_window([1.0] * 30)
        spec = magnitude_spectrum(x, SR)
        tilt = tilt_measures(spec, 200.0, *NULL_FORMANTS)
        assert tilt.shape == (1, len(TILT_NAMES))
        np.testing.assert_allclose(tilt[0], 0.0, atol=0.5)

    def test_sawtooth_rolloff(self):
        x = comb_window([1.0 / k for k in range(1, 31)])
        spec = magnitude_spectrum(x, SR)
        tilt = tilt_measures(spec, 200.0, *NULL_FORMANTS)
        assert column(tilt, "h1_h2")[0] == pytest.approx(20 * np.log10(2.0), abs=0.5)

    def test_missing_formants_all_none(self):
        spec = magnitude_spectrum(comb_window([1.0] * 10), SR)
        tilt = tilt_measures(spec, 200.0, *one_frame((500.0, 80.0), (np.nan, np.nan)))
        assert np.all(np.isnan(tilt))

    def test_missing_f1_alone_blanks_the_row(self):
        """A row is blanked when any correcting formant is missing, not only F2."""
        spec = magnitude_spectrum(comb_window([1.0] * 10), SR)
        tilt = tilt_measures(spec, 200.0, *one_frame((np.nan, np.nan), (1500.0, 100.0)))
        assert np.all(np.isnan(tilt))

    def test_scaling_invariance(self):
        x = comb_window([1.0 / k for k in range(1, 31)])
        formants = one_frame((500.0, 80.0), (1500.0, 100.0))
        a = tilt_measures(magnitude_spectrum(x, SR), 200.0, *formants)
        b = tilt_measures(magnitude_spectrum(x * 7.3, SR), 200.0, *formants)
        for name in ("h1_h2", "h2k_h5k"):
            assert column(a, name)[0] == pytest.approx(column(b, name)[0], abs=1e-9)


class TestRms:
    def test_unit_sine_whole_periods(self):
        x = comb_window([1.0], f0=200.0, n=640)  # 8 whole periods
        assert rms_energy(x)[0] == pytest.approx(1 / np.sqrt(2), abs=1e-6)

    def test_zeros(self):
        assert rms_energy(np.zeros(100))[0] == 0.0

    def test_constant(self):
        assert rms_energy(np.full(100, 0.5))[0] == 0.5

    def test_empty_window(self):
        with pytest.raises(ValueError, match="empty window"):
            rms_energy(np.zeros((3, 0)))

    @given(scale=st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=20, deadline=None)
    def test_homogeneity(self, scale):
        x = np.sin(np.arange(640) * 0.21) * 0.3
        assert rms_energy(x * scale)[0] == pytest.approx(scale * rms_energy(x)[0], rel=1e-12)


def test_oracle_agreement_on_synthetic_voice():
    """Every H measure matches the single-bin DFT oracle within 0.5 dB."""
    buf = synth(SynthSpec(kind="mixture", f0=200.0, duration=0.5, tilt_db_per_octave=-6.0, seed=3))
    x = buf.samples[2000:2640]
    spec = magnitude_spectrum(x, SR)
    targets = (200.0, 400.0, 800.0, 2000.0, 5000.0)
    levels, _ = harmonic_levels(spec, np.array([targets]), np.array([200.0]))
    for target, got in zip(targets, levels[0]):
        harmonic = max(1, round(target / 200.0)) * 200.0
        want = dft_amplitude_oracle(x, harmonic, SR)
        assert got == pytest.approx(want, abs=0.5)
