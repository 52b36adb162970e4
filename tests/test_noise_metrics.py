import numpy as np
import pytest

from conftest import middle_slice
from timbrekit.audio import SynthSpec, synth
from timbrekit.harmonics import magnitude_spectrum
from timbrekit.noise_metrics import cpp_from_spectrum, shr
from timbrekit.testkit import cepstral_peak_reference

SR = 16000


def cpp(x):
    """The shipped CPP (dB) of one slice of raw samples."""
    return cpp_from_spectrum(magnitude_spectrum(x, SR))[0]


def peak_quefrency(x):
    """Quefrency (s) of one slice's cepstral peak, by the oracle; its reciprocal estimates f0."""
    return cepstral_peak_reference(magnitude_spectrum(x, SR))[0][0]


class TestCpp:
    def test_pulse_train_peak_and_prominence(self, pulse_train_100):
        x = middle_slice(pulse_train_100)
        assert peak_quefrency(x) == pytest.approx(0.010, abs=0.0002)
        assert cpp(x) > 10.0

    def test_noise_well_below_pulse(self):
        # The OLS trend line sits low on a log-magnitude cepstrum (the log's
        # negative tails drag it down), so seeded noise reads ~14 dB here,
        # far below any pulse train but above naive expectations.
        noise = synth(SynthSpec(kind="white_noise", duration=0.5, seed=11))
        assert cpp(middle_slice(noise)) < 20.0

    def test_contrast_across_20_seeds(self):
        for seed in range(20):
            pulses = synth(SynthSpec(kind="pulse_train", f0=100.0 + 10 * seed, duration=0.5))
            noise = synth(SynthSpec(kind="white_noise", duration=0.5, seed=seed))
            contrast = cpp(middle_slice(pulses)) - cpp(middle_slice(noise))
            assert contrast > 5.0

    @pytest.mark.parametrize("f0", [80.0, 150.0, 250.0, 400.0])
    def test_peak_quefrency_tracks_f0(self, f0):
        buf = synth(SynthSpec(kind="pulse_train", f0=f0, duration=0.5))
        q = peak_quefrency(middle_slice(buf))
        assert abs(q - 1.0 / f0) * f0 < 0.05

    def test_amplitude_invariance(self, pulse_train_100):
        x = middle_slice(pulse_train_100)
        assert abs(cpp(x) - cpp(x * 3.7)) < 1e-6

    def test_zero_window(self):
        assert np.isnan(cpp(np.zeros(640)))

    def test_search_range_empty_at_a_low_rate(self):
        # At 500 Hz the 1/500 s quefrency floor is one bin, under the two the search needs.
        x = np.random.default_rng(0).uniform(-1.0, 1.0, 64)
        with pytest.raises(ValueError, match="quefrency search range is empty at this sample rate"):
            cpp_from_spectrum(magnitude_spectrum(x, 500))


class TestShr:
    def test_pure_comb_clamps_to_floor(self):
        buf = synth(SynthSpec(kind="mixture", f0=200.0, duration=0.5, seed=1))
        spec = magnitude_spectrum(middle_slice(buf), SR)
        assert shr(spec, 200.0)[0] == -30.0

    def test_period_doubled_equal_combs(self):
        buf = synth(SynthSpec(kind="mixture", f0=200.0, duration=0.5, subharmonic_gain=1.0, seed=1))
        spec = magnitude_spectrum(middle_slice(buf), SR)
        assert shr(spec, 200.0)[0] == pytest.approx(0.0, abs=1.0)

    def test_tenth_amplitude_subharmonics(self):
        buf = synth(SynthSpec(kind="mixture", f0=200.0, duration=0.5, subharmonic_gain=0.1, seed=1))
        spec = magnitude_spectrum(middle_slice(buf), SR)
        assert shr(spec, 200.0)[0] == pytest.approx(-20.0, abs=1.0)

    def test_monotone_in_subharmonic_gain(self):
        values = []
        for gain in (0.0, 0.05, 0.1, 0.3, 1.0):
            buf = synth(SynthSpec(kind="mixture", f0=200.0, duration=0.5,
                                  subharmonic_gain=gain, seed=6))
            values.append(shr(magnitude_spectrum(middle_slice(buf), SR), 200.0)[0])
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert values[-1] > values[0]

    def test_amplitude_invariance(self):
        buf = synth(SynthSpec(kind="mixture", f0=180.0, duration=0.5, subharmonic_gain=0.2, seed=2))
        x = middle_slice(buf)
        a = shr(magnitude_spectrum(x, SR), 180.0)[0]
        b = shr(magnitude_spectrum(x * 11.0, SR), 180.0)[0]
        assert a == pytest.approx(b, abs=1e-9)

    @pytest.mark.parametrize("f0", [0.0, -100.0])
    def test_f0_must_be_positive(self, f0):
        with pytest.raises(ValueError, match="f0 must be positive"):
            shr(magnitude_spectrum(np.ones(640), SR), [200.0, f0])

    def test_too_few_harmonics(self):
        spec = magnitude_spectrum(np.ones(640), SR)
        assert np.isnan(shr(spec, 7000.0)[0])
