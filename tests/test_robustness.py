"""Metamorphic checks of the acoustic vector: a known change to the input, and what each column does.

The voices are the 24 of build_timbre_corpus(3, 24). Every bound below was
measured on them first and is stated with its measured worst case.
"""

import numpy as np
import pytest

from timbrekit.audio import AudioBuffer, synth
from timbrekit.features import FEATURE_NAMES, MEASURE_NAMES, FrameTrack, aggregate, extract_track
from timbrekit.testkit import build_timbre_corpus

GAIN = 0.05
RMS = FEATURE_NAMES.index("mean_rms")
N_MEANS = len(MEASURE_NAMES)


@pytest.fixture(scope="module")
def tracks():
    """(track, track of the same samples scaled by GAIN) of each voice, with no WAV round trip."""
    pairs = []
    for voice in build_timbre_corpus(3, 24).voices:
        buf = synth(voice.spec)
        quiet = AudioBuffer(buf.samples * GAIN, buf.sample_rate)
        pairs.append((extract_track(buf), extract_track(quiet)))
    return pairs


def relative(got, want):
    return np.abs(got - want) / np.abs(want)


class TestGain:
    def test_columns_but_mean_rms_do_not_move(self, tracks):
        """Measured worst: 1.8e-8 on the means (mean_h2k_h5k), 1.41e-7 on the CoVs (cov_rms).

        Not exact because of two absolute guards: harmonics._DB_GUARD under
        the tilt levels' logarithm, and features._COV_EPSILON in the CoV's
        denominator, which weighs 20x more against the quieter mean_rms.
        """
        for loud, quiet in tracks:
            assert np.array_equal(loud.voiced, quiet.voiced)
            want, got = aggregate(loud).values, aggregate(quiet).values
            means = np.delete(relative(got[:N_MEANS], want[:N_MEANS]), RMS)
            assert means.max() <= 2e-8
            assert relative(got[N_MEANS:], want[N_MEANS:]).max() <= 1.5e-7

    def test_mean_rms_scales_with_the_gain(self, tracks):
        """Measured worst: 3.9e-16 relative, under 2 ulp."""
        for loud, quiet in tracks:
            want = GAIN * aggregate(loud).values[RMS]
            assert relative(aggregate(quiet).values[RMS], want) <= 1e-15


def test_aggregate_ignores_frame_order(tracks):
    """Mean and CoV pool without regard to order, so shuffled rows move only the summation's rounding.

    Measured worst over 50 shuffles of each of the 24 tracks: 8.7e-16 relative.
    """
    rng = np.random.default_rng(14)
    for track, _ in tracks:
        order = rng.permutation(len(track.times))
        shuffled = FrameTrack(times=track.times[order], values=track.values[order])
        want = aggregate(track).values
        assert relative(aggregate(shuffled).values, want).max() <= 1e-15
