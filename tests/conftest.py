import tracemalloc

import numpy as np
import pytest

from timbrekit.audio import FrameSpec, SynthSpec, frame_times, synth
from timbrekit import formants

VOICE_FORMANTS = ((500.0, 80.0), (1500.0, 100.0), (2500.0, 150.0), (3500.0, 200.0))


@pytest.fixture
def pulse_train_100():
    return synth(SynthSpec(kind="pulse_train", f0=100.0, duration=1.0))


@pytest.fixture
def voiced_buffer():
    """A 4-resonance synthetic voice, the workhorse extraction input."""
    return synth(
        SynthSpec(
            kind="resonated_pulses", f0=120.0, duration=1.0, formants=VOICE_FORMANTS
        )
    )


def formant_grid(buf):
    """Centres (s) of the 25 ms formant windows every 10 ms that fit the buffer."""
    return frame_times(buf, FrameSpec(window=formants.WINDOW))


def middle_slice(buf, n=640, start=2000):
    return np.asarray(buf.samples[start : start + n])


def traced(fn):
    """(fn(), bytes it allocated and still holds, its peak bytes) as tracemalloc counts them.

    tracemalloc also sees numpy's array buffers; memory allocated before the
    call is not counted.
    """
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        if started:
            tracemalloc.stop()
    return result, current - base, peak - base
