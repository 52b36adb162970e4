import json
import tracemalloc

import numpy as np
import pytest
from click.testing import CliRunner

from timbrekit.audio import SynthSpec, frame_times, synth
from timbrekit import formants
from timbrekit.cli import main

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
    return frame_times(buf, formants.WINDOW)


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


def run_protocol(root, out, jobs=2):
    """The shipped pipeline on root/wav/*.wav and root/manifest.jsonl; returns eval's report.

    Runs `extract --kind acoustic --jobs <jobs>`, `train` with its defaults
    and `eval --out`, in process, and writes features.csv, model.json and
    report.json into the directory `out`. A command that fails fails the
    test with its error line.
    """
    table, model, report = out / "features.csv", out / "model.json", out / "report.json"
    manifest = ["--manifest", str(root / "manifest.jsonl"), "--features", str(table)]
    for args in (["extract", str(root / "wav"), "--kind", "acoustic", "--jobs", str(jobs), "--out", str(table)],
                 ["train", *manifest, "--out", str(model)],
                 ["eval", *manifest, "--model", str(model), "--out", str(report)]):
        result = CliRunner().invoke(main, args, catch_exceptions=False)
        assert result.exit_code == 0, result.output
    return json.loads(report.read_text())
