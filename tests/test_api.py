"""The package's public surface stays importable and complete."""

import importlib
from pathlib import Path

import timbrekit


def test_all_exports_resolve():
    for name in timbrekit.__all__:
        assert getattr(timbrekit, name, None) is not None, name


def test_version_string():
    assert timbrekit.__version__.count(".") == 2


def test_benchmark_names_resolve(monkeypatch):
    """perfbench imports and wraps these by name; its smoke run pins their behaviour."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    importlib.import_module("corpora")  # PairRecord, ManifestRecord, write_manifest and more
    tracer = importlib.import_module("tracer")
    for module, name in tracer.TRACED:
        assert callable(getattr(importlib.import_module(f"timbrekit.{module}"), name, None)), f"{module}.{name}"


def test_tracer_reads_formant_tracks_and_training_forwards(monkeypatch):
    """What perfbench's tracer observes: empty formant frames by len(), and the mode of each forward."""
    import numpy as np

    from conftest import VOICE_FORMANTS
    from timbrekit import audio, cli, diffnet, formants  # noqa: F401  install wraps cli's commands
    from timbrekit.features import FeatureTable

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracer = importlib.import_module("tracer").Tracer()
    buf = audio.synth(audio.SynthSpec(kind="mixture", f0=120.0, duration=0.5, formants=VOICE_FORMANTS, seed=1))
    # Centres past 0.4875 s put the 25 ms window past the end of the buffer.
    centers = np.arange(0.0125, 0.7, 0.01)
    rng = np.random.default_rng(0)
    table = FeatureTable({f"u{i}": rng.normal(size=4) for i in range(12)}, ("a", "b", "c", "d"))
    pairs = [diffnet.PairRecord(f"u{i}", f"u{(i + 1) % 12}", "x", "A" if i % 2 else "B") for i in range(12)]
    tracer.install()
    try:
        track = formants.formant_track(buf, centers)
        diffnet.train(pairs, table, diffnet.TrainConfig(hidden_dim=8, batch_size=4, epochs=2))
    finally:
        tracer.uninstall()

    empty = np.isnan(track.frequencies).all(axis=1)
    assert tracer.counts["formants.frames"] == track.frequencies.shape[0] == centers.size
    assert tracer.counts["formants.empty"] == empty.sum()
    assert empty[centers > 0.4875].all() and not empty.all()
    names = [tracer.names[span[0]] for span in tracer.spans]
    # 2 epochs of 3 batches, all in train mode.
    assert [n for n in names if n.startswith("diffnet.forward")] == ["diffnet.forward.train"] * 6
