"""README's code runs against the package as it is."""

import re
from pathlib import Path

import numpy as np

from conftest import VOICE_FORMANTS
from timbrekit import diffnet as dn
from timbrekit.audio import SynthSpec, synth, write_wav
from timbrekit.features import write_features
from timbrekit.manifest import ManifestRecord, write_manifest

README = Path(__file__).resolve().parents[1] / "README.md"


def library_block() -> str:
    """The first python block after README's `## Library` heading."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("\n## Library\n"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_block_runs(tmp_path, monkeypatch, capsys):
    """voice.wav, features.csv and pairs.jsonl are written first; both labels occur in the test split."""
    monkeypatch.chdir(tmp_path)
    write_wav("voice.wav", synth(SynthSpec(kind="mixture", f0=140.0, duration=1.0, formants=VOICE_FORMANTS,
                                           tilt_db_per_octave=-6.0, noise_gain=0.005, seed=1)))
    rng = np.random.default_rng(0)
    ids = [f"spk{i:02d}_001" for i in range(12)]
    write_features("features.csv", [(u, rng.normal(0, 1, 26), 90) for u in ids], "acoustic")
    records = [
        ManifestRecord(dn.PairRecord(ids[i], ids[j], "Bright", "AB"[(i + j) % 2]), "train" if i < 8 else "test")
        for i in range(12) for j in range(12) if (i < 8) == (j < 8) and i != j
    ]
    write_manifest("pairs.jsonl", records)

    namespace = {}
    exec(compile(library_block(), str(README), "exec"), namespace)
    accuracy, eer = map(float, capsys.readouterr().out.split())
    assert 0.0 <= accuracy <= 100.0 and 0.0 <= eer <= 100.0
    assert namespace["vector"].values.shape == (26,)
    assert namespace["track"].voiced.sum() == namespace["vector"].frames
