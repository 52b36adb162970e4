"""Release gate: every criterion prints one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. The corpus round trip (synthesis, extraction, training) is built
once per session and shared.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import VOICE_FORMANTS, formant_grid, middle_slice, run_protocol
from timbrekit import diffnet as dn
from timbrekit import evaluation as ev
from timbrekit.audio import AudioBuffer, SynthSpec, resample, synth, write_wav
from timbrekit.features import FEATURE_NAMES, FeatureTable, extract_track, extract_vector, read_features
from timbrekit.formants import formant_track
from timbrekit.harmonics import harmonic_levels, magnitude_spectrum
from timbrekit.manifest import read_manifest
from timbrekit.noise_metrics import cpp_from_spectrum, shr
from timbrekit.pitch import pitch_track
from timbrekit.testkit import (
    CORPUS_DESCRIPTORS,
    build_timbre_corpus,
    cepstral_peak_reference,
    dft_amplitude_oracle,
    eer_oracle,
)

SR = 16000
CORPUS_SEED = 7
CORPUS_SIZE = 120

PLANTED_FEATURE = {"higher": "mean_f0", "rougher": "mean_shr"}
TILT_FEATURES = {f"{p}_{n}" for p in ("mean", "cov") for n in ("h1_h2", "h2_h4", "h4_h2k", "h2k_h5k")}


def conclude(name, checks):
    failed = [label for label, ok in checks.items() if not ok]
    status = "PASS" if not failed else "FAIL (" + ", ".join(failed) + ")"
    print(f"\nACCEPTANCE {name}: {status}")
    assert not failed, f"{name}: failing checks {failed}"


@pytest.fixture(scope="session")
def corpus_run():
    """Synthesize the corpus, extract every voice, train one model per descriptor."""
    corpus = build_timbre_corpus(seed=CORPUS_SEED, size=CORPUS_SIZE, pairs_per_descriptor=1500)
    features = FeatureTable(
        {v.utt_id: extract_vector(synth(v.spec)).values for v in corpus.voices}, FEATURE_NAMES
    )
    models = {}
    train = corpus.split_pairs("train")
    for descriptor in CORPUS_DESCRIPTORS:
        pairs = train.take(train.descriptor == descriptor)
        model, _ = dn.train(pairs, features, dn.TrainConfig(seed=11, learning_rate=3e-3))
        models[descriptor] = model
    return corpus, features, models


def test_dsp_oracle_suite():
    started = time.monotonic()
    checks = {}

    # pitch: pulse trains at four fundamentals, 3% on at least 90% of frames
    for f0 in (100.0, 150.0, 200.0, 300.0):
        track = pitch_track(synth(SynthSpec(kind="pulse_train", f0=f0, duration=1.0)))
        voiced = track.voiced
        within = np.abs(track.f0[voiced] - f0) <= 0.03 * f0
        checks[f"pitch_{int(f0)}"] = voiced.mean() >= 0.90 and within.mean() >= 0.90

    # formants: 3% median error on 4-resonance voiced-source signals
    for f0 in (110.0, 140.0):
        spec = SynthSpec(kind="mixture", f0=f0, duration=1.0, formants=VOICE_FORMANTS,
                         tilt_db_per_octave=-6.0, noise_gain=0.004, seed=int(f0))
        buf = synth(spec)
        frames = formant_track(buf, formant_grid(buf))
        for k, truth in enumerate((500.0, 1500.0, 2500.0, 3500.0), start=1):
            values = frames.frequencies[:, k - 1]
            err = abs(np.median(values[np.isfinite(values)]) - truth) / truth
            checks[f"formant_f{k}_at_{int(f0)}"] = err <= 0.03

    # harmonic amplitudes against the direct-DFT oracle
    buf = synth(SynthSpec(kind="mixture", f0=200.0, duration=0.5, tilt_db_per_octave=-6.0, seed=3))
    x = middle_slice(buf)
    spectrum = magnitude_spectrum(x, SR)
    targets = (200.0, 400.0, 800.0, 2000.0, 5000.0)
    levels, _ = harmonic_levels(spectrum, np.array([targets]), np.array([200.0]))
    for target, got in zip(targets, levels[0]):
        harmonic = max(1, round(target / 200.0)) * 200.0
        want = dft_amplitude_oracle(x, harmonic, SR)
        checks[f"harmonic_{int(target)}"] = abs(got - want) <= 0.5

    # CPP contrast across 20 seeds, by the full-cepstrum oracle, which the
    # shipped CPP (its cepstrum through audio.irfft_columns) must match on
    # every slice
    slices = []
    for seed in range(20):
        pulses = synth(SynthSpec(kind="pulse_train", f0=100.0 + 10 * seed, duration=0.5))
        noise = synth(SynthSpec(kind="white_noise", duration=0.5, seed=seed))
        slices += [middle_slice(pulses), middle_slice(noise)]
    block = magnitude_spectrum(np.array(slices), SR)
    _, oracle = cepstral_peak_reference(block)
    checks["cpp_contrast_20_seeds"] = min(oracle[0::2] - oracle[1::2]) > 5.0
    checks["cpp_matches_oracle"] = np.allclose(cpp_from_spectrum(block), oracle, rtol=0, atol=1e-9)

    # SHR: monotone in subharmonic gain; -20 dB at gain 0.1
    values = []
    for gain in (0.0, 0.05, 0.1, 0.3, 1.0):
        mix = synth(SynthSpec(kind="mixture", f0=200.0, duration=0.5, subharmonic_gain=gain, seed=6))
        values.append(shr(magnitude_spectrum(middle_slice(mix), SR), 200.0)[0])
    checks["shr_monotone"] = all(b >= a for a, b in zip(values, values[1:]))
    mix = synth(SynthSpec(kind="mixture", f0=200.0, duration=0.5, subharmonic_gain=0.1, seed=1))
    checks["shr_minus20_at_gain_0.1"] = abs(
        shr(magnitude_spectrum(middle_slice(mix), SR), 200.0)[0] + 20.0
    ) <= 1.0

    elapsed = time.monotonic() - started
    checks["runtime_under_60s"] = elapsed < 60.0
    print(f"\n  dsp oracle suite took {elapsed:.1f} s")
    conclude("dsp-oracle-suite", checks)


def test_numerical_correctness():
    checks = {}

    # analytic gradients vs central differences over every parameter group
    rng = np.random.default_rng(42)
    config = dn.TrainConfig(hidden_dim=8, dropout=0.0)
    model = dn.init_model(tuple(f"f{i}" for i in range(5)), ("x", "y", "z"), config, rng)
    model.feature_weights[:] = rng.normal(1.0, 0.2, 5)
    model.beta[:] = rng.normal(0, 0.2, 8)
    model.gamma[:] = rng.normal(1.0, 0.2, 8)
    model.b2[:] = rng.normal(0, 0.2, 3)
    x = rng.normal(0, 1, (5, 10))
    desc_idx = np.array([0, 1, 2, 0, 1])
    targets = np.array([0.0, 1.0, 0.0, 1.0, 1.0])
    _, cache = dn.forward(model, x, mode="train")
    grads = dn.backward(model, cache, desc_idx, targets)
    h = 1e-5
    worst = 0.0
    for name, param in model.parameter_groups().items():
        it = np.nditer(param, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = param[idx]
            param[idx] = orig + h
            up, _ = dn.forward(model, x, mode="train")
            param[idx] = orig - h
            down, _ = dn.forward(model, x, mode="train")
            param[idx] = orig
            fd = (dn.batch_loss(up, desc_idx, targets) - dn.batch_loss(down, desc_idx, targets)) / (2 * h)
            worst = max(worst, abs(grads[name][idx] - fd) / max(1e-6, abs(grads[name][idx]), abs(fd)))
    checks["gradients_match_fd"] = worst < 1e-4
    print(f"\n  worst gradient relative error: {worst:.2e}")

    # extraction determinism, bitwise
    buf = synth(SynthSpec(kind="resonated_pulses", f0=120.0, duration=0.7, formants=VOICE_FORMANTS))
    a, b = extract_track(buf), extract_track(buf)
    checks["extraction_bitwise"] = (
        np.array_equal(a.values, b.values, equal_nan=True) and np.array_equal(a.voiced, b.voiced)
    )

    # training determinism, bitwise
    rng = np.random.default_rng(0)
    ids = [f"u{i}" for i in range(30)]
    feats = FeatureTable({u: rng.normal(0, 1, 26) for u in ids}, FEATURE_NAMES)
    pairs = []
    for _ in range(300):
        i, j = rng.choice(30, 2, replace=False)
        label = dn.A_STRONGER if feats[ids[i]][0] > feats[ids[j]][0] else dn.B_STRONGER
        pairs.append(dn.PairRecord(ids[i], ids[j], "d", label))
    m1, _ = dn.train(pairs, feats, dn.TrainConfig(seed=5, epochs=5))
    m2, _ = dn.train(pairs, feats, dn.TrainConfig(seed=5, epochs=5))
    checks["training_bitwise"] = all(
        np.array_equal(getattr(m1, k), getattr(m2, k)) for k in m1.parameter_groups()
    ) and np.array_equal(m1.running_mean, m2.running_mean)

    conclude("numerical-correctness", checks)


def test_metric_oracles():
    checks = {}
    rng = np.random.default_rng(12)

    scores = rng.uniform(0, 1, 1000)
    labels = rng.random(1000) < 0.5
    scored = ev.ScoredColumns(scores, labels)
    fast = ev.eer(scored)
    slow = eer_oracle(scores.tolist(), labels.tolist())
    checks["eer_equals_enumeration"] = abs(fast - slow) <= 1e-12

    separated = ev.ScoredColumns(np.array([0.1, 0.2, 0.8, 0.9]), np.array([False, False, True, True]))
    checks["separated_eer_0"] = ev.eer(separated) == 0.0
    checks["separated_acc_100"] = ev.accuracy(separated) == 100.0

    permuted_scores = rng.uniform(0, 1, 1500)
    permuted = ev.ScoredColumns(permuted_scores, np.array(
        [rng.choice([dn.A_STRONGER, dn.B_STRONGER]) == dn.B_STRONGER for _ in permuted_scores]
    ))
    accuracy = ev.accuracy(permuted)
    checks["permuted_labels_chance"] = 45.0 <= accuracy <= 55.0

    conclude("metric-oracles", checks)


def test_end_to_end_synthetic_comparison(corpus_run):
    corpus, features, models = corpus_run
    checks = {}
    test = corpus.split_pairs("test")
    for descriptor in CORPUS_DESCRIPTORS:
        pairs = test.take(test.descriptor == descriptor)
        model = models[descriptor]
        scores = dn.score_pairs(model, pairs, features)
        scored = ev.ScoredColumns(scores, pairs.b_stronger)
        accuracy = ev.accuracy(scored)
        error_rate = ev.eer(scored)
        ranked = [n for n, _ in sorted(dn.feature_importance(model), key=lambda kv: -abs(kv[1]))]
        if descriptor in PLANTED_FEATURE:
            planted_hit = PLANTED_FEATURE[descriptor] in ranked[:3]
        else:
            planted_hit = bool(TILT_FEATURES & set(ranked[:3]))
        print(
            f"\n  {descriptor}: acc {accuracy:.1f}%, eer {error_rate:.1f}%, top3 {ranked[:3]}"
        )
        checks[f"{descriptor}_acc>=90"] = accuracy >= 90.0
        checks[f"{descriptor}_eer<=10"] = error_rate <= 10.0
        checks[f"{descriptor}_planted_top3"] = planted_hit
    conclude("end-to-end-synthetic-pairs", checks)


def test_cost_reporting():
    checks = {}
    acoustic = ev.cost_report("acoustic")
    mfcc_report = ev.cost_report("mfcc")
    lfc_report = ev.cost_report("lfc")

    checks["extraction_params_0"] = acoustic.extraction_params == 0
    checks["ordering_lfc<mfcc<acoustic"] = (
        lfc_report.extraction_flops_per_second
        < mfcc_report.extraction_flops_per_second
        < acoustic.extraction_flops_per_second
    )
    target = 17.85e6
    checks["acoustic_within_3x_of_17.85M"] = (
        target / 3.0 <= acoustic.extraction_flops_per_second <= target * 3.0
    )
    ratio = acoustic.classifier_flops_per_pair / acoustic.classifier_params
    checks["classifier_ratio_1.8_2.2"] = 1.8 <= ratio <= 2.2
    print(
        f"\n  acoustic {acoustic.extraction_flops_per_second / 1e6:.1f} M flops/s, "
        f"mfcc {mfcc_report.extraction_flops_per_second / 1e6:.1f} M, "
        f"lfc {lfc_report.extraction_flops_per_second / 1e6:.1f} M, "
        f"classifier ratio {ratio:.2f}"
    )
    conclude("cost-reporting", checks)


def test_throughput():
    buf = synth(SynthSpec(kind="resonated_pulses", f0=120.0, duration=1.0, formants=VOICE_FORMANTS))
    extract_vector(buf)  # warm caches
    timings = []
    for _ in range(3):
        start = time.monotonic()
        extract_vector(buf)
        timings.append(time.monotonic() - start)
    best = min(timings)
    print(f"\n  1 s of audio extracted in {best * 1000:.1f} ms")
    conclude("throughput", {"under_100ms_per_second_of_audio": best < 0.100})


@pytest.mark.skipif(
    "VCTK_RVA_DIR" not in os.environ,
    reason="conditional criterion: set VCTK_RVA_DIR to a directory with wav/ and manifest.jsonl",
)
def test_vctk_rva_conditional(tmp_path):
    """Full-dataset criterion, runs only when the external corpus is supplied.

    Expects $VCTK_RVA_DIR/wav/*.wav and $VCTK_RVA_DIR/manifest.jsonl in the
    documented manifest format with train/test splits, and runs the shipped
    pipeline on them (run_protocol: extract, train with its defaults, eval).
    """
    report = run_protocol(Path(os.environ["VCTK_RVA_DIR"]), tmp_path)
    accuracy, error_rate = report["accuracy"], report["eer"]
    print(f"\n  unseen split: acc {accuracy:.2f}%, eer {error_rate:.2f}%")
    conclude(
        "vctk-rva-conditional",
        {
            "acc_within_3_of_82.87": abs(accuracy - 82.87) <= 3.0,
            "eer_within_3_of_17.21": abs(error_rate - 17.21) <= 3.0,
        },
    )


def write_stand_in(root, seed):
    """A directory in the conditional test's layout, from build_timbre_corpus(seed, 60).

    wav/ holds the 60 voices resampled to 48 kHz as 16-bit WAVs, and
    manifest.jsonl their pairs over the three corpus descriptors, 600 train
    and 200 test pairs each.
    """
    corpus = build_timbre_corpus(seed, 60, pairs_per_descriptor=600)
    (root / "wav").mkdir(parents=True)
    for voice in corpus.voices:
        write_wav(root / "wav" / f"{voice.utt_id}.wav", resample(synth(voice.spec), 48000))
    with (root / "manifest.jsonl").open("w") as fh:
        pairs = corpus.pairs
        for utt_a, utt_b, descriptor, b_stronger in zip(pairs.utt_a, pairs.utt_b, pairs.descriptor, pairs.b_stronger):
            label = dn.B_STRONGER if b_stronger else dn.A_STRONGER
            fh.write(json.dumps({"utt_a": utt_a, "utt_b": utt_b, "descriptor": descriptor,
                                 "label": label, "split": corpus.splits[utt_a]}) + "\n")


def test_protocol_on_a_48k_stand_in(tmp_path):
    """The conditional test's pipeline, run on synthetic 48 kHz voices with --jobs 1 and --jobs 2.

    Checks pipeline facts only; the stand-in's numbers are not the paper's.
    Its test accuracy, over seeds 3-8, was 97.5, 85.3, 90.2, 86.3, 97.3 and
    91.5 %; the floor sits under the worst of them, and the test runs that
    seed, 4.
    """
    root = tmp_path / "stand_in"
    write_stand_in(root, seed=4)
    outs = [tmp_path / "jobs1", tmp_path / "jobs2"]
    reports = []
    for jobs, out in enumerate(outs, 1):
        out.mkdir()
        reports.append(run_protocol(root, out, jobs))
    for name in ("features.csv", "model.json", "report.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    report = reports[0]
    assert sorted(report) == ["accuracy", "eer", "far_frr", "pairs", "per_descriptor", "split"]
    assert (report["split"], report["pairs"]) == ("test", 600)
    assert sorted(report["per_descriptor"]) == sorted(CORPUS_DESCRIPTORS)
    for entry in report["per_descriptor"].values():
        assert sorted(entry) == ["accuracy", "eer", "pairs"] and entry["pairs"] == 200

    pairs = read_manifest(root / "manifest.jsonl").split_pairs("test")
    model = dn.load_checkpoint(outs[0] / "model.json")
    scores = dn.score_pairs(model, pairs, read_features(outs[0] / "features.csv"))
    scored = ev.ScoredColumns(scores, pairs.b_stronger)
    assert (report["accuracy"], report["eer"]) == (ev.accuracy(scored), ev.eer(scored))
    assert report["accuracy"] >= 80.0
