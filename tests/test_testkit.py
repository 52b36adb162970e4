import numpy as np
import numpy.testing as npt
import pytest

from timbrekit.audio import SynthSpec, synth
from timbrekit.diffnet import A_STRONGER
from timbrekit.testkit import (
    CORPUS_DESCRIPTORS,
    build_timbre_corpus,
    dft_amplitude_oracle,
    eer_oracle,
    reflections_from_lpc,
)


class TestDftOracle:
    def test_off_frequency_leakage_floor(self):
        buf = synth(SynthSpec(kind="sine", f0=200.0, duration=0.5, amplitude=1.0))
        x = buf.samples[:640]
        on = dft_amplitude_oracle(x, 200.0, 16000)
        off = dft_amplitude_oracle(x, 1000.0, 16000)
        assert on - off >= 40.0

    def test_zero_signal_clamped(self):
        assert dft_amplitude_oracle(np.zeros(640), 100.0, 16000) == -120.0

    def test_frequency_above_nyquist_rejected(self):
        with pytest.raises(ValueError):
            dft_amplitude_oracle(np.ones(64), 9000.0, 16000)


class TestEerOracle:
    def test_separated(self):
        assert eer_oracle([0.1, 0.2, 0.8, 0.9], [False, False, True, True]) == 0.0

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            eer_oracle([0.5, 0.6], [True, True])


class TestReflectionsFromLpc:
    def test_hand_built_second_order_model(self):
        # Step-up from k = (0.5, -0.3): a = (0.5,), then (0.5 + (-0.3)(0.5), -0.3).
        npt.assert_allclose(reflections_from_lpc([0.35, -0.3]), [0.5, -0.3], rtol=1e-12)


class TestCorpus:
    def test_labels_exact_by_construction(self):
        corpus = build_timbre_corpus(seed=1, size=20, pairs_per_descriptor=40)
        truth = {v.utt_id: v.truth for v in corpus.voices}
        for pair in corpus.pairs:
            knob = CORPUS_DESCRIPTORS[pair.descriptor]
            stronger_is_a = truth[pair.utt_a][knob] > truth[pair.utt_b][knob]
            assert (pair.label == A_STRONGER) == stronger_is_a

    def test_same_seed_identical(self):
        a = build_timbre_corpus(seed=5, size=12, pairs_per_descriptor=20)
        b = build_timbre_corpus(seed=5, size=12, pairs_per_descriptor=20)
        assert [v.spec for v in a.voices] == [v.spec for v in b.voices]
        assert a.pairs == b.pairs

    def test_split_disjoint_and_pairs_within_split(self):
        corpus = build_timbre_corpus(seed=2, size=15, pairs_per_descriptor=30)
        train_ids = {u for u, s in corpus.splits.items() if s == "train"}
        test_ids = {u for u, s in corpus.splits.items() if s == "test"}
        assert not (train_ids & test_ids)
        for pair in corpus.pairs:
            assert corpus.splits[pair.utt_a] == corpus.splits[pair.utt_b]

    def test_size_validation(self):
        with pytest.raises(ValueError):
            build_timbre_corpus(seed=0, size=1)

    @pytest.mark.parametrize("size", [2, 3, 4, 5])
    def test_split_with_one_voice_rejected(self, size):
        with pytest.raises(ValueError, match="smallest usable size is 6"):
            build_timbre_corpus(seed=0, size=size, pairs_per_descriptor=5)

    def test_smallest_usable_size_builds(self):
        corpus = build_timbre_corpus(seed=0, size=6, pairs_per_descriptor=5)
        assert sorted(corpus.splits.values()).count("test") == 2
        assert {corpus.splits[p.utt_a] for p in corpus.pairs} == {"train", "test"}
