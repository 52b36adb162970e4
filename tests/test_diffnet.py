import csv
import dataclasses
import json
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from conftest import traced
from timbrekit import audio, diffnet as dn, testkit
from timbrekit.features import FEATURE_NAMES, FeatureTable, SchemaError, read_features, write_features

NAMES5 = tuple(f"f{i}" for i in range(5))


def dim_names(dim=26):
    """Column names for separable_task's feature vectors."""
    return tuple(f"dim_{i:02d}" for i in range(dim))


def small_model(seed=42, hidden=8, dropout=0.0, descriptors=("x", "y", "z")):
    rng = np.random.default_rng(seed)
    config = dn.TrainConfig(hidden_dim=hidden, dropout=dropout)
    model = dn.init_model(NAMES5, descriptors, config, rng)
    model.feature_weights[:] = rng.normal(1.0, 0.2, len(NAMES5))
    model.b1[:] = rng.normal(0, 0.3, hidden)
    model.beta[:] = rng.normal(0, 0.2, hidden)
    model.gamma[:] = rng.normal(1.0, 0.2, hidden)
    model.b2[:] = rng.normal(0, 0.2, len(descriptors))
    model.norm_mean[:] = rng.normal(0, 1, len(NAMES5))
    model.norm_std[:] = rng.uniform(0.5, 2, len(NAMES5))
    return model


TENSORS = ("feature_weights", "w1", "b1", "gamma", "beta", "running_mean", "running_var",
           "w2", "b2", "norm_mean", "norm_std")


def frozen(array):
    """A read-only copy: any write to it in place raises."""
    array = np.array(array)
    array.setflags(write=False)
    return array


def frozen_model(model):
    return dataclasses.replace(model, **{name: frozen(getattr(model, name)) for name in TENSORS})


def separable_task(n_pairs=2000, n_utts=60, dim=26, seed=0):
    """Pairs labeled by the sign of the dimension-0 difference, and a table whose columns are dim_names(dim)."""
    rng = np.random.default_rng(seed)
    ids = [f"u{i:03d}" for i in range(n_utts)]
    feats = FeatureTable({u: rng.normal(0, 1, dim) for u in ids}, dim_names(dim))
    pairs = []
    for _ in range(n_pairs):
        a, b = rng.choice(n_utts, 2, replace=False)
        label = dn.A_STRONGER if feats[ids[a]][0] > feats[ids[b]][0] else dn.B_STRONGER
        pairs.append(dn.PairRecord(ids[a], ids[b], "planted", label))
    return pairs, feats


class TestForward:
    def test_zero_head_gives_half(self):
        model = small_model()
        model.w2[:] = 0.0
        model.b2[:] = 0.0
        scores = dn.forward(model, np.random.default_rng(1).normal(0, 1, 10))
        npt.assert_array_equal(scores, np.full((1, 3), 0.5))

    def test_infer_deterministic_bitwise(self):
        model = small_model()
        x = np.random.default_rng(2).normal(0, 1, (4, 10))
        npt.assert_array_equal(dn.forward(model, x), dn.forward(model, x))

    def test_scores_strictly_inside_unit_interval(self):
        model = small_model()
        x = np.random.default_rng(3).normal(0, 1, (6, 10)) * 1e6  # triggers clip paths
        scores = dn.forward(model, x)
        assert np.all(scores > 0.0) and np.all(scores < 1.0)

    def test_dimension_mismatch(self):
        model = small_model()
        with pytest.raises(ValueError):
            dn.forward(model, np.zeros(7))

    def test_train_mode_needs_rng_for_dropout(self):
        model = small_model(dropout=0.5)
        with pytest.raises(ValueError):
            dn.forward(model, np.zeros((2, 10)), mode="train")

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="mode must be 'train' or 'infer', got 'eval'"):
            dn.forward(small_model(), np.zeros(10), mode="eval")

    @pytest.mark.parametrize("names,descriptors", [((), ("x",)), (NAMES5, ())], ids=["features", "descriptors"])
    def test_init_needs_a_feature_and_a_descriptor(self, names, descriptors):
        with pytest.raises(ValueError, match="need at least one feature and one descriptor"):
            dn.init_model(names, descriptors, dn.TrainConfig(), np.random.default_rng(0))


class TestLoss:
    """batch_loss on one-row batches whose pair is labelled A (target 0) on the first descriptor."""

    def test_half_score_is_ln2(self):
        loss = dn.batch_loss(np.array([[0.5, 0.9, 0.1]]), np.array([0]), np.array([0.0]))
        assert loss == pytest.approx(np.log(2.0))

    def test_confident_correct_is_tiny(self):
        assert dn.batch_loss(np.array([[0.0]]), np.array([0]), np.array([0.0])) == pytest.approx(1e-7, abs=1e-8)

    def test_wrong_confidence(self):
        loss = dn.batch_loss(np.array([[0.9]]), np.array([0]), np.array([0.0]))
        assert loss == pytest.approx(-np.log(0.1), rel=1e-6)


class TestBackward:
    def test_gradients_match_finite_differences(self):
        model = small_model()
        rng = np.random.default_rng(7)
        x = rng.normal(0, 1, (5, 10))
        desc_idx = np.array([0, 1, 2, 0, 1])
        targets = np.array([0.0, 1.0, 0.0, 1.0, 1.0])

        scores, cache = dn.forward(model, x, mode="train")
        assert np.abs(cache["bn_out"]).min() > 1e-3  # clear of the ReLU kink
        grads = dn.backward(model, cache, desc_idx, targets)

        h = 1e-5
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
                rel = abs(grads[name][idx] - fd) / max(1e-6, abs(grads[name][idx]), abs(fd))
                assert rel < 1e-4, (name, idx)

    def test_zero_input_kills_fc1_weight_gradients(self):
        model = small_model()
        model.norm_mean[:] = 0.0
        model.norm_std[:] = 1.0
        x = np.zeros((4, 10))
        _, cache = dn.forward(model, x, mode="train")
        grads = dn.backward(model, cache, np.array([0, 1, 2, 0]), np.array([1.0, 1.0, 0.0, 1.0]))
        npt.assert_allclose(grads["w1"], 0.0, atol=1e-15)
        assert np.abs(grads["b2"]).max() > 1e-3

    def test_batch_duplication_invariance(self):
        model = small_model()
        rng = np.random.default_rng(8)
        x = rng.normal(0, 1, (3, 10))
        desc_idx = np.array([0, 1, 2])
        targets = np.array([1.0, 0.0, 1.0])
        _, cache1 = dn.forward(model, x, mode="train")
        g1 = dn.backward(model, cache1, desc_idx, targets)
        x2 = np.vstack([x, x])
        _, cache2 = dn.forward(model, x2, mode="train")
        g2 = dn.backward(model, cache2, np.tile(desc_idx, 2), np.tile(targets, 2))
        for name in g1:
            npt.assert_allclose(g1[name], g2[name], atol=1e-12)

    @pytest.mark.parametrize("mode", ["train"])
    def test_twice_on_one_cache_is_identical_and_leaves_it(self, mode):
        model = small_model(dropout=0.3)
        rng = np.random.default_rng(9)
        x = rng.normal(0, 1, (6, 10))
        desc_idx = np.array([0, 1, 2, 0, 1, 2])
        targets = np.array([1.0, 0.0, 1.0, 1.0, 0.0, 0.0])
        _, cache = dn.forward(model, x, mode=mode, rng=rng)
        before = {key: np.copy(value) for key, value in cache.items()}
        first = dn.backward(model, cache, desc_idx, targets)
        second = dn.backward(model, cache, desc_idx, targets)
        for name in first:
            assert np.array_equal(first[name], second[name]), name
        assert cache.keys() == before.keys()
        for key, value in before.items():
            assert np.array_equal(cache[key], value), key


class TestReadOnlyInputs:
    """The in-place steps write only to arrays they allocate: read-only inputs give the same bits."""

    @pytest.mark.parametrize("mode", ["train", "infer"])
    def test_forward_and_backward(self, mode):
        """Infer mode returns no cache, so there only forward is checked."""
        model = small_model(dropout=0.3)
        x = np.random.default_rng(5).normal(0, 1, (7, 10))
        desc_idx = np.array([0, 1, 2, 0, 1, 2, 0])
        targets = np.array([1.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0])
        train = mode == "train"
        out = dn.forward(model, x.copy(), mode=mode, rng=np.random.default_rng(6))
        model_ro = frozen_model(model)
        out_ro = dn.forward(model_ro, frozen(x), mode=mode, rng=np.random.default_rng(6))
        if not train:
            assert np.array_equal(out_ro, out)
            return

        (scores, cache), (scores_ro, cache_ro) = out, out_ro
        grads = dn.backward(model, cache, desc_idx, targets)
        assert np.array_equal(scores_ro, scores)
        for key, value in cache.items():
            assert np.array_equal(cache_ro[key], value), key
        cache_ro = {key: frozen(value) for key, value in cache_ro.items()}
        grads_ro = dn.backward(model_ro, cache_ro, frozen(desc_idx), frozen(targets))
        for name in grads:
            assert np.array_equal(grads_ro[name], grads[name]), name

    def test_score_pairs(self):
        model = small_model(hidden=16)
        rng = np.random.default_rng(13)
        ids = [f"u{i:02d}" for i in range(30)]
        feats = FeatureTable({u: rng.normal(model.norm_mean, model.norm_std) for u in ids}, NAMES5)
        picks = [rng.choice(len(ids), 2, replace=False) for _ in range(1500)]
        pairs = [dn.PairRecord(ids[a], ids[b], model.descriptors[i % 3], dn.B_STRONGER)
                 for i, (a, b) in enumerate(picks)]
        expected = dn.score_pairs(model, pairs, feats)
        feats_ro = FeatureTable({u: frozen(v) for u, v in feats.items()}, NAMES5)
        assert np.array_equal(dn.score_pairs(frozen_model(model), pairs, feats_ro), expected)


class TestTrain:
    def test_separable_task_99pct_within_30_epochs(self):
        pairs, feats = separable_task()
        _, log = dn.train(pairs, feats, dn.TrainConfig(seed=3, learning_rate=3e-3))
        assert len(log) == 30
        assert log[-1]["train_accuracy"] >= 0.99

    def test_deterministic_given_seed(self, tmp_path):
        pairs, feats = separable_task(n_pairs=300, n_utts=20)
        config = dn.TrainConfig(seed=5, epochs=3)
        a, _ = dn.train(pairs, feats, config)
        b, _ = dn.train(pairs, feats, config)
        for name in a.parameter_groups():
            npt.assert_array_equal(getattr(a, name), getattr(b, name))
        npt.assert_array_equal(a.running_mean, b.running_mean)
        dn.save_checkpoint(a, tmp_path / "a.json")
        dn.save_checkpoint(b, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_held_out_chance_on_permuted_labels(self):
        pairs, feats = separable_task(n_pairs=2400, n_utts=80)
        rng = np.random.default_rng(17)
        shuffled = [
            dn.PairRecord(p.utt_a, p.utt_b, p.descriptor,
                          rng.choice([dn.A_STRONGER, dn.B_STRONGER]))
            for p in pairs
        ]
        model, _ = dn.train(shuffled[:1200], feats, dn.TrainConfig(seed=1, epochs=10))
        scores = dn.score_pairs(model, shuffled[1200:], feats)
        labels = np.array([p.label == dn.B_STRONGER for p in shuffled[1200:]])
        accuracy = np.mean((scores >= 0.5) == labels) * 100
        assert 40.0 < accuracy < 60.0

    def test_z_score_statistics(self):
        pairs, feats = separable_task(n_pairs=200, n_utts=40)
        model, _ = dn.train(pairs, feats, dn.TrainConfig(seed=2, epochs=1))
        table = np.stack([feats[u] for u in sorted(feats)])
        z = (table - model.norm_mean) / model.norm_std
        assert np.abs(z.mean(axis=0)).max() < 1e-10
        assert np.abs(z.var(axis=0) - 1.0).max() < 1e-6

    def test_missing_features_reported_by_id(self):
        pairs, feats = separable_task(n_pairs=50, n_utts=10)
        del feats["u003"]
        with pytest.raises(KeyError, match="u003"):
            dn.train(pairs, feats, dn.TrainConfig(epochs=1))

    def test_feature_width_must_match_the_names(self):
        """train and score_pairs share one width check: the stacked vectors against the table's names."""
        pairs, feats = separable_task(n_pairs=50, n_utts=10)
        with pytest.raises(SchemaError, match="^feature vectors have 26 values, the table has 25 names$"):
            dn.train(pairs, FeatureTable(feats, dim_names(25)), dn.TrainConfig(epochs=1))
        model, _ = dn.train(pairs, feats, dn.TrainConfig(epochs=1))
        narrow = FeatureTable({u: v[:25] for u, v in feats.items()}, feats.names)
        with pytest.raises(SchemaError, match="^feature vectors have 25 values, the table has 26 names$"):
            dn.score_pairs(model, pairs, narrow)

    def test_empty_pairs(self):
        with pytest.raises(ValueError):
            dn.train([], FeatureTable(), dn.TrainConfig())

    @pytest.mark.parametrize("n_pairs,sizes", [(257, [257]), (256, [256]), (258, [256, 2]), (513, [256, 257])])
    def test_no_one_row_batch(self, n_pairs, sizes, monkeypatch):
        """A leftover single pair joins the last batch; every pair still runs once per epoch."""
        seen = []
        real = dn.forward

        def recording(model, x, mode="infer", rng=None):
            if mode == "train":
                seen.append(x.shape[0])
            return real(model, x, mode, rng)

        monkeypatch.setattr(dn, "forward", recording)
        pairs, feats = separable_task(n_pairs=n_pairs, n_utts=30, dim=5)
        dn.train(pairs, feats, dn.TrainConfig(hidden_dim=8, epochs=2))
        assert seen == sizes * 2

    def test_peak_memory_does_not_grow_with_pair_features(self):
        """Each batch gathers its own pair rows: 50k pairs never stand as one [P x 2D] matrix (20.8 MB)."""
        n_pairs, n_utts = 50_000, 500
        rng = np.random.default_rng(8)
        ids = np.array([f"u{i:03d}" for i in range(n_utts)], dtype=object)
        feats = FeatureTable({u: rng.normal(0, 1, 26) for u in ids}, dim_names())
        a = rng.integers(0, n_utts, n_pairs)
        b = (a + rng.integers(1, n_utts, n_pairs)) % n_utts
        pairs = dn.PairColumns(ids[a], ids[b], np.full(n_pairs, "planted", dtype=object), b > a)
        config = dn.TrainConfig(hidden_dim=32, epochs=1)
        (_, log), _, peak = traced(lambda: dn.train(pairs, feats, config))
        assert len(log) == 1
        assert peak < 8e6

    @pytest.mark.parametrize("n_pairs,dim,hidden,dropout", [
        pytest.param(700, 26, 32, 0.3, id="700-26-32"),
        pytest.param(769, 5, 7, 0.3, id="769-5-7"),
        pytest.param(700, 26, 32, 0.0, id="no-dropout"),
        pytest.param(700, 26, 128, 0.3, id="default-hidden"),
    ])
    def test_equals_the_textbook_loop_bitwise(self, n_pairs, dim, hidden, dropout):
        """Two descriptors, a ragged last batch (of 257 pairs in the second case, whose leftover pair joins it).

        Dropout is 0.3 but in the no-dropout case, whose mask is all ones;
        the last case has the default hidden width. Without log_every_epoch
        the model is the same and the log is the reference's last entry.
        """
        pairs, feats = separable_task(n_pairs=n_pairs, n_utts=40, dim=dim, seed=12)
        pairs = dn.PairColumns.from_records([
            dn.PairRecord(p.utt_a, p.utt_b, ("planted", "second")[i % 2], p.label) for i, p in enumerate(pairs)
        ])
        config = dn.TrainConfig(hidden_dim=hidden, dropout=dropout, epochs=3, seed=4)
        assert n_pairs % config.batch_size
        expected, expected_log = testkit.train_reference(pairs, feats, config)
        for log_every_epoch, logged in ((True, expected_log), (False, expected_log[-1:])):
            model, log = dn.train(pairs, feats, config, log_every_epoch=log_every_epoch)
            assert log == logged
            for name in ("feature_weights", "w1", "b1", "gamma", "beta", "running_mean", "running_var",
                         "w2", "b2", "norm_mean", "norm_std"):
                assert np.array_equal(getattr(model, name), getattr(expected, name)), (log_every_epoch, name)


class TestScorePairs:
    def factorised_setup(self):
        """50 utterances in 601 pairs over three descriptors; u07's f2 sits beyond +10 sigma."""
        model = small_model(hidden=16)
        rng = np.random.default_rng(11)
        model.running_mean[:] = rng.normal(0, 0.5, 16)
        model.running_var[:] = rng.uniform(0.3, 3.0, 16)
        ids = [f"u{i:02d}" for i in range(50)]
        feats = FeatureTable({u: rng.normal(model.norm_mean, model.norm_std) for u in ids}, NAMES5)
        feats["u07"][2] = model.norm_mean[2] + 25.0 * model.norm_std[2]
        pairs = []
        for i in range(600):
            a, b = rng.choice(len(ids), 2, replace=False)
            pairs.append(dn.PairRecord(ids[a], ids[b], model.descriptors[i % 3],
                                       dn.A_STRONGER if rng.random() < 0.5 else dn.B_STRONGER))
        pairs.append(dn.PairRecord("u07", "u01", "y", dn.B_STRONGER))
        return model, pairs, feats

    def reference(self, model, pairs, feats):
        x = np.stack([np.concatenate([feats[p.utt_a], feats[p.utt_b]]) for p in pairs])
        idx = [model.descriptors.index(p.descriptor) for p in pairs]
        return dn.forward(model, x, mode="infer")[np.arange(len(pairs)), idx]

    def test_matches_forward_on_gathered_pairs(self):
        model, pairs, feats = self.factorised_setup()
        assert np.abs(dn.normalize_input(model, np.concatenate([feats["u07"], feats["u01"]]))).max() == 10.0
        scores = dn.score_pairs(model, pairs, feats)
        npt.assert_allclose(scores, self.reference(model, pairs, feats), rtol=0, atol=1e-12)

    def test_feature_width_must_match_the_model(self):
        """A 4-wide table against a 5-feature model is refused by its names, before any id lookup."""
        model, pairs, feats = self.factorised_setup()
        narrow = FeatureTable({u: v[:4] for u, v in feats.items()}, NAMES5[:4])
        with pytest.raises(SchemaError, match=r"^the table's and the model's feature names differ in \['f4'\]$"):
            dn.score_pairs(model, pairs, narrow)

    def test_reloaded_checkpoint_scores_the_same(self, tmp_path):
        model, pairs, feats = self.factorised_setup()
        dn.save_checkpoint(model, tmp_path / "model.json")
        loaded = dn.load_checkpoint(tmp_path / "model.json")
        npt.assert_allclose(dn.score_pairs(loaded, pairs, feats), dn.score_pairs(model, pairs, feats),
                            rtol=0, atol=1e-12)

    def test_blocks_equal_one_gather(self, monkeypatch):
        """2,500 pairs at hidden 128, 129 and 512 give the same bits in one-pair blocks, in
        audio.row_chunks blocks (256, 254 and 64 pairs, with a ragged tail) and in one gather."""
        for hidden in (128, 129, 512):
            model = small_model(hidden=hidden)
            rng = np.random.default_rng(4)
            model.running_var[:] = rng.uniform(0.3, 3.0, hidden)
            ids = [f"u{i:02d}" for i in range(80)]
            feats = FeatureTable({u: rng.normal(model.norm_mean, model.norm_std) for u in ids}, NAMES5)
            picks = [rng.choice(len(ids), 2, replace=False) for _ in range(2500)]
            pairs = [dn.PairRecord(ids[a], ids[b], model.descriptors[i % 3], dn.A_STRONGER)
                     for i, (a, b) in enumerate(picks)]
            step = next(audio.row_chunks(len(pairs), 8 * hidden)).stop
            assert 2 * step < len(pairs) and len(pairs) % step
            blocked = dn.score_pairs(model, pairs, feats)
            npt.assert_array_equal(dn.score_pairs(model, dn.PairColumns.from_records(pairs), feats), blocked)
            for chunk_bytes in (1, 8 * hidden * len(pairs)):
                with monkeypatch.context() as patch:
                    patch.setattr(audio, "_CHUNK_BYTES", chunk_bytes)
                    npt.assert_array_equal(dn.score_pairs(model, pairs, feats), blocked, err_msg=str(hidden))

    def test_no_pairs_give_no_scores(self):
        """Zero pairs, as columns or as a list, score to an empty float array, after the names check."""
        model, pairs, feats = self.factorised_setup()
        empty = dn.PairColumns.from_records(pairs).take(np.zeros(len(pairs), dtype=bool))
        for none in (empty, []):
            scores = dn.score_pairs(model, none, feats)
            assert scores.shape == (0,) and scores.dtype == np.float64
            assert dn.score_pairs(model, none, FeatureTable(names=NAMES5)).shape == (0,)
            with pytest.raises(SchemaError, match="feature names differ"):
                dn.score_pairs(model, none, FeatureTable(names=NAMES5[:4]))

    @staticmethod
    def peak_above_the_scores(hidden):
        """tracemalloc's peak, less the scores, of score_pairs on 4096 pairs of 100 utterances."""
        model = small_model(hidden=hidden)
        rng = np.random.default_rng(12)
        ids = np.array([f"u{i:03d}" for i in range(100)], dtype=object)
        feats = FeatureTable({u: rng.normal(model.norm_mean, model.norm_std) for u in ids}, NAMES5)
        a = rng.integers(0, 100, 4096)
        b = (a + rng.integers(1, 100, 4096)) % 100
        pairs = dn.PairColumns(ids[a], ids[b], np.array(model.descriptors, dtype=object)[a % 3],
                               np.zeros(4096, bool))
        tracemalloc.start()
        try:
            scores = dn.score_pairs(model, pairs, feats)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak - scores.nbytes

    def test_peak_memory_above_the_scores_is_bounded(self):
        """4096 pairs at hidden 128 peak under 2 MiB above the scores (tracemalloc).

        A 1024-pair block alone holds three [1024 x 128] arrays at once (two
        gathers and their sum), 3 MiB; at 256 pairs the peak is about 1.1 MiB,
        mostly the pair index and the per-utterance projections.
        """
        assert self.peak_above_the_scores(128) < 2 << 20

    def test_peak_memory_at_hidden_512_is_bounded(self):
        """4096 pairs at hidden 512 peak under 2.5 MiB above the scores (tracemalloc).

        Blocks of 64 pairs keep each [pairs x 512] temporary at 256 KiB: the
        peak is about 1.7 MiB. Blocks of a fixed 256 pairs held 1 MiB
        temporaries and peaked at 3.9 MiB.
        """
        assert self.peak_above_the_scores(512) < 5 << 19


class TestPairColumns:
    def test_round_trips_records(self):
        pairs, _ = separable_task(n_pairs=50)
        columns = dn.PairColumns.from_records(pairs)
        assert len(columns) == 50
        assert [columns.record(i) for i in range(50)] == pairs
        assert [columns.take(np.arange(10, 20)).record(i) for i in range(10)] == pairs[10:20]

    def test_rejects_repeated_utterance_and_ragged_columns(self):
        ids = np.array(["a", "b"], dtype=object)
        with pytest.raises(ValueError, match="two distinct utterances"):
            dn.PairColumns(ids, np.array(["c", "b"], dtype=object), ids, np.zeros(2, bool))
        with pytest.raises(ValueError, match="equal lengths"):
            dn.PairColumns(ids, ids[::-1], ids[:1], np.zeros(2, bool))
        with pytest.raises(ValueError, match="b_stronger must be a bool array"):
            dn.PairColumns(ids, ids[::-1], ids, np.zeros(2))

    def test_train_takes_columns_or_records_alike(self):
        pairs, feats = separable_task(n_pairs=300)
        config = dn.TrainConfig(seed=2, epochs=2, hidden_dim=16)
        model_r, log_r = dn.train(pairs, feats, config)
        model_c, log_c = dn.train(dn.PairColumns.from_records(pairs), feats, config)
        assert log_r == log_c
        for name, tensor in model_r.parameter_groups().items():
            npt.assert_array_equal(model_c.parameter_groups()[name], tensor)


class TestNamesTravelWithTheTable:
    """train names the model's columns by the table's, and score_pairs refuses a table named otherwise."""

    @staticmethod
    def tables(tmp_path):
        """The separable task as an acoustic CSV, read as written and read after its value columns were
        reversed with their headers: mean_f0, the planted column, then comes last."""
        pairs, feats = separable_task()
        path, moved = tmp_path / "features.csv", tmp_path / "moved.csv"
        write_features(path, [(u, v, 90) for u, v in feats.items()], "acoustic")
        order = [0, *range(len(FEATURE_NAMES), 0, -1), len(FEATURE_NAMES) + 1]
        with path.open(newline="") as src, moved.open("w", newline="") as dst:
            csv.writer(dst).writerows([row[i] for i in order] for row in csv.reader(src))
        return pairs, read_features(path), read_features(moved)

    def test_score_pairs_refuses_columns_in_another_order(self, tmp_path):
        pairs, table, moved = self.tables(tmp_path)
        assert moved.names == FEATURE_NAMES[::-1]
        model, _ = dn.train(pairs, table, dn.TrainConfig(epochs=1))
        message = "^the table's and the model's feature names differ in their order$"
        for other in (moved, FeatureTable(names=moved.names)):  # the names are checked before any id
            with pytest.raises(SchemaError, match=message):
                dn.score_pairs(model, pairs, other)

    def test_score_pairs_refuses_a_renamed_column(self, tmp_path):
        pairs, table, _ = self.tables(tmp_path)
        model, _ = dn.train(pairs, table, dn.TrainConfig(epochs=1))
        renamed = tmp_path / "renamed.csv"
        renamed.write_text((tmp_path / "features.csv").read_text().replace("mean_f0,", "mean_pitch,", 1))
        with pytest.raises(SchemaError, match=r"feature names differ in \['mean_f0', 'mean_pitch'\]$"):
            dn.score_pairs(model, pairs, read_features(renamed))

    def test_train_names_each_gain_by_its_column(self, tmp_path):
        """The checkpoint holds the moved table's names, and the planted gain ranks first as mean_f0."""
        pairs, _, moved = self.tables(tmp_path)
        model, _ = dn.train(pairs, moved, dn.TrainConfig(seed=3, learning_rate=3e-3))
        dn.save_checkpoint(model, tmp_path / "model.json")
        assert dn.load_checkpoint(tmp_path / "model.json").feature_names == moved.names
        ranked = sorted(dn.feature_importance(model), key=lambda kv: -abs(kv[1]))
        assert ranked[0][0] == "mean_f0"
        assert dn.score_pairs(model, pairs, moved).shape == (len(pairs),)


class TestFeatureImportance:
    def test_fresh_model_all_ones(self):
        model = dn.init_model(NAMES5, ("x",), dn.TrainConfig(), np.random.default_rng(0))
        assert [w for _, w in dn.feature_importance(model)] == [1.0] * 5

    def test_planted_feature_ranks_first(self):
        pairs, feats = separable_task()
        model, _ = dn.train(pairs, feats, dn.TrainConfig(seed=3, learning_rate=3e-3))
        ranked = sorted(dn.feature_importance(model), key=lambda kv: -abs(kv[1]))
        assert ranked[0][0] == "dim_00"

    def test_length_matches_features(self):
        pairs, feats = separable_task(n_pairs=100, n_utts=20)
        model, _ = dn.train(pairs, feats, dn.TrainConfig(epochs=1))
        assert len(dn.feature_importance(model)) == 26


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        pairs, feats = separable_task(n_pairs=200, n_utts=20)
        model, _ = dn.train(pairs, feats, dn.TrainConfig(seed=9, epochs=2))
        path = tmp_path / "model.json"
        dn.save_checkpoint(model, path)
        loaded = dn.load_checkpoint(path)
        for name in model.parameter_groups():
            npt.assert_array_equal(getattr(model, name), getattr(loaded, name))
        npt.assert_array_equal(model.norm_mean, loaded.norm_mean)
        npt.assert_array_equal(model.running_var, loaded.running_var)
        assert loaded.descriptors == model.descriptors
        # a second save of the loaded model produces identical bytes
        dn.save_checkpoint(loaded, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()

    def test_version_check(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format_version": 99}')
        with pytest.raises(ValueError):
            dn.load_checkpoint(path)
        dn.save_checkpoint(small_model(), path)
        payload = json.loads(path.read_text())
        for value in (True, 1.0):
            path.write_text(json.dumps({**payload, "format_version": value}))
            with pytest.raises(ValueError, match=f"^unsupported checkpoint version {value!r}$"):
                dn.load_checkpoint(path)

    def test_payload_must_be_an_object_with_every_field(self, tmp_path):
        path = tmp_path / "model.json"
        dn.save_checkpoint(small_model(), path)
        payload = json.loads(path.read_text())
        path.write_text(json.dumps([payload]))
        with pytest.raises(ValueError, match="checkpoint is not a JSON object"):
            dn.load_checkpoint(path)
        for field in ("feature_names", "descriptors", "dropout", "bn_momentum", "bn_epsilon", "tensors"):
            path.write_text(json.dumps({k: v for k, v in payload.items() if k != field}))
            with pytest.raises(ValueError, match=f"checkpoint has no field '{field}'"):
                dn.load_checkpoint(path)
        path.write_text(json.dumps({**payload, "dropuot": 0.9, "bias": 1}))
        with pytest.raises(ValueError, match="checkpoint has unknown fields: bias, dropuot"):
            dn.load_checkpoint(path)
        wrong_types = [
            ("feature_names", 5, "is not a list of strings"),
            ("feature_names", ["a", 1], "is not a list of strings"),
            ("descriptors", None, "is not a list of strings"),
            ("descriptors", "planted", "is not a list of strings"),
            ("feature_names", ["a", "b", "a", "c", "d"], "repeats the name a"),
            ("descriptors", ["x", "x", "z"], "repeats the name x"),
            ("dropout", "x", "is 'x', not a finite number"),
            ("dropout", True, "is True, not a finite number"),
            ("dropout", 1.0, r"is 1.0, not in \[0, 1\)"),
            ("dropout", -0.1, r"is -0.1, not in \[0, 1\)"),
            ("bn_momentum", [0.1], r"is \[0.1\], not a finite number"),
            ("bn_epsilon", "x", "is 'x', not a finite number"),
            ("bn_epsilon", float("inf"), "is inf, not a finite number"),
            ("bn_epsilon", float("nan"), "is nan, not a finite number"),
            ("bn_epsilon", 10**400, "is 1000+, not a finite number"),
            ("bn_epsilon", 1e-3, "is 0.001, not 1e-05"),
            ("bn_momentum", 0.2, "is 0.2, not 0.1"),
            ("tensors", [], "is not an object"),
        ]
        for field, value, detail in wrong_types:
            path.write_text(json.dumps({**payload, field: value}))
            with pytest.raises(ValueError, match=f"checkpoint field '{field}' {detail}"):
                dn.load_checkpoint(path)
        for value in ("x", {"a": 1}, [[1.0], 2.0]):
            path.write_text(json.dumps({**payload, "tensors": {**payload["tensors"], "b2": value}}))
            with pytest.raises(ValueError, match="checkpoint tensor 'b2' is not an array of numbers"):
                dn.load_checkpoint(path)
        non_finite = [("w1", [3, 1], float("nan")), ("norm_std", [2], float("inf")), ("b2", [0], float("-inf"))]
        for tensor, at, value in non_finite:
            stored = np.array(payload["tensors"][tensor])
            stored[tuple(at)] = value
            path.write_text(json.dumps({**payload, "tensors": {**payload["tensors"], tensor: stored.tolist()}}))
            with pytest.raises(ValueError) as info:
                dn.load_checkpoint(path)
            assert str(info.value) == f"checkpoint tensor '{tensor}' holds {value} at {at}, not a finite number"
        path.write_text(json.dumps({**payload, "dropout": 0}))
        assert dn.load_checkpoint(path).dropout == 0


class TestPairRecord:
    def test_self_pair_rejected(self):
        with pytest.raises(ValueError):
            dn.PairRecord("a", "a", "x", dn.A_STRONGER)

    def test_bad_label(self):
        with pytest.raises(ValueError):
            dn.PairRecord("a", "b", "x", "C")

    def test_score_convention_after_symmetric_training(self):
        """Trained on direction-balanced data, score(A,B) ~ 1 - score(B,A)."""
        pairs, feats = separable_task(n_pairs=1500, n_utts=50, seed=4)
        flipped = [
            dn.PairRecord(p.utt_b, p.utt_a, p.descriptor,
                          dn.B_STRONGER if p.label == dn.A_STRONGER else dn.A_STRONGER)
            for p in pairs
        ]
        model, _ = dn.train(pairs + flipped, feats, dn.TrainConfig(seed=6, learning_rate=3e-3))
        # held-out pairs: fresh combinations over the same utterances
        ids = sorted(feats)
        seen = {(p.utt_a, p.utt_b) for p in pairs + flipped}
        rng = np.random.default_rng(99)
        check = []
        while len(check) < 200:
            a, b = rng.choice(len(ids), 2, replace=False)
            if (ids[a], ids[b]) in seen:
                continue
            label = dn.A_STRONGER if feats[ids[a]][0] > feats[ids[b]][0] else dn.B_STRONGER
            check.append(dn.PairRecord(ids[a], ids[b], "planted", label))
        forward_scores = dn.score_pairs(model, check, feats)
        reverse = [dn.PairRecord(p.utt_b, p.utt_a, p.descriptor, p.label) for p in check]
        reverse_scores = dn.score_pairs(model, reverse, feats)
        assert np.median(np.abs(forward_scores - (1.0 - reverse_scores))) < 0.1
