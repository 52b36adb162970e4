from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timbrekit import harmonics
from timbrekit.audio import INTERNAL_RATE, _polyphase_taps
from timbrekit.diffnet import A_STRONGER, B_STRONGER, STANDARD_DESCRIPTORS, TrainConfig, init_model
from timbrekit.evaluation import _CORRECTION_TERMS, ScoredColumns, accuracy, cost_report, eer, far_frr_curve
from timbrekit.features import SchemaError, feature_names_for
from timbrekit.formants import ANALYSIS_RATE, MAX_FORMANTS
from timbrekit.harmonics import correction_db, magnitude_spectrum
from timbrekit.testkit import eer_oracle, far_frr_oracle


def scored(values):
    """values: list of (score, label)."""
    scores = np.array([score for score, _ in values], dtype=np.float64)
    return ScoredColumns(scores, np.array([label == B_STRONGER for _, label in values], dtype=bool))


class TestAccuracy:
    def test_perfect(self):
        pairs = scored([(0.1, A_STRONGER), (0.9, B_STRONGER)])
        assert accuracy(pairs) == 100.0

    def test_ties_predict_b(self):
        pairs = scored([(0.5, A_STRONGER), (0.5, B_STRONGER), (0.5, B_STRONGER)])
        assert accuracy(pairs) == pytest.approx(200.0 / 3.0)

    def test_three_of_four(self):
        pairs = scored(
            [(0.1, A_STRONGER), (0.2, A_STRONGER), (0.8, B_STRONGER), (0.7, A_STRONGER)]
        )
        assert accuracy(pairs) == 75.0

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            accuracy(scored([]))

    def test_accuracy_plus_error_is_100(self):
        rng = np.random.default_rng(0)
        pairs = scored(
            [(float(s), rng.choice([A_STRONGER, B_STRONGER])) for s in rng.uniform(0, 1, 101)]
        )
        acc = accuracy(pairs)
        err = 100.0 * sum(
            1
            for score, positive in zip(pairs.scores, pairs.positive)
            if (score >= 0.5) != positive
        ) / len(pairs)
        assert acc + err == 100.0


class TestEer:
    def test_perfectly_separated(self):
        pairs = scored([(0.1, A_STRONGER), (0.2, A_STRONGER), (0.8, B_STRONGER), (0.9, B_STRONGER)])
        assert eer(pairs) == 0.0

    def test_completely_swapped(self):
        pairs = scored([(0.8, A_STRONGER), (0.9, A_STRONGER), (0.1, B_STRONGER), (0.2, B_STRONGER)])
        assert eer(pairs) == 100.0

    def test_interleaved_fifty(self):
        pairs = scored([(0.4, A_STRONGER), (0.6, A_STRONGER), (0.5, B_STRONGER), (0.7, B_STRONGER)])
        assert eer(pairs) == pytest.approx(50.0)

    def test_single_class_errors(self):
        with pytest.raises(ValueError):
            eer(scored([(0.5, A_STRONGER)]))

    def test_matches_enumeration_oracle_on_1000(self):
        rng = np.random.default_rng(12)
        values = [
            (float(s), B_STRONGER if rng.random() < 0.5 else A_STRONGER)
            for s in rng.uniform(0, 1, 1000)
        ]
        pairs = scored(values)
        fast = eer(pairs)
        slow = eer_oracle([v for v, _ in values], [lab == B_STRONGER for _, lab in values])
        assert fast == pytest.approx(slow, abs=1e-12)

    def test_invariant_under_increasing_transform(self):
        rng = np.random.default_rng(3)
        values = [
            (float(s), B_STRONGER if rng.random() < 0.4 else A_STRONGER)
            for s in rng.uniform(0.01, 0.99, 400)
        ]
        base = eer(scored(values))
        cubed = eer(scored([(s**3, lab) for s, lab in values]))
        shrunk = eer(scored([(0.25 + s / 2, lab) for s, lab in values]))
        assert base == pytest.approx(cubed, abs=1e-12)
        assert base == pytest.approx(shrunk, abs=1e-12)

    @given(
        n_pos=st.integers(min_value=1, max_value=40),
        n_neg=st.integers(min_value=1, max_value=40),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_bounded_and_matches_oracle(self, n_pos, n_neg, seed):
        rng = np.random.default_rng(seed)
        values = [(float(s), B_STRONGER) for s in rng.uniform(0, 1, n_pos)]
        values += [(float(s), A_STRONGER) for s in rng.uniform(0, 1, n_neg)]
        result = eer(scored(values))
        assert 0.0 <= result <= 100.0
        slow = eer_oracle([v for v, _ in values], [lab == B_STRONGER for _, lab in values])
        assert result == pytest.approx(slow, abs=1e-12)

    @given(
        n=st.integers(min_value=2, max_value=300),
        positive_share=st.floats(min_value=0.05, max_value=0.95),
        decimals=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=80, deadline=None)
    def test_curve_equals_threshold_loop(self, n, positive_share, decimals, seed):
        """Heavy ties: scores rounded to 1-3 decimals; both classes always present."""
        rng = np.random.default_rng(seed)
        scores = np.round(rng.uniform(0, 1, n), decimals)
        positive = rng.random(n) < positive_share
        positive[0], positive[1] = True, False
        values = [(float(s), B_STRONGER if p else A_STRONGER) for s, p in zip(scores, positive)]
        points = list(zip(*(column.tolist() for column in far_frr_curve(scored(values)))))
        assert points == far_frr_oracle(scores, positive)

    def test_curve_endpoints(self):
        pairs = scored([(0.2, A_STRONGER), (0.8, B_STRONGER)])
        _, far, frr = far_frr_curve(pairs)
        assert far[0] == 1.0 and frr[0] == 0.0
        assert far[-1] == 0.0 and frr[-1] == 1.0


class TestScoredColumns:
    @pytest.mark.parametrize("bad", [1.5, -0.1, float("nan"), float("inf")])
    def test_scores_checked_once(self, bad):
        with pytest.raises(ValueError, match="finite in"):
            ScoredColumns(np.array([0.2, bad]), np.array([True, False]))

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            accuracy(ScoredColumns(np.zeros(0), np.zeros(0, bool)))

    @pytest.mark.parametrize("scores,positive,message", [
        (np.zeros(2), np.zeros(3, bool), "scores and positive must be 1-D arrays of equal length"),
        (np.zeros((2, 2)), np.zeros((2, 2), bool), "scores and positive must be 1-D arrays of equal length"),
        (np.zeros(2), np.zeros(2), "positive must be a bool array"),
    ], ids=["lengths", "2-D", "dtype"])
    def test_shapes_and_dtype_checked(self, scores, positive, message):
        with pytest.raises(ValueError, match=message):
            ScoredColumns(scores, positive)


class TestCostReport:
    def test_extraction_params_zero(self):
        for kind in ("acoustic", "mfcc", "lfc"):
            assert cost_report(kind).extraction_params == 0

    def test_flops_ordering(self):
        lfc_total = cost_report("lfc").extraction_flops_per_second
        mfcc_total = cost_report("mfcc").extraction_flops_per_second
        acoustic_total = cost_report("acoustic").extraction_flops_per_second
        assert lfc_total < mfcc_total < acoustic_total

    def test_classifier_ratio(self):
        report = cost_report("acoustic")
        ratio = report.classifier_flops_per_pair / report.classifier_params
        assert 1.8 <= ratio <= 2.2

    def test_pure_function(self):
        a = cost_report("acoustic").to_dict()
        b = cost_report("acoustic").to_dict()
        assert a == b

    def test_dims(self):
        assert cost_report("acoustic").dim_per_utterance == 26
        assert cost_report("mfcc").dim_per_utterance == 13

    @pytest.mark.parametrize("kind,total,breakdown", [
        ("acoustic", 34_915_600, [
            ("pitch_autocorrelation", 11_490_300), ("slice_spectrum", 12_416_000),
            ("cepstral_peak", 7_347_400), ("formant_lpc", 2_650_500), ("harmonic_amplitudes", 34_600),
            ("subharmonic_ratio", 38_400), ("rms", 192_000), ("global_peak_scan", 32_000),
            ("formant_rate_resample", 704_000), ("pooling", 10_400),
        ]),
        ("mfcc", 3_064_600, [
            ("windowed_spectrum", 2_793_900), ("filterbank", 194_000), ("log_energies", 5_200),
            ("dct", 68_900), ("pooling", 2_600),
        ]),
        ("lfc", 1_484_200, [
            ("windowed_spectrum", 1_309_100), ("filterbank", 98_400), ("log_energies", 5_200),
            ("dct", 68_900), ("pooling", 2_600),
        ]),
    ])
    def test_tallies_are_pinned(self, kind, total, breakdown):
        """Every stage's tally, in report order, and the default classifier's; a changed stage size shows here."""
        report = cost_report(kind)
        assert list(report.extraction_breakdown.items()) == breakdown
        assert report.extraction_flops_per_second == total
        d2, fc1, params, per_pair = {"acoustic": (52, 13_440, 9_388, 18_986)}.get(kind, (26, 6_784, 6_047, 12_226))
        assert list(report.classifier_breakdown.items()) == [
            ("z_score_and_clip", 3 * d2), ("feature_gains", d2), ("fc1", fc1), ("batch_norm", 512), ("relu", 128),
            ("fc2", 4_626), ("sigmoid", 72),
        ]
        assert (report.classifier_params, report.classifier_flops_per_pair) == (params, per_pair)

    def test_resampler_taps_are_those_resample_multiplies(self):
        """Each output at the formant rate costs 2 flops per tap plus 2."""
        per_output = cost_report("acoustic").extraction_breakdown["formant_rate_resample"] / ANALYSIS_RATE
        up, down = Fraction(ANALYSIS_RATE, INTERNAL_RATE).as_integer_ratio()
        assert (up, down) == (11, 16)
        assert (per_output - 2) / 2 == _polyphase_taps(up, down).shape[1]

    def test_correction_terms_are_those_tilt_measures_computes(self, monkeypatch):
        """One row with every formant tracked passes _CORRECTION_TERMS formant terms to correction_db."""
        terms = []

        def counting(freq, frequencies, bandwidths, sample_rate):
            assert freq.shape == (1,)
            terms.append(frequencies.shape[1])
            return correction_db(freq, frequencies, bandwidths, sample_rate)

        monkeypatch.setattr(harmonics, "correction_db", counting)
        spec = magnitude_spectrum(np.sin(np.arange(640) * 0.3), INTERNAL_RATE)
        formants = 500.0 + 1000.0 * np.arange(MAX_FORMANTS)[np.newaxis]
        harmonics.tilt_measures(spec, 150.0, formants, np.full_like(formants, 100.0))
        assert sum(terms) == _CORRECTION_TERMS == 11

    def test_text_format_mentions_conventions(self):
        text = cost_report("acoustic").format_text()
        assert "conventions:" in text
        assert "params=0" in text

    def test_model_must_read_the_kind_names(self):
        model = init_model(feature_names_for("acoustic"), STANDARD_DESCRIPTORS, TrainConfig(),
                           np.random.default_rng(0))
        assert cost_report("acoustic", model).dim_per_utterance == 26
        with pytest.raises(SchemaError, match="reads 26 features, not the 13 lfc feature names"):
            cost_report("lfc", model)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            cost_report("plp")
