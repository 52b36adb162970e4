"""Cross-module verification harness.

Holds the independent oracles the test suite checks the fast paths
against (a direct single-frequency DFT projection, the Levinson step-down
from LPC to reflection coefficients, the synthetic comb
rendered line by line with np.cos, the full inverse FFTs of the pitch
ACF and of the cepstrum, the pitch tracker and CPP written out over
them one row at a time,
exhaustive-threshold FAR/FRR and EER sweeps, the textbook training loop),
and the seeded synthetic-voice corpus whose pair labels are exact by
construction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .audio import SynthSpec, _peak_normalize, _resonate, hann_magnitudes
from .diffnet import (
    _LOGIT_CLAMP,
    _STD_GUARD,
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPSILON,
    BN_EPSILON,
    BN_MOMENTUM,
    DECISION_THRESHOLD,
    PairColumns,
    TrainConfig,
    _pair_index,
    _score_rows,
    batch_loss,
    init_model,
    normalize_input,
)
from .harmonics import Spectrum
from .noise_metrics import (
    _LOG_GUARD,
    _REL_SPECTRAL_FLOOR,
    QUEFRENCY_CEILING,
    QUEFRENCY_FLOOR,
    TREND_FLOOR,
)
from .pitch import _SHORT_LAG_MARGIN, LAG_OVERSAMPLE, PitchConfig, acf_fft_size

_ORACLE_FLOOR_DB = -120.0

# Descriptor -> generator knob. Labels order by the knob's ground truth.
CORPUS_DESCRIPTORS = {
    "higher": "f0",
    "brighter": "tilt_db_per_octave",
    "rougher": "subharmonic_gain",
}

# Pairs whose knob values differ by less than this are not emitted; the
# labels stay exact either way, this just keeps the planted differences
# above the extraction noise floor.
_MIN_GAP = {
    "f0": 12.0,
    "tilt_db_per_octave": 1.5,
    "subharmonic_gain": 0.03,
}


def dft_amplitude_oracle(samples, freq: float, sample_rate: float) -> float:
    """Level (dB) of the Hann-windowed frame at exactly `freq`.

    A direct projection onto one complex exponential, sharing only the dB
    reference with harmonics.harmonic_levels; clamped at -120 dB for silence.
    """
    x = np.asarray(samples, dtype=np.float64)
    if freq >= sample_rate / 2.0:
        raise ValueError("frequency must be below Nyquist")
    n = np.arange(x.size)
    projection = np.sum(x * np.hanning(x.size) * np.exp(-2j * np.pi * freq * n / sample_rate))
    magnitude = abs(projection)
    if magnitude <= 0.0:
        return _ORACLE_FLOOR_DB
    return float(max(20.0 * np.log10(magnitude), _ORACLE_FLOOR_DB))


def reflections_from_lpc(lpc) -> np.ndarray:
    """Reflection coefficients k_1..k_p of the model 1 + sum a_k z^-k, by the Levinson step-down recursion.

    Stage m's last coefficient is k_m, and stage m - 1's a_i is
    (a_i - k_m * a_(m-i)) / (1 - k_m**2), so no k_m past the first may be
    +-1. The model is minimum phase exactly when every |k_m| < 1.
    """
    a = np.array(lpc, dtype=np.float64)
    reflections = np.empty(a.size)
    for m in range(a.size, 0, -1):
        reflections[m - 1] = k = a[m - 1]
        a = (a[: m - 1] - k * a[: m - 1][::-1]) / (1.0 - k * k)
    return reflections


def comb_reference(spec: SynthSpec) -> np.ndarray:
    """Samples of a pulse_train, resonated_pulses or mixture spec, one np.cos per line.

    The oracle for synth's phasor kernel: the same lines, phases (one scalar
    draw per line, harmonics first, then subharmonics, then noise), noise,
    resonators and peak normalization, with each line evaluated on its own.
    """
    sr = spec.sample_rate
    n = int(round(spec.duration * sr))
    t = np.arange(n) / sr
    rng = np.random.default_rng(spec.seed)
    x = np.zeros(n)
    if spec.kind in ("pulse_train", "resonated_pulses"):
        k_max = int(np.floor(0.475 * sr / spec.f0))
        for k in range(1, k_max + 1):
            x += np.cos(2.0 * np.pi * spec.f0 * (k * t))
        x /= k_max
        if spec.kind == "pulse_train":
            return x * spec.amplitude
        return _peak_normalize(_resonate(x, spec.formants, sr), spec.amplitude)
    if spec.kind != "mixture":
        raise ValueError(f"{spec.kind!r} is not a comb kind")

    top = 0.45 * sr
    combs = [(0.0, 1.0)]
    if spec.subharmonic_gain > 0:
        combs.append((0.5, spec.subharmonic_gain))
    for offset, gain in combs:
        k = 1
        while (k - offset) * spec.f0 <= top:
            freq = (k - offset) * spec.f0
            phase = rng.uniform(0.0, 2.0 * np.pi)
            envelope = 10.0 ** (spec.tilt_db_per_octave * np.log2(freq / spec.f0) / 20.0)
            x += gain * envelope * np.cos(2.0 * np.pi * freq * t + phase)
            k += 1
    if spec.noise_gain > 0:
        x = x + spec.noise_gain * rng.uniform(-1.0, 1.0, n)
    if spec.formants:
        x = _resonate(x, spec.formants, sr)
    return _peak_normalize(x, spec.amplitude)


def acf_reference(power) -> np.ndarray:
    """All 4 * nfft lags of the oversampled ACF of each row of an nfft-point power spectrum.

    The full inverse FFT that pitch.frame_pitch forms only near its
    candidate lags.
    """
    power = np.atleast_2d(np.asarray(power, dtype=np.float64))
    return np.fft.irfft(power, 4 * 2 * (power.shape[1] - 1))


def pitch_reference(frames, config: PitchConfig, sample_rate: float, global_peak: float):
    """(f0, strength) of each row of a [frames x window] matrix, as frame_pitch defines them, one row at a time.

    Every oversampled lag of acf_reference is formed and searched, with no
    candidate pruning. A row whose |x| peak is under silence_threshold
    times global_peak, or whose power is all zero, reads NaN and 0. The
    normalized ACF is the row's (mean removed, Hann-tapered) over the
    taper's, each over its lag 0. Its local maxima (above the lag before,
    at least the lag after) at lags 4 lag_min..4 lag_max + 4 are refined by
    a 3-point parabola where the triple curves down. strength is the best
    value clipped to [0, 1]; where it reaches voicing_threshold, f0 is
    read at the shortest lag within pitch._SHORT_LAG_MARGIN of the best,
    clipped to [floor, ceiling].
    """
    frames = np.atleast_2d(np.asarray(frames, dtype=np.float64))
    n = frames.shape[1]
    lag_min, lag_max = config.lag_range(sample_rate)
    nfft = acf_fft_size(n, lag_max)
    lags = np.arange(LAG_OVERSAMPLE * lag_min - 1, LAG_OVERSAMPLE * (lag_max + 1) + 2)
    taper = acf_reference(hann_magnitudes(np.ones((1, n)), nfft) ** 2)[0]
    taper = taper[lags] / taper[0]
    f0, strength = np.full(frames.shape[0], np.nan), np.zeros(frames.shape[0])
    for i, frame in enumerate(frames):
        if global_peak <= 0 or np.max(np.abs(frame)) < config.silence_threshold * global_peak:
            continue
        acf = acf_reference(hann_magnitudes((frame - frame.mean())[np.newaxis], nfft) ** 2)[0]
        if not acf[0] > 0:
            continue
        r = acf[lags] / acf[0] / taper
        left, mid, right = r[:-2], r[1:-1], r[2:]
        peaks = np.flatnonzero((mid > left) & (mid >= right))
        if peaks.size == 0:
            continue
        values, positions = [], []
        for j in peaks:
            curve = left[j] - 2.0 * mid[j] + right[j]
            shift = 0.5 * (left[j] - right[j]) / curve if curve < 0 else 0.0
            values.append(mid[j] - 0.25 * (left[j] - right[j]) * shift)
            positions.append(lags[j + 1] + shift)
        best = max(values)
        strength[i] = min(max(best, 0.0), 1.0)
        if strength[i] >= config.voicing_threshold:
            shortest = min(p for p, v in zip(positions, values) if v >= best - _SHORT_LAG_MARGIN)
            f0[i] = min(max(sample_rate * LAG_OVERSAMPLE / shortest, config.floor), config.ceiling)
    return f0, strength


def cepstrum_reference(level_db) -> np.ndarray:
    """The full real cepstrum of each row of a one-sided dB spectrum, by the inverse FFT."""
    level_db = np.atleast_2d(np.asarray(level_db, dtype=np.float64))
    return np.fft.irfft(level_db, 2 * (level_db.shape[1] - 1))


def cepstral_peak_reference(spec: Spectrum) -> tuple[np.ndarray, np.ndarray]:
    """(peak quefrency in s, CPP in dB) of each row of a slice spectrum, one row at a time.

    CPP's definition written out over the whole cepstrum_reference: the dB
    spectrum above _REL_SPECTRAL_FLOOR times its peak, the log-magnitude
    cepstrum, its largest bin in [QUEFRENCY_FLOOR, QUEFRENCY_CEILING]
    refined by a 3-point parabola, and np.polyfit's line over
    [TREND_FLOOR, QUEFRENCY_CEILING] subtracted there. An all-zero row
    reads NaN twice.
    """
    sr = spec.sample_rate
    lo = int(np.ceil(QUEFRENCY_FLOOR * sr))
    hi = min(int(np.floor(QUEFRENCY_CEILING * sr)), spec.fft_size // 2 - 2)
    t0 = max(2, int(np.ceil(TREND_FLOOR * sr)))
    peak_q, prominence = [], []
    for mags in spec.magnitudes:
        if mags.max() <= 0:
            peak_q.append(np.nan)
            prominence.append(np.nan)
            continue
        level_db = 20.0 * np.log10(np.maximum(mags, _REL_SPECTRAL_FLOOR * mags.max()))
        cep_db = 20.0 * np.log10(np.abs(cepstrum_reference(level_db)[0]) + _LOG_GUARD)
        k = lo + int(np.argmax(cep_db[lo : hi + 1]))
        left, mid, right = cep_db[k - 1 : k + 2]
        curve = left - 2.0 * mid + right
        shift = 0.5 * (left - right) / curve if curve < 0 else 0.0
        q = (k + shift) / sr
        slope, intercept = np.polyfit(np.arange(t0, hi + 1) / sr, cep_db[t0 : hi + 1], 1)
        peak_q.append(q)
        prominence.append(mid - 0.25 * (left - right) * shift - (slope * q + intercept))
    return np.array(peak_q), np.array(prominence)


def far_frr_oracle(scores, positive) -> list[tuple[float, float, float]]:
    """(threshold, FAR, FRR) at every distinct score plus the sentinel, pure-Python loops.

    Same convention as evaluation.far_frr_curve, computed the slow way: each
    threshold recounts both classes one pair at a time.
    """
    scores = [float(s) for s in scores]
    positive = [bool(p) for p in positive]
    pos = [s for s, p in zip(scores, positive) if p]
    neg = [s for s, p in zip(scores, positive) if not p]
    if not pos or not neg:
        raise ValueError("both label classes are required")

    thresholds = sorted(set(scores))
    thresholds.append(thresholds[-1] + 1.0)
    points = []
    for t in thresholds:
        false_accepts = sum(1 for s in neg if s >= t)
        false_rejects = sum(1 for s in pos if s < t)
        points.append((t, false_accepts / len(neg), false_rejects / len(pos)))
    return points


def eer_oracle(scores, positive) -> float:
    """Exhaustive-threshold EER in percent, pure-Python loops throughout.

    Same convention as evaluation.eer (positive class = second utterance
    stronger, linear interpolation at the rate crossing) computed the slow
    way over far_frr_oracle's points.
    """
    previous = None
    for _, far, frr in far_frr_oracle(scores, positive):
        if far - frr <= 0.0:
            # The first point has FAR 1 and FRR 0, so a previous point exists and d0 > 0 >= d1.
            far0, frr0 = previous
            d0, d1 = far0 - frr0, far - frr
            alpha = d0 / (d0 - d1)
            return (far0 + alpha * (far - far0)) * 100.0
        previous = (far, frr)
    raise AssertionError("rate curves never crossed")  # unreachable: sentinel guarantees it


def _reference_forward(model, e_pair, rng):
    """Train-mode forward as written out: z-score the batch, BN variance from u.var."""
    z = normalize_input(model, e_pair)
    x = z * np.concatenate([model.feature_weights, model.feature_weights])
    u = x @ model.w1 + model.b1
    mu = u.mean(axis=0)
    var = u.var(axis=0)
    inv_sigma = 1.0 / np.sqrt(var + BN_EPSILON)
    u_hat = (u - mu) * inv_sigma
    bn_out = model.gamma * u_hat + model.beta
    h = np.maximum(bn_out, 0.0)
    if model.dropout > 0.0:
        mask = (rng.random(h.shape) >= model.dropout) / (1.0 - model.dropout)
    else:
        mask = np.ones_like(h)
    h_drop = h * mask
    logits = np.clip(h_drop @ model.w2 + model.b2, -_LOGIT_CLAMP, _LOGIT_CLAMP)
    scores = 1.0 / (1.0 + np.exp(-logits))
    cache = {"z": z, "x": x, "u": u, "mu": mu, "var": var, "inv_sigma": inv_sigma,
             "u_hat": u_hat, "bn_out": bn_out, "mask": mask, "h_drop": h_drop}
    return scores, cache


def _reference_backward(model, cache, scores, desc_idx, targets) -> dict[str, np.ndarray]:
    """Gradients of the mean batch BCE, with the textbook batch-norm backward."""
    batch = scores.shape[0]
    d = len(model.feature_names)
    g_logits = np.zeros_like(scores)
    rows = np.arange(batch)
    g_logits[rows, desc_idx] = (scores[rows, desc_idx] - targets) / batch
    g_w2 = cache["h_drop"].T @ g_logits
    g_b2 = g_logits.sum(axis=0)
    g_bn_out = (g_logits @ model.w2.T) * cache["mask"] * (cache["bn_out"] > 0.0)
    g_gamma = (g_bn_out * cache["u_hat"]).sum(axis=0)
    g_beta = g_bn_out.sum(axis=0)
    g_u_hat = g_bn_out * model.gamma
    u_centered = cache["u"] - cache["mu"]
    inv_sigma = cache["inv_sigma"]
    g_var = (g_u_hat * u_centered * -0.5 * inv_sigma**3).sum(axis=0)
    g_mu = (g_u_hat * -inv_sigma).sum(axis=0) + g_var * (-2.0 * u_centered).mean(axis=0)
    g_u = g_u_hat * inv_sigma + g_var * 2.0 * u_centered / batch + g_mu / batch
    g_x = g_u @ model.w1.T
    gz = g_x * cache["z"]
    return {
        "feature_weights": gz[:, :d].sum(axis=0) + gz[:, d:].sum(axis=0),
        "w1": cache["x"].T @ g_u,
        "b1": g_u.sum(axis=0),
        "gamma": g_gamma,
        "beta": g_beta,
        "w2": g_w2,
        "b2": g_b2,
    }


def train_reference(pairs: PairColumns, features, config: TrainConfig = TrainConfig()):
    """diffnet.train written out step by step; train must equal it bit for bit.

    Each batch is z-scored on its own, BN takes the batch variance from
    u.var, the BN backward is the unfolded chain rule, and Adam keeps its
    moments and updates per parameter group. Returns (model, log) as train does.
    """
    descriptors = tuple(sorted(set(pairs.descriptor)))
    rng = np.random.default_rng(config.seed)
    table, rows, desc_idx, targets = _pair_index(pairs, features, descriptors)
    norm_std = np.maximum(table.std(axis=0), _STD_GUARD)
    model = init_model(features.names, descriptors, config, rng, table.mean(axis=0), norm_std)
    x_all = table[rows].reshape(len(pairs), -1)
    m = {k: np.zeros_like(p) for k, p in model.parameter_groups().items()}
    v = {k: np.zeros_like(p) for k, p in model.parameter_groups().items()}
    t = 0
    log = []
    n = len(pairs)
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n)
        epoch_loss = 0.0
        starts = list(range(0, n, config.batch_size))
        if n - starts[-1] == 1:
            starts.pop()  # the leftover single pair joins the batch before it
        for start, stop in zip(starts, starts[1:] + [n]):
            sel = order[start:stop]
            scores, cache = _reference_forward(model, x_all[sel], rng)
            epoch_loss += batch_loss(scores, desc_idx[sel], targets[sel]) * sel.size
            grads = _reference_backward(model, cache, scores, desc_idx[sel], targets[sel])
            t += 1
            params = model.parameter_groups()
            for name, grad in grads.items():
                m[name] = ADAM_BETA1 * m[name] + (1 - ADAM_BETA1) * grad
                v[name] = ADAM_BETA2 * v[name] + (1 - ADAM_BETA2) * grad * grad
                m_hat = m[name] / (1 - ADAM_BETA1**t)
                v_hat = v[name] / (1 - ADAM_BETA2**t)
                params[name] -= config.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)
            model.running_mean += BN_MOMENTUM * (cache["mu"] - model.running_mean)
            model.running_var += BN_MOMENTUM * (cache["var"] - model.running_var)
        picked = _score_rows(model, table, rows, desc_idx)
        train_acc = float(np.mean((picked >= DECISION_THRESHOLD) == (targets == 1.0)))
        log.append({"epoch": epoch, "loss": epoch_loss / n, "train_accuracy": train_acc})
    return model, log


@dataclass(frozen=True)
class SyntheticVoice:
    utt_id: str
    spec: SynthSpec
    truth: dict[str, float]


@dataclass(frozen=True)
class SyntheticCorpus:
    voices: list[SyntheticVoice]
    pairs: PairColumns
    splits: dict[str, str]  # utt_id -> "train" | "test"

    def split_pairs(self, split: str) -> PairColumns:
        in_split = np.fromiter((self.splits[u] == split for u in self.pairs.utt_a), bool, len(self.pairs))
        return self.pairs.take(in_split)


def _split_sizes(size: int) -> tuple[int, int]:
    """(train, test) voice counts of the 70/30 speaker split."""
    n_train = max(1, int(round(size * 0.7)))
    return n_train, size - n_train


def build_timbre_corpus(seed: int, size: int, pairs_per_descriptor: int = 600) -> SyntheticCorpus:
    """Seeded corpus of resonated synthetic voices with exact pair labels.

    Each voice draws an f0, a source tilt, a subharmonic gain, a touch of
    noise, and jittered vocal-tract resonances; the three descriptors map
    one-to-one onto the first three knobs and every pair is labeled by the
    true knob ordering. Speakers are split 70/30 into train/test with no
    overlap, and pairs never cross the split.
    """
    if min(_split_sizes(size)) < 2:
        usable = next(n for n in itertools.count(2) if min(_split_sizes(n)) >= 2)
        raise ValueError(
            f"corpus of {size} voices leaves a split with fewer than two voices; "
            f"the smallest usable size is {usable}"
        )
    rng = np.random.default_rng(seed)

    voices = []
    for i in range(size):
        f0 = float(rng.uniform(95.0, 260.0))
        # Source rolloff window where all four resonances stay detectable:
        # steeper than about -10 dB/octave starves F4.
        tilt = float(rng.uniform(-9.0, -2.0))
        # Kept above the -30 dB SHR clamp (gain 0.032) and below the point
        # where the period-doubled component starts capturing the pitch.
        sub_gain = float(rng.uniform(0.04, 0.11))
        noise_gain = float(rng.uniform(0.002, 0.01))
        formants = tuple(
            (float(rng.normal(center, center * 0.06)), bandwidth)
            for center, bandwidth in ((500.0, 80.0), (1500.0, 100.0), (2500.0, 150.0), (3500.0, 200.0))
        )
        spec = SynthSpec(
            kind="mixture",
            f0=f0,
            duration=1.0,
            amplitude=0.4,
            formants=formants,
            subharmonic_gain=sub_gain,
            noise_gain=noise_gain,
            tilt_db_per_octave=tilt,
            seed=int(seed * 10007 + i),
        )
        truth = {"f0": f0, "tilt_db_per_octave": tilt, "subharmonic_gain": sub_gain}
        voices.append(SyntheticVoice(f"spk{i:03d}", spec, truth))

    n_train, _ = _split_sizes(size)
    splits = {v.utt_id: ("train" if i < n_train else "test") for i, v in enumerate(voices)}
    by_split = {
        "train": [v for v in voices if splits[v.utt_id] == "train"],
        "test": [v for v in voices if splits[v.utt_id] == "test"],
    }

    pairs = []  # (utt_a, utt_b, descriptor, b_stronger)
    for descriptor, knob in CORPUS_DESCRIPTORS.items():
        for split, members in by_split.items():
            want = pairs_per_descriptor if split == "train" else max(1, pairs_per_descriptor // 3)
            made = 0
            attempts = 0
            while made < want and attempts < want * 50:
                attempts += 1
                a, b = rng.choice(len(members), size=2, replace=False)
                va, vb = members[a], members[b]
                if abs(va.truth[knob] - vb.truth[knob]) < _MIN_GAP[knob]:
                    continue
                pairs.append((va.utt_id, vb.utt_id, descriptor, va.truth[knob] < vb.truth[knob]))
                made += 1
    table = np.array(pairs, dtype=object).reshape(-1, 4)
    columns = PairColumns(table[:, 0], table[:, 1], table[:, 2], table[:, 3].astype(bool))
    return SyntheticCorpus(voices=voices, pairs=columns, splits=splits)
