"""The pairwise attribute classifier and its training loop.

Architecture: a per-feature diagonal gain layer (the same gains applied to
both halves of the concatenated pair, so one weight per feature stays
reportable), a fully-connected layer into batch normalization, ReLU and
dropout, and a second fully-connected layer with one sigmoid output per
descriptor. Loss is binary cross-entropy on the output indexed by the
annotated descriptor: target 0 when the first utterance is stronger,
1 when the second is.

Everything is plain numpy with explicit gradients; training is exactly
reproducible from the seed.

A training step centres the fc1 activations once: forward takes the BN
batch variance from them and caches them, and backward reuses them. Adam
runs over one flat buffer that the model's parameter groups are views of,
with the step's gradients concatenated into one vector. Each of these
gives bitwise the values of the textbook loop kept in
testkit.train_reference, which the tests compare train against.

The step computes in place: forward, backward, Adam and the per-block
hidden sums of the epoch scoring write each result into an array they have
already allocated (`u += b1`, `g *= mask`, the ReLU into the sum's own
array), never into their inputs or the model's tensors (apart from Adam's
update). An in-place form stands in for an expression only where it runs
the same IEEE operations in the same order, so the bits do not move; a
chain such as (a * b) * c is never refolded into a * (b * c).
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .audio import row_chunks
from .features import FeatureTable, SchemaError, _repeated, _unique_keys

A_STRONGER = "A"
B_STRONGER = "B"

# The standard descriptor vocabulary; manifests may extend it (a checker
# warns), and a trained model carries whatever vocabulary it was fit on.
STANDARD_DESCRIPTORS = (
    "Bright", "Coarse", "Low", "Rich", "Muddy", "Round", "Shrill", "Muffled",
    "Transparent", "Thin", "Slim", "Pure", "Magnetic", "Hoarse", "Flat",
    "Shrivelled", "Soft", "Husky",
)

_SCORE_CLAMP = 1e-7
_LOGIT_CLAMP = 30.0
_ZSCORE_CLIP = 10.0
_STD_GUARD = 1e-12

CHECKPOINT_VERSION = 1

# Adam's moment decay rates and denominator guard (Kingma & Ba's defaults);
# train and testkit.train_reference both read them.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8
# Batch norm's running-statistic momentum and variance guard; every BN reader
# and testkit.train_reference read them, and a checkpoint records both.
BN_MOMENTUM = 0.1
BN_EPSILON = 1e-5
# Scores at or above this predict the second utterance (B) as stronger.
DECISION_THRESHOLD = 0.5


@dataclass(frozen=True)
class PairRecord:
    """One annotated comparison: which of two utterances is stronger in a descriptor."""

    utt_a: str
    utt_b: str
    descriptor: str
    label: str

    def __post_init__(self):
        if self.utt_a == self.utt_b:
            raise ValueError("a pair must reference two distinct utterances")
        if self.label not in (A_STRONGER, B_STRONGER):
            raise ValueError(f"label must be {A_STRONGER!r} or {B_STRONGER!r}")


@dataclass(frozen=True)
class PairColumns:
    """Pairs as four arrays of equal length, one entry per pair.

    utt_a, utt_b and descriptor are object arrays of str; b_stronger is
    True where the label is B_STRONGER. train and score_pairs read pairs in
    this form; a PairRecord sequence is converted once on entry.
    """

    utt_a: np.ndarray
    utt_b: np.ndarray
    descriptor: np.ndarray
    b_stronger: np.ndarray

    def __post_init__(self):
        n = len(self.b_stronger)
        if any(len(col) != n for col in (self.utt_a, self.utt_b, self.descriptor)):
            raise ValueError("pair columns must have equal lengths")
        if self.b_stronger.dtype != bool:
            raise ValueError("b_stronger must be a bool array")
        if np.any(self.utt_a == self.utt_b):
            raise ValueError("a pair must reference two distinct utterances")

    @classmethod
    def from_records(cls, pairs) -> "PairColumns":
        n = len(pairs)
        return cls(
            np.fromiter((p.utt_a for p in pairs), object, n),
            np.fromiter((p.utt_b for p in pairs), object, n),
            np.fromiter((p.descriptor for p in pairs), object, n),
            np.fromiter((p.label == B_STRONGER for p in pairs), bool, n),
        )

    def __len__(self) -> int:
        return len(self.b_stronger)

    def take(self, index) -> "PairColumns":
        """The pairs at an index array or boolean mask, in that order."""
        return PairColumns(
            self.utt_a[index], self.utt_b[index], self.descriptor[index], self.b_stronger[index]
        )

    def record(self, i: int) -> PairRecord:
        label = B_STRONGER if self.b_stronger[i] else A_STRONGER
        return PairRecord(self.utt_a[i], self.utt_b[i], self.descriptor[i], label)


def _as_columns(pairs) -> PairColumns:
    return pairs if isinstance(pairs, PairColumns) else PairColumns.from_records(pairs)


@dataclass(frozen=True)
class TrainConfig:
    hidden_dim: int = 128
    dropout: float = 0.3
    learning_rate: float = 1e-3
    batch_size: int = 256
    epochs: int = 30
    seed: int = 0

    def __post_init__(self):
        if self.hidden_dim < 1:
            raise ValueError(f"hidden_dim must be at least 1, got {self.hidden_dim}")
        if not 0 <= self.dropout < 1:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be a finite positive number, got {self.learning_rate}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be at least 1, got {self.epochs}")
        # A one-row batch has zero batch-norm variance.
        if self.batch_size < 2:
            raise ValueError(f"batch_size must be at least 2, got {self.batch_size}")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")


@dataclass
class DiffNetModel:
    """All learnable state plus the input-normalization statistics."""

    feature_names: tuple[str, ...]
    descriptors: tuple[str, ...]
    feature_weights: np.ndarray  # [D], shared across both halves
    w1: np.ndarray  # [2D, H]
    b1: np.ndarray  # [H]
    gamma: np.ndarray  # [H]
    beta: np.ndarray  # [H]
    running_mean: np.ndarray  # [H]
    running_var: np.ndarray  # [H]
    w2: np.ndarray  # [H, N]
    b2: np.ndarray  # [N]
    norm_mean: np.ndarray  # [D], z-score statistics of one embedding
    norm_std: np.ndarray  # [D]
    dropout: float

    @property
    def input_dim(self) -> int:
        return 2 * len(self.feature_names)

    @property
    def hidden_dim(self) -> int:
        return self.b1.size

    def parameter_groups(self) -> dict[str, np.ndarray]:
        """The trainable tensors, in a fixed order."""
        return {
            "feature_weights": self.feature_weights,
            "w1": self.w1,
            "b1": self.b1,
            "gamma": self.gamma,
            "beta": self.beta,
            "w2": self.w2,
            "b2": self.b2,
        }

    def parameter_count(self) -> int:
        return sum(p.size for p in self.parameter_groups().values())


def init_model(
    feature_names,
    descriptors,
    config: TrainConfig,
    rng: np.random.Generator,
    norm_mean=None,
    norm_std=None,
) -> DiffNetModel:
    """Fresh model: unit feature gains, He-scaled fc1, small fc2."""
    d = len(feature_names)
    h = config.hidden_dim
    n = len(descriptors)
    if d < 1 or n < 1:
        raise ValueError("need at least one feature and one descriptor")
    return DiffNetModel(
        feature_names=tuple(feature_names),
        descriptors=tuple(descriptors),
        feature_weights=np.ones(d),
        w1=rng.normal(0.0, np.sqrt(2.0 / (2 * d)), size=(2 * d, h)),
        b1=np.zeros(h),
        gamma=np.ones(h),
        beta=np.zeros(h),
        running_mean=np.zeros(h),
        running_var=np.ones(h),
        w2=rng.normal(0.0, np.sqrt(1.0 / h), size=(h, n)),
        b2=np.zeros(n),
        norm_mean=np.zeros(d) if norm_mean is None else np.asarray(norm_mean, float),
        norm_std=np.ones(d) if norm_std is None else np.asarray(norm_std, float),
        dropout=config.dropout,
    )


def _zscore(model: DiffNetModel, x: np.ndarray) -> np.ndarray:
    """[..., D] rows z-scored with the training statistics and clipped to +-10, in a fresh array."""
    z = x - model.norm_mean
    z /= model.norm_std
    return np.clip(z, -_ZSCORE_CLIP, _ZSCORE_CLIP, out=z)


def _sigmoid(logits: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-logits)) with logits clamped to +-30, one operation at a time in logits' own array."""
    np.clip(logits, -_LOGIT_CLAMP, _LOGIT_CLAMP, out=logits)
    np.exp(np.negative(logits, out=logits), out=logits)
    logits += 1.0
    return np.divide(1.0, logits, out=logits)


def normalize_input(model: DiffNetModel, e_pair: np.ndarray) -> np.ndarray:
    """Z-score each half with the training statistics, clipped to +-10."""
    x = np.atleast_2d(np.asarray(e_pair, dtype=np.float64))
    if x.shape[1] != model.input_dim:
        raise ValueError(f"expected input dim {model.input_dim}, got {x.shape[1]}")
    return _zscore(model, x.reshape(-1, 2, len(model.feature_names))).reshape(x.shape)


def forward(
    model: DiffNetModel,
    e_pair: np.ndarray,
    mode: str = "infer",
    rng: np.random.Generator | None = None,
):
    """[B, N] scores in (0, 1) for each descriptor; a 1-D pair is a one-row batch.

    Infer mode returns the scores alone: running statistics for BN, no
    dropout, fully deterministic. Train mode returns (scores, cache): batch
    statistics for BN and an inverted dropout mask drawn from rng. No state
    is mutated here; the training loop updates the running statistics from the cache.
    """
    z = normalize_input(model, e_pair)
    train = mode == "train"
    if mode not in ("train", "infer"):
        raise ValueError(f"mode must be 'train' or 'infer', got {mode!r}")

    x = z * np.concatenate([model.feature_weights, model.feature_weights])
    # u = x @ w1 + b1, centred in place.
    u_centered = x @ model.w1
    u_centered += model.b1
    mu = u_centered.mean(axis=0) if train else model.running_mean
    u_centered -= mu
    # Bitwise equal to u.var(axis=0), which centres u the same way.
    var = (u_centered * u_centered).sum(axis=0) / u_centered.shape[0] if train else model.running_var
    inv_sigma = 1.0 / np.sqrt(var + BN_EPSILON)
    # bn_out = gamma * u_hat + beta, with u_hat = u_centered * inv_sigma formed
    # in bn_out's own array; backward forms u_hat again rather than cache it.
    bn_out = u_centered * inv_sigma
    bn_out *= model.gamma
    bn_out += model.beta
    h_drop = np.maximum(bn_out, 0.0)

    mask = 1.0  # no dropout: multiplying by 1 leaves every bit as it is
    if train and model.dropout > 0.0:
        if rng is None:
            raise ValueError("train mode with dropout needs an rng")
        mask = rng.random(h_drop.shape)
        np.divide(mask >= model.dropout, 1.0 - model.dropout, out=mask)
        h_drop *= mask

    scores = h_drop @ model.w2
    scores += model.b2
    _sigmoid(scores)
    if not train:
        return scores
    return scores, {
        "z": z, "x": x, "u_centered": u_centered, "mu": mu, "var": var, "inv_sigma": inv_sigma,
        "bn_out": bn_out, "mask": mask, "h_drop": h_drop, "scores": scores,
    }


def batch_loss(scores: np.ndarray, desc_idx: np.ndarray, targets: np.ndarray) -> float:
    """Mean masked BCE over a batch."""
    s = np.clip(scores[np.arange(scores.shape[0]), desc_idx], _SCORE_CLAMP, 1.0 - _SCORE_CLAMP)
    return float(np.mean(-(targets * np.log(s) + (1.0 - targets) * np.log(1.0 - s))))


def backward(
    model: DiffNetModel, cache: dict, desc_idx: np.ndarray, targets: np.ndarray
) -> dict[str, np.ndarray]:
    """Exact gradients of the mean batch loss for every parameter group.

    Only the descriptor-indexed output of each sample receives gradient;
    the dropout mask and the BN batch statistics are those of the cache.
    """
    scores = cache["scores"]
    batch = scores.shape[0]
    d = len(model.feature_names)

    g_logits = np.zeros_like(scores)
    rows = np.arange(batch)
    g_logits[rows, desc_idx] = (scores[rows, desc_idx] - targets) / batch

    g_w2 = cache["h_drop"].T @ g_logits
    g_b2 = g_logits.sum(axis=0)
    # g holds in turn the gradient of h_drop, h, bn_out, u_hat and u; t is
    # the scratch for each product that is only summed.
    g = g_logits @ model.w2.T
    g *= cache["mask"]
    g *= cache["bn_out"] > 0.0

    u_centered, inv_sigma = cache["u_centered"], cache["inv_sigma"]
    t = u_centered * inv_sigma  # u_hat, as forward formed it
    t *= g
    g_gamma = t.sum(axis=0)
    g_beta = g.sum(axis=0)
    g *= model.gamma
    # The textbook BN backward with its -0.5, -1 and -2 factors folded into
    # [H] vectors; scaling by a power of two commutes with rounding, so
    # every value is bitwise what the unfolded expressions give.
    np.multiply(g, u_centered, out=t)
    t *= -0.5 * inv_sigma**3
    g_var = t.sum(axis=0)
    g *= inv_sigma
    g_mu = -g.sum(axis=0) + g_var * (-2.0 * u_centered.mean(axis=0))
    np.multiply(g_var * 2.0, u_centered, out=t)
    t /= batch
    g += t
    g += g_mu / batch

    g_w1 = cache["x"].T @ g
    g_b1 = g.sum(axis=0)
    gz = g @ model.w1.T
    gz *= cache["z"]
    g_gains = gz[:, :d].sum(axis=0) + gz[:, d:].sum(axis=0)

    return {
        "feature_weights": g_gains,
        "w1": g_w1,
        "b1": g_b1,
        "gamma": g_gamma,
        "beta": g_beta,
        "w2": g_w2,
        "b2": g_b2,
    }


class _FlatAdam:
    """Adam over one flat buffer; the model's parameter groups become views of it.

    Adam is elementwise, so one pass over the buffer gives bitwise the values
    of one pass per group. Each step concatenates the gradients into one
    buffer and computes in two scratch buffers of the same size.
    """

    def __init__(self, model: DiffNetModel, learning_rate: float):
        groups = model.parameter_groups()
        self.names = tuple(groups)
        self.params = np.concatenate([p.ravel() for p in groups.values()])
        offset = 0
        for name, p in groups.items():
            setattr(model, name, self.params[offset : offset + p.size].reshape(p.shape))
            offset += p.size
        self.m = np.zeros_like(self.params)
        self.v = np.zeros_like(self.params)
        self.grad = np.empty_like(self.params)
        self.scratch = np.empty_like(self.params)
        self.denominator = np.empty_like(self.params)
        self.t = 0
        self.learning_rate = learning_rate

    def step(self, grads: Mapping[str, np.ndarray]) -> None:
        # The textbook update, one operation at a time:
        # m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g,
        # params -= lr (m / (1 - b1^t)) / (sqrt(v / (1 - b2^t)) + eps).
        grad, step, denominator = self.grad, self.scratch, self.denominator
        np.concatenate([grads[name].ravel() for name in self.names], out=grad)
        self.t += 1
        self.m *= ADAM_BETA1
        self.m += np.multiply(grad, 1 - ADAM_BETA1, out=step)
        self.v *= ADAM_BETA2
        np.multiply(grad, 1 - ADAM_BETA2, out=step)
        step *= grad
        self.v += step
        np.divide(self.v, 1 - ADAM_BETA2**self.t, out=denominator)
        np.sqrt(denominator, out=denominator)
        denominator += ADAM_EPSILON
        np.divide(self.m, 1 - ADAM_BETA1**self.t, out=step)
        step *= self.learning_rate
        step /= denominator
        self.params -= step


def _pair_index(pairs: PairColumns, features: FeatureTable, descriptors):
    """(table, rows, desc_idx, targets) for `pairs`; KeyError names missing ids and descriptors.

    table holds the [U x D] vectors of the distinct utterances in sorted-id
    order, D being len(features.names) or SchemaError; rows holds each pair's [utt_a, utt_b] rows of it.
    """
    ids = sorted(set(pairs.utt_a) | set(pairs.utt_b))
    missing = [u for u in ids if u not in features]
    if missing:
        raise KeyError(f"no feature vectors for: {', '.join(missing)}")
    unknown = sorted(set(pairs.descriptor) - set(descriptors))
    if unknown:
        raise KeyError(f"descriptors not in the model vocabulary: {', '.join(unknown)}")
    row = {u: i for i, u in enumerate(ids)}.__getitem__
    desc_index = {d: i for i, d in enumerate(descriptors)}.__getitem__
    n = len(pairs)
    table = np.stack([features[u] for u in ids])
    d = len(features.names)
    if table.shape[1:] != (d,):
        raise SchemaError(f"feature vectors have {table[0].size} values, the table has {d} names")
    rows = np.empty((n, 2), dtype=np.intp)
    rows[:, 0] = np.fromiter(map(row, pairs.utt_a), np.intp, n)
    rows[:, 1] = np.fromiter(map(row, pairs.utt_b), np.intp, n)
    desc_idx = np.fromiter(map(desc_index, pairs.descriptor), np.intp, n)
    return table, rows, desc_idx, pairs.b_stronger.astype(np.float64)


def _score_rows(model: DiffNetModel, table: np.ndarray, rows: np.ndarray, desc_idx: np.ndarray) -> np.ndarray:
    """Infer-mode scores of each pair's own descriptor, with fc1 factorised over the pair.

    [z_a*g, z_b*g] @ W1 = (z_a*g) @ W1[:D] + (z_b*g) @ W1[D:], and infer-mode
    BN is affine per hidden unit, so each distinct utterance of the [U x D]
    table is normalised, projected and BN-scaled once as a first and as a
    second utterance; a pair costs one gather-and-add of hidden vectors plus
    one fc2 column, done a row_chunks block of [pairs x H] at a time. Equals
    forward(mode="infer") on the gathered pairs up to rounding order.
    """
    d = len(model.feature_names)
    x = _zscore(model, table)
    x *= model.feature_weights
    scale = model.gamma / np.sqrt(model.running_var + BN_EPSILON)
    first = (x @ model.w1[:d] + model.b1 - model.running_mean) * scale + model.beta
    second = (x @ model.w1[d:]) * scale
    w2t = model.w2.T
    logits = np.empty(len(rows))
    for block in row_chunks(len(rows), 8 * first.shape[1]):
        h = first[rows[block, 0]] + second[rows[block, 1]]
        np.maximum(h, 0.0, out=h)
        logits[block] = np.einsum("ph,ph->p", h, w2t[desc_idx[block]])
    logits += model.b2[desc_idx]
    return _sigmoid(logits)


def train(
    pairs: PairColumns | Sequence[PairRecord],
    features: FeatureTable,
    config: TrainConfig = TrainConfig(),
    *,
    log_every_epoch: bool = True,
) -> tuple[DiffNetModel, list[dict]]:
    """Fit a model; returns it plus a per-epoch loss/accuracy log.

    The model's feature names are features.names; its descriptor
    vocabulary is the sorted set of the pairs' descriptors.

    An epoch's loss sums each batch's loss, and its accuracy rescores every
    training pair after the epoch. With log_every_epoch False only the last
    epoch computes them, and the log is that one entry, equal to the full
    log's last; the model is bitwise the same either way.

    Deterministic given the seed: initialization, shuffling, and dropout
    all draw from one generator, and reductions run in a fixed order.
    An epoch that leaves the loss, a parameter or a running statistic not
    finite raises ValueError naming the epoch.
    """
    pairs = _as_columns(pairs)
    if len(pairs) < 2:
        raise ValueError(f"training needs at least 2 pairs, got {len(pairs)}")
    descriptors = tuple(sorted(set(pairs.descriptor)))

    rng = np.random.default_rng(config.seed)

    # Z-score statistics over the distinct training utterances.
    table, rows, desc_idx, targets = _pair_index(pairs, features, descriptors)
    norm_mean = table.mean(axis=0)
    norm_std = np.maximum(table.std(axis=0), _STD_GUARD)

    model = init_model(features.names, descriptors, config, rng, norm_mean, norm_std)
    adam = _FlatAdam(model, config.learning_rate)

    log = []
    n = len(pairs)
    # A leftover single pair joins the last batch, since a one-row batch has zero batch-norm variance.
    stops = [*range(config.batch_size, n - 1, config.batch_size), n]
    # A diverging run overflows; the check after each epoch reports it in place of numpy's warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, config.epochs + 1):
            logged = log_every_epoch or epoch == config.epochs
            order = rng.permutation(n)
            epoch_loss = 0.0
            for start, stop in zip([0, *stops[:-1]], stops):
                sel = order[start:stop]
                # Each batch gathers its own [B x 2D] pair rows, so memory grows with U*D + P, not P*D.
                x = table[rows[sel]].reshape(sel.size, -1)
                scores, cache = forward(model, x, mode="train", rng=rng)
                if logged:
                    epoch_loss += batch_loss(scores, desc_idx[sel], targets[sel]) * sel.size
                grads = backward(model, cache, desc_idx[sel], targets[sel])
                adam.step(grads)
                # Running statistics move toward the batch moments.
                model.running_mean += BN_MOMENTUM * (cache["mu"] - model.running_mean)
                model.running_var += BN_MOMENTUM * (cache["var"] - model.running_var)
            # An unlogged epoch's loss stays 0; a non-finite loss needs non-finite scores, which make Adam's update so.
            state = (epoch_loss, adam.params, model.running_mean, model.running_var)
            if not all(np.isfinite(v).all() for v in state):
                raise ValueError(f"training diverged in epoch {epoch}: the loss or a parameter is not a finite "
                                 f"number (learning rate {config.learning_rate:g})")
            if logged:
                picked = _score_rows(model, table, rows, desc_idx)
                train_acc = float(np.mean((picked >= DECISION_THRESHOLD) == (targets == 1.0)))
                log.append({"epoch": epoch, "loss": epoch_loss / n, "train_accuracy": train_acc})
    return model, log


def score_pairs(
    model: DiffNetModel,
    pairs: PairColumns | Sequence[PairRecord],
    features: FeatureTable,
) -> np.ndarray:
    """Deterministic inference scores for each pair's own descriptor.

    SchemaError, before any utterance is looked up, unless features.names are the model's, in order.
    """
    if features.names != model.feature_names:
        differ = sorted(set(features.names) ^ set(model.feature_names)) or "their order"
        raise SchemaError(f"the table's and the model's feature names differ in {differ}")
    table, rows, desc_idx, _ = _pair_index(_as_columns(pairs), features, model.descriptors)
    return _score_rows(model, table, rows, desc_idx)


def feature_importance(model: DiffNetModel) -> list[tuple[str, float]]:
    """The learned per-feature gains, in canonical feature order."""
    return [(name, float(w)) for name, w in zip(model.feature_names, model.feature_weights)]


# The top-level fields besides format_version and the tensors a checkpoint stores.
_FIELDS = ("feature_names", "descriptors", "dropout", "bn_momentum", "bn_epsilon", "tensors")
_TENSORS = (
    "feature_weights", "w1", "b1", "gamma", "beta", "running_mean", "running_var",
    "w2", "b2", "norm_mean", "norm_std",
)


def save_checkpoint(model: DiffNetModel, path) -> None:
    """Versioned JSON checkpoint; floats round-trip bit-exactly via repr."""
    payload = {
        "format_version": CHECKPOINT_VERSION,
        "feature_names": list(model.feature_names),
        "descriptors": list(model.descriptors),
        "dropout": model.dropout,
        "bn_momentum": BN_MOMENTUM,
        "bn_epsilon": BN_EPSILON,
        "tensors": {name: getattr(model, name).tolist() for name in _TENSORS},
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True))


def load_checkpoint(path) -> DiffNetModel:
    """The model saved at path; ValueError names a field or tensor that is missing, mistyped or misshapen.

    format_version is the int CHECKPOINT_VERSION (not True or 1.0), the
    names are lists of strings none of which repeats within its list,
    dropout a finite number in [0, 1),
    bn_momentum and bn_epsilon BN_MOMENTUM and BN_EPSILON, and the tensors
    an object of arrays of finite numbers, with running_var at or above 0
    and norm_std above 0; an entry out of range is named with its tensor
    and index, and a field or tensor name that is unknown or repeated in
    one JSON object is refused.
    D is the number of feature names, N the number of descriptors and H the
    length of b1.
    """
    payload = json.loads(Path(path).read_text(), object_pairs_hook=_unique_keys)
    if not isinstance(payload, dict):
        raise ValueError("checkpoint is not a JSON object")
    version = payload.get("format_version")
    if type(version) is not int or version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version!r}")
    for name in _FIELDS:
        if name not in payload:
            raise ValueError(f"checkpoint has no field {name!r}")
    unknown = sorted(set(payload) - {"format_version", *_FIELDS})
    if unknown:
        raise ValueError(f"checkpoint has unknown fields: {', '.join(unknown)}")
    feature_names = _string_list(payload, "feature_names")
    descriptors = _string_list(payload, "descriptors")
    dropout = _finite(payload, "dropout")
    if not 0 <= dropout < 1:
        raise ValueError(f"checkpoint field 'dropout' is {dropout!r}, not in [0, 1)")
    for name, constant in (("bn_momentum", BN_MOMENTUM), ("bn_epsilon", BN_EPSILON)):
        value = _finite(payload, name)
        if value != constant:
            raise ValueError(f"checkpoint field {name!r} is {value!r}, not {constant!r}")
    stored = payload["tensors"]
    if not isinstance(stored, dict):
        raise ValueError("checkpoint field 'tensors' is not an object")
    for name in _TENSORS:
        if name not in stored:
            raise ValueError(f"checkpoint has no tensor {name!r}")
    unknown = sorted(set(stored) - set(_TENSORS))
    if unknown:
        raise ValueError(f"checkpoint has unknown tensors: {', '.join(unknown)}")
    tensors = {name: _number_array(stored, name) for name in _TENSORS}
    d, n, h = len(feature_names), len(descriptors), tensors["b1"].size
    expected = {
        "feature_weights": (d,), "norm_mean": (d,), "norm_std": (d,),
        "w1": (2 * d, h),
        "b1": (h,), "gamma": (h,), "beta": (h,), "running_mean": (h,), "running_var": (h,),
        "w2": (h, n),
        "b2": (n,),
    }
    for name in _TENSORS:
        if tensors[name].shape != expected[name]:
            raise ValueError(
                f"checkpoint tensor {name!r} has shape {list(tensors[name].shape)}, "
                f"expected {list(expected[name])}"
            )
    # Infer-mode BN divides by sqrt(running_var + BN_EPSILON) and the z-score by norm_std.
    _check_entries("running_var", tensors["running_var"], tensors["running_var"] >= 0, "a non-negative number")
    _check_entries("norm_std", tensors["norm_std"], tensors["norm_std"] > 0, "a positive number")
    return DiffNetModel(
        feature_names=feature_names,
        descriptors=descriptors,
        dropout=dropout,
        **tensors,
    )


def _string_list(payload: dict, name: str) -> tuple[str, ...]:
    value = payload[name]
    if not isinstance(value, list) or not all(isinstance(item, str) for item in value):
        raise ValueError(f"checkpoint field {name!r} is not a list of strings")
    if (repeated := _repeated(value)) is not None:
        raise ValueError(f"checkpoint field {name!r} repeats the name {repeated}")
    return tuple(value)


def _finite(payload: dict, name: str) -> float:
    value = payload[name]
    # The bound is False for inf and NaN, and for ints no float can hold.
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= sys.float_info.max:
        raise ValueError(f"checkpoint field {name!r} is {value!r}, not a finite number")
    return value


def _number_array(stored: dict, name: str) -> np.ndarray:
    try:
        array = np.array(stored[name], dtype=np.float64)
    except (TypeError, ValueError):
        raise ValueError(f"checkpoint tensor {name!r} is not an array of numbers") from None
    # json.loads reads the NaN and Infinity literals that json.dumps writes.
    _check_entries(name, array, np.isfinite(array), "a finite number")
    return array


def _check_entries(name: str, array: np.ndarray, holds: np.ndarray, what: str) -> None:
    """ValueError naming the tensor and index of the first entry where `holds` is False."""
    if not holds.all():
        at = np.argwhere(~holds)[0]
        raise ValueError(f"checkpoint tensor {name!r} holds {array[tuple(at)]} at {at.tolist()}, not {what}")
