"""Max-margin training: loss-augmented inference, the regularized objective,
per-instance SGD with learning-rate decay, dev-set model selection, model
serialization, and a finite-difference gradient checker.

The per-instance loss is

    q_i = max_lbar ( s(x_i, lbar) + Delta(l_i, lbar) ) - s(x_i, l_i)

which is non-negative because the gold sequence itself competes with
Delta = 0. For the Hamming trigger the inner max is exact: the per-position
cost folds into the emission log-probabilities and Viterbi decodes the
augmented problem. For the F-score triggers the max runs over a beam-search
candidate set (Viterbi-seeded, gold always injected) reranked by s + Delta.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass, field, fields

import numpy as np

from .corpus import Sentence, TagScheme
from .embeddings import EmbeddingTable, RowGrad
from .evaluation import evaluate
from .model import FEATURE_TABLES, WINDOW, ModelMeta, ModelParams
from .network import (
    EmissionMatrix,
    LstmParams,
    ProjectionParams,
    SentenceCache,
    backward,
    forward_sentence,
)
from .structured import ScoredSequence, beam_topk, sentence_score, viterbi
from .triggers import Trigger

DEFAULT_LR = 0.1
DEFAULT_DECAY = 0.95
DEFAULT_L2 = 1e-6
DEFAULT_EPOCHS = 20
DEFAULT_BEAM_K = 8
DEFAULT_SEED = 1


@dataclass
class TrainConfig:
    trigger: Trigger
    learning_rate: float = DEFAULT_LR
    decay: float = DEFAULT_DECAY
    l2_lambda: float = DEFAULT_L2
    epochs: int = DEFAULT_EPOCHS
    beam_k: int = DEFAULT_BEAM_K
    seed: int = DEFAULT_SEED
    window: int = WINDOW

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("learning_rate must be finite and positive")
        if not 0 < self.decay <= 1:
            raise ValueError("decay must be in (0, 1]")
        if not (math.isfinite(self.l2_lambda) and self.l2_lambda >= 0):
            raise ValueError("l2_lambda must be finite and non-negative")
        if self.epochs < 1 or self.beam_k < 1:
            raise ValueError("epochs and beam_k must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


class TrainingDivergedError(ValueError):
    """An instance loss became non-finite: the parameters overflowed."""


def trainable_tensors(params: ModelParams) -> dict[str, np.ndarray]:
    tensors = params.named_tensors()
    if not params.token_table.trainable:
        tensors.pop("emb_token")
    return tensors


def _forward(sentence: Sentence, params: ModelParams) -> SentenceCache:
    return forward_sentence(sentence, params.assembly(), params.fwd, params.bwd, params.proj)


def predict_labels(sentence: Sentence, params: ModelParams) -> list[int]:
    """Plain Viterbi decode of one encoded sentence."""
    cache = _forward(sentence, params)
    return viterbi(cache.em, params.transitions).labels


def _hamming_augmented(em: EmissionMatrix, gold: list[int], kappa: float) -> EmissionMatrix:
    """Emissions with the Hamming cost folded in: +kappa off the gold label."""
    cost = np.full(em.log_probs.shape, kappa)
    cost[np.arange(len(gold)), gold] = 0.0
    return EmissionMatrix(em.probs, em.log_probs + cost)


def _ranked(
    candidates: list[ScoredSequence], gold: list[int], trigger: Trigger, scheme: TagScheme
) -> list[tuple[float, list[int]]]:
    """(s + Delta, labels) of each candidate, best first. Ties: the first
    candidate (the plain Viterbi sequence) wins any tie it attains, otherwise
    the lexicographically smaller label sequence does."""
    vit = candidates[0].labels
    scored = [(c.score + trigger.delta(gold, c.labels, scheme), c.labels) for c in candidates]
    return sorted(scored, key=lambda item: (-item[0], item[1] != vit, item[1]))


def _augmented_best(
    gold: list[int],
    em: EmissionMatrix,
    trans: np.ndarray,
    trigger: Trigger,
    scheme: TagScheme,
    beam_k: int,
) -> tuple[list[int], float]:
    """Maximize s + Delta; returns (labels, augmented score), ties as in
    :func:`_ranked`."""
    if not trigger.needs_rerank:
        best = viterbi(_hamming_augmented(em, gold, trigger.kappa), trans)
        return best.labels, best.score

    candidates = beam_topk(em, trans, beam_k)
    if not any(c.labels == gold for c in candidates):
        candidates.append(ScoredSequence(list(gold), sentence_score(em, trans, gold)))
    aug, labels = _ranked(candidates, gold, trigger, scheme)[0]
    return labels, aug


def loss_augmented_predict(
    sentence: Sentence, params: ModelParams, trigger: Trigger, beam_k: int
) -> ScoredSequence:
    """The sequence maximizing s + Delta against this sentence's gold labels.

    The returned score is the plain sentence score of those labels (the
    augmented objective decides only which labels come back).
    """
    return instance_loss(sentence, params, trigger, beam_k)[1]


def instance_loss(
    sentence: Sentence, params: ModelParams, trigger: Trigger, beam_k: int
) -> tuple[float, ScoredSequence]:
    """(q_i, the augmented argmax) for one sentence."""
    q, lbar, _ = instance_gradients(sentence, params, trigger, beam_k, want_grads=False)
    return q, lbar


def instance_gradients(
    sentence: Sentence,
    params: ModelParams,
    trigger: Trigger,
    beam_k: int,
    want_grads: bool = True,
) -> tuple[float, ScoredSequence, dict[str, np.ndarray] | None]:
    """One forward/backward pass: (q_i, lbar, gradient dict or None).

    The gradients are the exact subgradient of q_i at the attained max branch
    (no L2 term); the embedding tables' entries are sparse :class:`RowGrad`s,
    the rest dense arrays. When lbar equals gold the score terms cancel and
    the gradient is identically zero, returned as None.
    """
    gold = sentence.gold_labels
    if gold is None:
        raise ValueError("sentence has no gold labels")
    assembly = params.assembly()
    cache = forward_sentence(sentence, assembly, params.fwd, params.bwd, params.proj)
    trans = params.transitions
    labels, aug = _augmented_best(gold, cache.em, trans, trigger, params.meta.scheme, beam_k)
    q = aug - sentence_score(cache.em, trans, gold)
    lbar = ScoredSequence(labels, sentence_score(cache.em, trans, labels))
    if not want_grads or labels == gold:
        return q, lbar, None

    d_log = np.zeros_like(cache.em.log_probs)
    rows = np.arange(len(gold))
    np.add.at(d_log, (rows, labels), 1.0)
    np.add.at(d_log, (rows, gold), -1.0)
    net = backward(cache, d_log, assembly, params.fwd, params.bwd, params.proj)

    # the tables come in assembly order: token, then the feature tables
    grads = dict(zip(params.tables(), [net.d_token, *net.d_feats]))
    d_trans = np.zeros_like(trans)
    start = [cache.em.n_labels]
    np.add.at(d_trans, (start + labels[:-1], labels), 1.0)
    np.add.at(d_trans, (start + gold[:-1], gold), -1.0)
    grads.update(lstm_fwd_w=net.d_fwd_w, lstm_fwd_b=net.d_fwd_b, lstm_bwd_w=net.d_bwd_w,
                 lstm_bwd_b=net.d_bwd_b, proj_w=net.d_w_hy, proj_b=net.d_b_y, transitions=d_trans)
    return q, lbar, grads


def l2_norm_sq(params: ModelParams) -> float:
    """Sum of squares over every trainable tensor."""
    return float(sum((arr * arr).sum() for arr in trainable_tensors(params).values()))


def objective(dataset: list[Sentence], params: ModelParams, config: TrainConfig) -> float:
    """Mean instance loss plus the L2 penalty (lambda/2 ||theta||^2)."""
    if not dataset:
        raise ValueError("empty dataset")
    total = 0.0
    for sent in dataset:
        q, _ = instance_loss(sent, params, config.trigger, config.beam_k)
        total += q
    return total / len(dataset) + 0.5 * config.l2_lambda * l2_norm_sq(params)


def sgd_step(
    params: ModelParams, grads: dict[str, np.ndarray | RowGrad] | None, lr: float, l2_lambda: float
) -> None:
    """In-place update theta <- theta - lr * (g + lambda * theta).

    Weight decay applies to every trainable tensor on every step, gradient
    or not; tensors absent from the gradient dict update with g = 0. The
    embedding tables decay lazily through their scale and write only the
    gradient's rows; dense tensors decay in place.
    """
    grads = grads or {}
    for name, table in params.tables().items():
        if table.trainable:
            table.sgd_update(grads.get(name), lr, l2_lambda)
    for name, arr in params.dense_tensors().items():
        g = grads.get(name)
        if g is not None and g.shape != arr.shape:
            raise ValueError(f"gradient shape mismatch for {name}: {g.shape} vs {arr.shape}")
        if l2_lambda:
            arr *= 1.0 - lr * l2_lambda
        if g is not None:
            arr -= lr * g


def train(
    params: ModelParams,
    train_set: list[Sentence],
    dev_set: list[Sentence],
    config: TrainConfig,
    epoch_hook=None,
) -> tuple[ModelParams, list[str]]:
    """Shuffled per-instance SGD with dev-set model selection.

    Returns (best params snapshot, metrics log). The log has one line per
    epoch: epoch, lr, mean q, dev named-F1, dev nominal-F1, dev overall-F1,
    tab-separated; dev columns are "-" when the dev set is empty (the last
    epoch then wins). ``epoch_hook(epoch, params)`` may return True to stop
    after the current epoch; the best snapshot so far is still returned.
    The snapshot is always a copy, never ``params`` itself. A non-finite
    instance loss raises :class:`TrainingDivergedError`.
    """
    if not train_set:
        raise ValueError("empty training set")
    scheme = params.meta.scheme
    rng = np.random.default_rng(config.seed)
    best, best_f1 = None, -1.0
    log: list[str] = []
    for epoch in range(config.epochs):
        lr = config.learning_rate * config.decay ** epoch
        order = rng.permutation(len(train_set))
        total_q = 0.0
        for i in order:
            q, _, grads = instance_gradients(train_set[int(i)], params, config.trigger, config.beam_k)
            if not math.isfinite(q):
                raise TrainingDivergedError(
                    f"training diverged: instance loss {q} at epoch {epoch}, sentence {int(i)}")
            total_q += q
            sgd_step(params, grads, lr, config.l2_lambda)
        params.fold()
        mean_q = total_q / len(train_set)
        if dev_set:
            report = evaluate(dev_set, [predict_labels(s, params) for s in dev_set], scheme)
            overall = report.overall_f1
            cols = [f"{f:.4f}" for f in
                    (report.groups["named"].f1, report.groups["nominal"].f1, overall)]
            if overall > best_f1:  # F1 >= 0, so the first epoch always counts
                best_f1 = overall
                best = params.copy()
        else:
            cols = ["-", "-", "-"]
        log.append("\t".join([str(epoch), f"{lr:.10g}", f"{mean_q:.6f}", *cols]))
        if epoch_hook is not None and epoch_hook(epoch, params):
            break
    return (best if dev_set else params.copy()), log


# ---------------------------------------------------------------------------
# Serialization

MODEL_MAGIC = b"MMNERBIN"
MODEL_VERSION = 1


class ModelIOError(Exception):
    """Base class for model file problems."""


class ModelVersionError(ModelIOError):
    """Wrong magic or unsupported format version."""


class ModelTruncatedError(ModelIOError):
    """File ends before the declared content does."""


class ModelShapeError(ModelIOError):
    """Tensor inventory or shapes disagree with the metadata."""


# the metadata block holds ModelMeta's fields, the scheme's and token_trainable
META_FIELDS = [f.name for f in fields(ModelMeta) if f.name != "scheme"]


def _meta_to_json(meta: ModelMeta, token_trainable: bool) -> bytes:
    doc = {name: getattr(meta, name) for name in META_FIELDS}
    doc.update(labels=meta.scheme.labels, entity_types=meta.scheme.entity_types,
               outside=meta.scheme.outside_label, token_trainable=token_trainable)
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _meta_from_json(blob: bytes) -> tuple[ModelMeta, bool]:
    doc = json.loads(blob.decode("utf-8"))
    if not isinstance(doc, dict):
        raise ValueError("metadata is not a JSON object")
    scheme = TagScheme(
        tuple(doc["labels"]),
        tuple((c, k) for c, k in doc["entity_types"]),
        doc["outside"],
    )
    values = {name: doc[name] for name in META_FIELDS}
    meta = ModelMeta(scheme, **{k: tuple(v) if isinstance(v, list) else v for k, v in values.items()})
    if type(doc["token_trainable"]) is not bool:
        raise ValueError("token_trainable must be a boolean")
    return meta, doc["token_trainable"]


def save_model(params: ModelParams, path: str) -> None:
    """Write the versioned binary model file (atomically: tmp then rename).

    Layout, all integers little-endian: 8-byte magic, uint32 version,
    uint32 metadata length + UTF-8 JSON metadata, uint32 tensor count, then
    per tensor: uint16 name length + name, uint8 rank, rank x uint64 dims,
    float64 values row-major.
    """
    meta_blob = _meta_to_json(params.meta, params.token_table.trainable)
    tensors = params.named_tensors()
    chunks = [MODEL_MAGIC, struct.pack("<I", MODEL_VERSION), struct.pack("<I", len(meta_blob)),
              meta_blob, struct.pack("<I", len(tensors))]
    for name, arr in tensors.items():
        encoded = name.encode("utf-8")
        chunks += [struct.pack("<H", len(encoded)), encoded, struct.pack("<B", arr.ndim),
                   struct.pack(f"<{arr.ndim}Q", *arr.shape),
                   np.ascontiguousarray(arr, dtype="<f8").tobytes()]
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(b"".join(chunks))
    os.replace(tmp, path)


class _Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise ModelTruncatedError(
                f"file truncated: needed {n} bytes at offset {self.pos}, "
                f"have {len(self.blob) - self.pos}"
            )
        out = self.blob[self.pos:self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def load_model(path: str) -> ModelParams:
    """Read a model file back; inverse of :func:`save_model`, bit-exact."""
    with open(path, "rb") as fh:
        reader = _Reader(fh.read())
    if reader.take(len(MODEL_MAGIC)) != MODEL_MAGIC:
        raise ModelVersionError("not a model file (bad magic)")
    (version,) = reader.unpack("<I")
    if version != MODEL_VERSION:
        raise ModelVersionError(f"unsupported model file version {version}")
    (meta_len,) = reader.unpack("<I")
    try:
        meta, token_trainable = _meta_from_json(reader.take(meta_len))
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise ModelShapeError(f"bad metadata block: {exc}") from None
    (n_tensors,) = reader.unpack("<I")
    tensors: dict[str, np.ndarray] = {}
    for _ in range(n_tensors):
        (name_len,) = reader.unpack("<H")
        name = reader.take(name_len).decode("utf-8", errors="replace")
        (rank,) = reader.unpack("<B")
        shape = reader.unpack(f"<{rank}Q")
        data = reader.take(8 * math.prod(shape))
        try:
            tensors[name] = np.frombuffer(data, dtype="<f8").reshape(shape).copy()
        except ValueError as exc:  # numpy caps the rank (at 64)
            raise ModelShapeError(f"tensor {name}: {exc}") from None
    if reader.pos != len(reader.blob):
        raise ModelShapeError(f"{len(reader.blob) - reader.pos} trailing bytes after last tensor")

    expected = meta.tensor_shapes()
    if set(tensors) != set(expected):
        missing = sorted(set(expected) - set(tensors))
        extra = sorted(set(tensors) - set(expected))
        raise ModelShapeError(f"tensor inventory mismatch: missing {missing}, unexpected {extra}")
    width = meta.input_width
    try:
        features = {name: EmbeddingTable(meta.d_feature, tensors[name])
                    for name in FEATURE_TABLES if name in tensors}
        return ModelParams(
            meta=meta,
            token_table=EmbeddingTable(meta.d_token, tensors["emb_token"], token_trainable),
            seg_table=features.get("emb_seg"),
            bigram_table=features.get("emb_bigram"),
            fwd=LstmParams(width, meta.hidden_dim, tensors["lstm_fwd_w"], tensors["lstm_fwd_b"]),
            bwd=LstmParams(width, meta.hidden_dim, tensors["lstm_bwd_w"], tensors["lstm_bwd_b"]),
            proj=ProjectionParams(tensors["proj_w"], tensors["proj_b"]),
            transitions=tensors["transitions"],
        )
    except ValueError as exc:
        raise ModelShapeError(str(exc)) from None


# ---------------------------------------------------------------------------
# Gradient checking


@dataclass
class GradCheckReport:
    """Worst relative error per tensor plus the overall worst offender."""

    per_tensor: dict[str, float] = field(default_factory=dict)
    resamples: int = 0

    @property
    def worst(self) -> tuple[str, float]:
        name = max(self.per_tensor, key=self.per_tensor.get)
        return name, self.per_tensor[name]

    def passed(self, tol: float = 1e-4) -> bool:
        return all(err <= tol for err in self.per_tensor.values())


def augmented_gap(sentence: Sentence, params: ModelParams, trigger: Trigger) -> float:
    """Gap between the best and second-best augmented scores, over the full
    sequence space (exhaustive beam). Small gaps make q_i non-differentiable
    and finite differences meaningless; callers resample such instances."""
    cache = _forward(sentence, params)
    everything = beam_topk(cache.em, params.transitions, cache.em.n_labels ** cache.em.n)
    ranked = _ranked(everything, sentence.gold_labels, trigger, params.meta.scheme)
    return ranked[0][0] - ranked[1][0] if len(ranked) > 1 else np.inf


def finite_difference_check(
    sentence: Sentence,
    params: ModelParams,
    trigger: Trigger,
    beam_k: int,
    eps: float = 1e-4,
    corrupt: str | None = None,
) -> GradCheckReport:
    """Central-difference check of q_i against the analytic subgradient.

    Every element of every trainable tensor is perturbed by +-eps; the
    relative error |analytic - numeric| / max(1, |analytic|, |numeric|) is
    maximized per tensor. ``corrupt`` names a tensor whose analytic gradient
    gets deliberately broken (fault-injection hook for testing the checker).
    """
    _, _, sparse = instance_gradients(sentence, params, trigger, beam_k)
    sparse = sparse or {}
    grads = {}
    for name, theta in params.named_tensors().items():
        g = sparse.get(name)
        if isinstance(g, RowGrad):
            g = g.dense(theta.shape[0])
        grads[name] = np.zeros_like(theta) if g is None else g
    if corrupt is not None:
        grads[corrupt].flat[0] += 1.0

    report = GradCheckReport()
    for name, theta in trainable_tensors(params).items():
        analytic = grads[name]
        worst = 0.0
        for idx in np.ndindex(theta.shape):
            orig = theta[idx]
            theta[idx] = orig + eps
            q_plus, _ = instance_loss(sentence, params, trigger, beam_k)
            theta[idx] = orig - eps
            q_minus, _ = instance_loss(sentence, params, trigger, beam_k)
            theta[idx] = orig
            numeric = (q_plus - q_minus) / (2.0 * eps)
            a = float(analytic[idx])
            rel = abs(a - numeric) / max(1.0, abs(a), abs(numeric))
            worst = max(worst, rel)
        report.per_tensor[name] = worst
    return report
