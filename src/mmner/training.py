"""Max-margin training: loss-augmented inference, the regularized objective,
per-instance SGD with learning-rate decay, dev-set model selection, model
serialization, and a finite-difference gradient checker.

The per-instance loss is

    q_i = max_lbar ( s(x_i, lbar) + Delta(l_i, lbar) ) - s(x_i, l_i)

For the Hamming trigger the inner max is exact: the per-position cost folds
into the emission log-probabilities and Viterbi decodes the augmented
problem. For the F-score triggers the max runs over a beam-search candidate
set reranked by s + Delta. Either way q_i >= 0 holds in floating point, not
only in exact arithmetic: Viterbi is the exact argmax of the sums
sentence_score computes, gold's Hamming-folded score is its plain one, and
the beam's Viterbi head has s >= s(gold) before a Delta >= 0 is added.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import secrets
import struct
from dataclasses import dataclass, field, fields

import numpy as np

from .corpus import Sentence, TagScheme
from .embeddings import RowGrad
from .evaluation import evaluate
from .model import ModelMeta, ModelParams
from .network import EmissionMatrix, SentenceCache, backward, forward_sentence
from .structured import ScoredSequence, beam_topk, sentence_score, viterbi
from .triggers import HAMMING, Trigger


@dataclass
class TrainConfig:
    """Training settings; ``window`` is the model's, None meaning ``params.meta.window``."""

    trigger: Trigger
    learning_rate: float = 0.1
    decay: float = 0.95
    l2_lambda: float = 1e-6
    epochs: int = 20
    beam_k: int = 8
    seed: int = 1
    window: int | None = None

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


def _forward(sentence: Sentence, params: ModelParams) -> SentenceCache:
    return forward_sentence(sentence, params.assembly(), params.fwd, params.bwd, params.proj)


def predict_all(sentences: list[Sentence], params: ModelParams) -> list[list[int]]:
    """Plain Viterbi decode of each encoded sentence, in order."""
    return [viterbi(_forward(sentence, params).em, params.transitions).labels
            for sentence in sentences]


def predict_labels(sentence: Sentence, params: ModelParams) -> list[int]:
    """Plain Viterbi decode of one encoded sentence."""
    return predict_all([sentence], params)[0]


def _augmented_best(
    gold: list[int],
    em: EmissionMatrix,
    trans: np.ndarray,
    trigger: Trigger,
    scheme: TagScheme,
    beam_k: int,
) -> tuple[list[int], float]:
    """Maximize s + Delta; returns (labels, augmented score).

    Hamming costs kappa per position off gold, so Viterbi on emissions with
    that cost folded in is exact. The F-score triggers rank the beam's
    candidates by s + Delta. Ties: the minimum of (-(s + Delta), not the
    beam's Viterbi head, labels) wins.
    """
    if trigger.kind == HAMMING:
        cost = np.full(em.log_probs.shape, trigger.kappa)
        cost[np.arange(len(gold)), gold] = 0.0
        best = viterbi(EmissionMatrix(em.probs, em.log_probs + cost), trans)
        return best.labels, best.score

    candidates = beam_topk(em, trans, beam_k)
    head = candidates[0].labels
    neg, _, labels = min((-(c.score + trigger.delta(gold, c.labels, scheme)), c.labels != head,
                          c.labels) for c in candidates)
    return labels, -neg


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
    cache = _forward(sentence, params)
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
    net = backward(cache, d_log, params.assembly(), params.fwd, params.bwd, params.proj)

    # d_feats follow first slot use, which tensor_shapes() makes tensor order
    grads = dict(zip(params.tables, [net.d_token, *net.d_feats]))
    d_trans = np.zeros_like(trans)
    start = [cache.em.n_labels]
    np.add.at(d_trans, (start + labels[:-1], labels), 1.0)
    np.add.at(d_trans, (start + gold[:-1], gold), -1.0)
    grads.update(lstm_fwd_w=net.d_fwd_w, lstm_fwd_b=net.d_fwd_b, lstm_bwd_w=net.d_bwd_w,
                 lstm_bwd_b=net.d_bwd_b, proj_w=net.d_w_hy, proj_b=net.d_b_y, transitions=d_trans)
    return q, lbar, grads


def l2_norm_sq(params: ModelParams) -> float:
    """Sum of squares over every tensor."""
    return float(sum((arr * arr).sum() for arr in params.named_tensors().values()))


def objective(dataset: list[Sentence], params: ModelParams, config: TrainConfig) -> float:
    """Mean instance loss plus the L2 penalty (lambda/2 ||theta||^2)."""
    if not dataset:
        raise ValueError("empty dataset")
    total = sum(instance_loss(s, params, config.trigger, config.beam_k)[0] for s in dataset)
    return total / len(dataset) + 0.5 * config.l2_lambda * l2_norm_sq(params)


def sgd_step(
    params: ModelParams, grads: dict[str, np.ndarray | RowGrad] | None, lr: float, l2_lambda: float
) -> None:
    """In-place update theta <- theta - lr * (g + lambda * theta).

    Weight decay applies to every tensor on every step, gradient or not;
    tensors absent from the gradient dict update with g = 0. The
    embedding tables decay lazily through their scale and write only the
    gradient's rows; dense tensors decay in place. Consumes ``grads``.
    A gradient it cannot apply (no such tensor, wrong type, not float or
    misshapen, a :class:`RowGrad` that does not fit its table) is a
    ValueError, raised before any tensor changes.
    """
    grads = grads or {}
    dense = params.dense_tensors()
    if unknown := grads.keys() - {*params.tables, *dense}:
        raise ValueError(f"gradient for unknown tensor(s): {', '.join(sorted(unknown))}")
    for name, g in grads.items():
        sparse = name in params.tables
        if not isinstance(g, (RowGrad if sparse else np.ndarray) | None):
            want = "a RowGrad" if sparse else "an array"
            raise ValueError(f"gradient for {name} must be {want}, got {type(g).__name__}")
        if not sparse and g is not None and (g.dtype.kind, g.shape) != ("f", dense[name].shape):
            raise ValueError(f"gradient for {name} must be a float array of shape "
                             f"{dense[name].shape}, got {g.dtype} of shape {g.shape}")
        if sparse and g is not None and not g.fits((t := params.tables[name]).size, t.dim):
            raise ValueError(f"gradient for {name} must have strictly ascending integer rows "
                             f"in [0, {t.size}) and float values of shape (rows, {t.dim})")
    for name, table in params.tables.items():
        table.sgd_update(grads.get(name), lr, l2_lambda)
    for name, arr in dense.items():
        g = grads.get(name)
        if l2_lambda:
            arr *= 1.0 - lr * l2_lambda
        if g is not None:
            g *= lr
            arr -= g


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
    instance loss raises :class:`TrainingDivergedError`, a window not the model's a ValueError.
    """
    if not train_set:
        raise ValueError("empty training set")
    if config.window not in (None, params.meta.window):
        raise ValueError(f"TrainConfig.window {config.window} differs from the model's "
                         f"window {params.meta.window}")
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
            report = evaluate(dev_set, predict_all(dev_set, params), scheme)
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


# the metadata block holds ModelMeta's fields, the scheme's and token_trainable,
# which is always true (every tensor trains)
META_FIELDS = [f.name for f in fields(ModelMeta) if f.name != "scheme"]


def _meta_to_json(meta: ModelMeta) -> bytes:
    doc = {name: getattr(meta, name) for name in META_FIELDS}
    doc.update(labels=meta.scheme.labels, entity_types=meta.scheme.entity_types,
               outside=meta.scheme.outside_label, token_trainable=True)
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _meta_from_json(blob: bytes) -> ModelMeta:
    doc = json.loads(blob.decode("utf-8"))
    if not isinstance(doc, dict):
        raise ValueError("metadata is not a JSON object")
    keys = {*META_FIELDS, "labels", "entity_types", "outside", "token_trainable"}
    if doc.keys() != keys:
        raise ValueError(f"metadata key mismatch: missing {sorted(keys - doc.keys())}, "
                         f"unexpected {sorted(doc.keys() - keys)}")
    scheme = TagScheme(tuple(doc["labels"]), tuple((c, k) for c, k in doc["entity_types"]),
                       doc["outside"])
    values = {k: tuple(doc[k]) if isinstance(doc[k], list) else doc[k] for k in META_FIELDS}
    if doc["token_trainable"] is not True:
        raise ValueError("token_trainable must be true")
    return ModelMeta(scheme, **values)


def save_model(params: ModelParams, path: str) -> None:
    """Write the versioned binary model file (atomically: tmp then rename).

    Layout, all integers little-endian: 8-byte magic, uint32 version,
    uint32 metadata length + UTF-8 JSON metadata, uint32 tensor count, then
    per tensor: uint16 name length + name, uint8 rank, rank x uint64 dims,
    float64 values row-major. Each tensor is written from its own array; a
    failed save removes the tmp file and leaves ``path`` as it was. The tmp
    file is new: no other file is ever opened or renamed away.
    """
    meta_blob = _meta_to_json(params.meta)
    tensors = params.named_tensors()
    tmp = f"{path}.{secrets.token_hex(8)}.tmp"
    fh = open(tmp, "xb")  # exclusive: a clash fails the save; 0666 less the umask
    try:
        with fh:
            fh.write(MODEL_MAGIC + struct.pack("<II", MODEL_VERSION, len(meta_blob)) + meta_blob
                     + struct.pack("<I", len(tensors)))
            for name, arr in tensors.items():
                encoded = name.encode("utf-8")
                fh.write(struct.pack(f"<H{len(encoded)}sB{arr.ndim}Q", len(encoded), encoded,
                                     arr.ndim, *arr.shape))
                fh.write(np.ascontiguousarray(arr, dtype="<f8").data)
        os.replace(tmp, path)
    except BaseException:  # a half-written tmp file must not outlive the save
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


class _Reader:
    """Reads a model file in order, checking each length before allocating for it."""

    def __init__(self, fh):
        self.fh, self.left = fh, os.fstat(fh.fileno()).st_size

    def take(self, n: int, make=bytearray):
        """The next n bytes, read into ``make(n)``, an n-byte buffer."""
        if n > self.left:
            raise ModelTruncatedError(
                f"file truncated: needed {n} bytes at offset {self.fh.tell()}, have {self.left}")
        self.left -= n
        out = make(n)
        if self.fh.readinto(out) != n:
            raise ModelTruncatedError(f"file truncated: read fewer than {n} bytes")
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def load_model(path: str) -> ModelParams:
    """Read a model file back; inverse of :func:`save_model`, bit-exact.
    Each tensor is read straight into its own array; one holding a NaN or
    an infinity is rejected."""
    with open(path, "rb") as fh:
        reader = _Reader(fh)
        if reader.take(len(MODEL_MAGIC)) != MODEL_MAGIC:
            raise ModelVersionError("not a model file (bad magic)")
        (version,) = reader.unpack("<I")
        if version != MODEL_VERSION:
            raise ModelVersionError(f"unsupported model file version {version}")
        (meta_len,) = reader.unpack("<I")
        try:
            meta = _meta_from_json(reader.take(meta_len))
        except (ValueError, KeyError, TypeError, AttributeError, RecursionError) as exc:
            raise ModelShapeError(f"bad metadata block: {exc}") from None
        (n_tensors,) = reader.unpack("<I")
        tensors: dict[str, np.ndarray] = {}
        for _ in range(n_tensors):
            (name_len,) = reader.unpack("<H")
            name = reader.take(name_len).decode("utf-8", errors="replace")
            (rank,) = reader.unpack("<B")
            shape = reader.unpack(f"<{rank}Q")
            if name in tensors:
                raise ModelShapeError(f"tensor {name} is listed twice")
            try:
                tensors[name] = reader.take(8 * math.prod(shape), lambda _: np.empty(shape, "<f8"))
            except ValueError as exc:  # numpy caps the rank (at 64) and the size
                raise ModelShapeError(f"tensor {name}: {exc}") from None
            if not np.isfinite(tensors[name]).all():
                raise ModelIOError(f"tensor {name} holds a NaN or infinite value")
        if reader.left:
            raise ModelShapeError(f"{reader.left} trailing bytes after last tensor")

    try:
        return ModelParams.from_tensors(meta, tensors)
    except ValueError as exc:
        raise ModelShapeError(str(exc)) from None


# ---------------------------------------------------------------------------
# Gradient checking

GRADCHECK_EPS = 1e-4  # central-difference step
GRADCHECK_TOL = 1e-4  # largest relative error that passes


@dataclass
class GradCheckReport:
    """Worst relative error per tensor plus the overall worst offender."""

    per_tensor: dict[str, float] = field(default_factory=dict)

    @property
    def worst(self) -> tuple[str, float]:
        name = max(self.per_tensor, key=self.per_tensor.get)
        return name, self.per_tensor[name]

    def passed(self, tol: float = GRADCHECK_TOL) -> bool:
        return all(err <= tol for err in self.per_tensor.values())


def augmented_gap(sentence: Sentence, params: ModelParams, trigger: Trigger) -> float:
    """Gap between the best and second-best augmented scores, over the full
    sequence space (exhaustive beam). Small gaps make q_i non-differentiable
    and finite differences meaningless; callers resample such instances."""
    cache = _forward(sentence, params)
    everything = beam_topk(cache.em, params.transitions, cache.em.n_labels ** cache.em.n)
    gold, scheme = sentence.gold_labels, params.meta.scheme
    augs = sorted((c.score + trigger.delta(gold, c.labels, scheme) for c in everything),
                  reverse=True)
    return augs[0] - augs[1] if len(augs) > 1 else np.inf


def finite_difference_check(
    sentence: Sentence,
    params: ModelParams,
    trigger: Trigger,
    beam_k: int,
    corrupt: str | None = None,
) -> GradCheckReport:
    """Central-difference check of q_i against the analytic subgradient.

    Every element of every tensor is perturbed by +-GRADCHECK_EPS;
    the relative error |analytic - numeric| / max(1, |analytic|, |numeric|)
    is maximized per tensor. ``corrupt`` names a tensor whose analytic gradient
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
    for name, theta in params.named_tensors().items():
        analytic = grads[name]
        worst = 0.0
        for idx in np.ndindex(theta.shape):
            orig = theta[idx]
            theta[idx] = orig + GRADCHECK_EPS
            q_plus, _ = instance_loss(sentence, params, trigger, beam_k)
            theta[idx] = orig - GRADCHECK_EPS
            q_minus, _ = instance_loss(sentence, params, trigger, beam_k)
            theta[idx] = orig
            numeric = (q_plus - q_minus) / (2.0 * GRADCHECK_EPS)
            a = float(analytic[idx])
            rel = abs(a - numeric) / max(1.0, abs(a), abs(numeric))
            worst = max(worst, rel)
        report.per_tensor[name] = worst
    return report
