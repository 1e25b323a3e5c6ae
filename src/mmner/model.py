"""Model container: every trainable tensor, the metadata that fixes their
shapes, and the wiring between representation modes and embedding tables."""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .corpus import (
    MODES,
    PAD,
    SEG_VOCAB,
    UNK,
    TagScheme,
    Vocab,
    slot_kinds,
)
from .embeddings import EmbeddingTable, InputAssembly, random_table
from .network import LstmParams, ProjectionParams

D_TOKEN = 100
D_FEATURE = 100
HIDDEN_DIM = 100
WINDOW = 5

# The optional embedding tables, in tensor order: ModelParams.seg_table and
# .bigram_table. Which of them a model has is ModelMeta.tensor_shapes()'s call.
FEATURE_TABLES = ("emb_seg", "emb_bigram")


@dataclass(frozen=True)
class ModelMeta:
    """Everything needed to rebuild a model's shapes and vocabularies."""

    scheme: TagScheme
    mode: str
    bigrams: bool
    window: int
    d_token: int
    d_feature: int
    hidden_dim: int
    token_itos: tuple[str, ...]
    bigram_itos: tuple[str, ...]

    def __post_init__(self):
        sizes = (self.window, self.d_token, self.d_feature, self.hidden_dim)
        if any(type(v) is not int for v in sizes) or type(self.bigrams) is not bool:
            raise ValueError("window and dimensions must be integers, bigrams a boolean")
        if min(sizes) < 1 or self.window % 2 == 0:
            raise ValueError("window and dimensions must be positive, the window odd")
        if self.mode not in MODES:
            raise ValueError(f"unknown representation mode {self.mode!r}")
        if self.bigrams != (len(self.bigram_itos) > 0):
            raise ValueError("bigram vocabulary must be present iff bigrams are enabled")
        vocabs = (self.token_itos, self.bigram_itos) if self.bigrams else (self.token_itos,)
        for itos in vocabs:
            if tuple(itos[:2]) != (UNK, PAD) or len(set(itos)) != len(itos):
                raise ValueError(f"a vocabulary must start with {UNK}, {PAD} and hold no duplicate")

    @property
    def token_vocab(self) -> Vocab:
        return Vocab.from_itos(list(self.token_itos))

    @property
    def bigram_vocab(self) -> Vocab | None:
        return Vocab.from_itos(list(self.bigram_itos)) if self.bigrams else None

    def feature_vocabs(self) -> dict[str, Vocab]:
        """Vocabulary kind -> vocabulary of each feature table, in tensor order."""
        vocabs = {"seg": SEG_VOCAB, "bigram": self.bigram_vocab}
        return {kind: vocabs[kind] for kind in dict.fromkeys(slot_kinds(self.mode, self.bigrams))}

    @property
    def input_width(self) -> int:
        n_slots = len(slot_kinds(self.mode, self.bigrams))
        return self.window * self.d_token + n_slots * self.d_feature

    def tensor_shapes(self) -> dict[str, tuple[int, ...]]:
        """Name -> shape of every tensor of the model, in the fixed tensor
        (and file) order; the one statement of which tensors exist."""
        width, h, n = self.input_width, self.hidden_dim, self.scheme.n_labels
        shapes = {"emb_token": (len(self.token_itos), self.d_token)}
        rows = {"seg": len(SEG_VOCAB), "bigram": len(self.bigram_itos)}
        for kind in dict.fromkeys(slot_kinds(self.mode, self.bigrams)):
            shapes[f"emb_{kind}"] = (rows[kind], self.d_feature)
        for direction in ("fwd", "bwd"):
            shapes[f"lstm_{direction}_w"] = (4 * h, width + h)
            shapes[f"lstm_{direction}_b"] = (4 * h,)
        shapes.update(proj_w=(n, 2 * h), proj_b=(n,), transitions=(n + 1, n))
        return shapes


@dataclass
class ModelParams:
    """All trainable tensors of one tagger."""

    meta: ModelMeta
    token_table: EmbeddingTable
    seg_table: EmbeddingTable | None
    bigram_table: EmbeddingTable | None
    fwd: LstmParams
    bwd: LstmParams
    proj: ProjectionParams
    transitions: np.ndarray

    def __post_init__(self):
        expected = self.meta.tensor_shapes()
        found = {name: table.vectors.shape for name, table in self.tables().items()}
        found.update((name, arr.shape) for name, arr in self.dense_tensors().items())
        for name in [*expected, *found]:
            if expected.get(name) != found.get(name):
                raise ValueError(f"tensor {name}: expected shape {expected.get(name)}, "
                                 f"found {found.get(name)}")

    def tables(self) -> dict[str, EmbeddingTable]:
        """Tensor name -> embedding table, in the fixed tensor order."""
        tables = {"emb_token": self.token_table, "emb_seg": self.seg_table,
                  "emb_bigram": self.bigram_table}
        return {name: table for name, table in tables.items() if table is not None}

    def dense_tensors(self) -> dict[str, np.ndarray]:
        return {
            "lstm_fwd_w": self.fwd.w, "lstm_fwd_b": self.fwd.b,
            "lstm_bwd_w": self.bwd.w, "lstm_bwd_b": self.bwd.b,
            "proj_w": self.proj.w_hy, "proj_b": self.proj.b_y,
            "transitions": self.transitions,
        }

    def fold(self) -> None:
        """Fold every table's lazy weight-decay scale into its rows."""
        for table in self.tables().values():
            table.fold()

    def named_tensors(self) -> dict[str, np.ndarray]:
        """Name -> array views of every tensor, in a fixed order.

        Mutating the arrays mutates the model; this is the single registry
        serialization, regularization and gradient checks all share. The
        embedding tables are folded first, so every array holds plain values.
        """
        out = {name: table.fold() for name, table in self.tables().items()}
        out.update(self.dense_tensors())
        return out

    def assembly(self) -> InputAssembly:
        pairs = (("seg", self.seg_table), ("bigram", self.bigram_table))
        features = {kind: table for kind, table in pairs if table is not None}
        slots = [list(features).index(k) for k in slot_kinds(self.meta.mode, self.meta.bigrams)]
        return InputAssembly(self.meta.window, self.token_table, list(features.values()), slots)

    def copy(self) -> "ModelParams":
        """Deep copy of every tensor (metadata is shared, it is frozen)."""
        self.fold()
        return copy.deepcopy(self, {id(self.meta): self.meta})


def init_params(
    meta: ModelMeta,
    rng: np.random.Generator,
    token_table: EmbeddingTable | None = None,
) -> ModelParams:
    """Fresh model: random embeddings (unless a pretrained token table is
    given), scaled-uniform LSTM/projection weights, zero transition scores."""
    shapes = meta.tensor_shapes()
    if token_table is None:
        token_table = random_table(*shapes["emb_token"], rng)
    features = {name: random_table(*shapes[name], rng) for name in FEATURE_TABLES if name in shapes}
    width = meta.input_width
    fwd = LstmParams.init(width, meta.hidden_dim, rng)
    bwd = LstmParams.init(width, meta.hidden_dim, rng)
    proj = ProjectionParams.init(meta.scheme.n_labels, 2 * meta.hidden_dim, rng)
    return ModelParams(meta, token_table, features.get("emb_seg"), features.get("emb_bigram"),
                       fwd, bwd, proj, np.zeros(shapes["transitions"]))
