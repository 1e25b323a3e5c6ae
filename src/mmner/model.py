"""Model container: every trainable tensor, the metadata that fixes their
shapes, and the wiring between representation modes and embedding tables."""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .corpus import (
    MODE_SEGFEAT,
    MODES,
    SEG_VOCAB,
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
        if min(sizes) < 1 or self.window % 2 == 0:
            raise ValueError("window and dimensions must be positive, the window odd")
        if self.mode not in MODES:
            raise ValueError(f"unknown representation mode {self.mode!r}")
        if self.bigrams != bool(self.bigram_itos):
            raise ValueError("bigram vocabulary must be present iff bigrams are enabled")

    @property
    def token_vocab(self) -> Vocab:
        return Vocab.from_itos(list(self.token_itos))

    @property
    def bigram_vocab(self) -> Vocab | None:
        return Vocab.from_itos(list(self.bigram_itos)) if self.bigrams else None

    def feature_vocabs(self) -> dict[str, Vocab]:
        vocabs: dict[str, Vocab] = {}
        if self.mode == MODE_SEGFEAT:
            vocabs["seg"] = SEG_VOCAB
        if self.bigrams:
            vocabs["bigram"] = self.bigram_vocab
        return vocabs

    @property
    def input_width(self) -> int:
        n_slots = len(slot_kinds(self.mode, self.bigrams))
        return self.window * self.d_token + n_slots * self.d_feature


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
        n = self.meta.scheme.n_labels
        if self.transitions.shape != (n + 1, n):
            raise ValueError(f"transition matrix must be {(n + 1, n)}, got {self.transitions.shape}")

    def tables(self) -> dict[str, EmbeddingTable]:
        """Tensor name -> embedding table, in the fixed tensor order."""
        out = {"emb_token": self.token_table}
        if self.seg_table is not None:
            out["emb_seg"] = self.seg_table
        if self.bigram_table is not None:
            out["emb_bigram"] = self.bigram_table
        return out

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
    if token_table is None:
        token_table = random_table(len(meta.token_itos), meta.d_token, rng)
    elif token_table.size != len(meta.token_itos) or token_table.dim != meta.d_token:
        raise ValueError("token table does not match the metadata's vocabulary/dimension")
    seg_table = None
    if meta.mode == MODE_SEGFEAT:
        seg_table = random_table(len(SEG_VOCAB), meta.d_feature, rng)
    bigram_table = None
    if meta.bigrams:
        bigram_table = random_table(len(meta.bigram_itos), meta.d_feature, rng)
    width = meta.input_width
    fwd = LstmParams.init(width, meta.hidden_dim, rng)
    bwd = LstmParams.init(width, meta.hidden_dim, rng)
    proj = ProjectionParams.init(meta.scheme.n_labels, 2 * meta.hidden_dim, rng)
    transitions = np.zeros((meta.scheme.n_labels + 1, meta.scheme.n_labels))
    return ModelParams(meta, token_table, seg_table, bigram_table, fwd, bwd, proj, transitions)

