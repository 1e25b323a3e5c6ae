"""Model container: every trainable tensor, the metadata that fixes their
shapes, and the wiring between representation modes and embedding tables."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import (
    MODES,
    SEG_VOCAB,
    Sentence,
    TagScheme,
    Vocab,
    encode_corpus,
    slot_kinds,
    vocab_itos,
    vocab_sources,
)
from .embeddings import EmbeddingTable, InputAssembly, random_table
from .network import LstmParams, ProjectionParams

D_TOKEN = 100
D_FEATURE = 100
HIDDEN_DIM = 100
WINDOW = 5


@dataclass(frozen=True)
class ModelMeta:
    """Everything needed to rebuild a model's shapes and vocabularies.

    The itos tuples are the stored fields; ``token_vocab`` and
    ``bigram_vocab`` (None without bigrams) are their vocabularies, each
    built once, here, by :meth:`Vocab.from_itos`, which checks them."""

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
        object.__setattr__(self, "token_vocab", Vocab.from_itos(self.token_itos))
        object.__setattr__(self, "bigram_vocab",
                           Vocab.from_itos(self.bigram_itos) if self.bigrams else None)

    @classmethod
    def from_corpus(cls, sentences: list[Sentence], seg_map, *, scheme: TagScheme, mode: str,
                    bigrams: bool, window: int, d_token: int, d_feature: int,
                    hidden_dim: int) -> "ModelMeta":
        """Metadata whose vocabularies hold every token key of ``sentences``
        and, with bigrams on, every bigram, in first-occurrence order."""
        tokens, bigram_strings = vocab_sources(sentences, seg_map, mode, bigrams)
        return cls(scheme, mode, bigrams, window, d_token, d_feature, hidden_dim,
                   tuple(vocab_itos(tokens)), tuple(vocab_itos(bigram_strings)) if bigrams else ())

    def encode(self, sentences: list[Sentence], seg_map) -> list[Sentence]:
        """The sentences as this model's input: their tokens kept, token ids
        and feature ids from its own mode, bigrams and vocabularies."""
        return encode_corpus(sentences, seg_map, self.mode, self.bigrams, self.token_vocab,
                             self.feature_vocabs())

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
    tables: dict[str, EmbeddingTable]  # tensor name -> embedding table, in tensor order
    fwd: LstmParams
    bwd: LstmParams
    proj: ProjectionParams
    transitions: np.ndarray

    @classmethod
    def from_tensors(cls, meta: ModelMeta, tensors: dict) -> "ModelParams":
        """The model over ``tensors`` (name -> array, in any order, exactly the
        names of the layout), each array wired to its field without a copy; an
        ``emb_*`` entry may also be a ready table, which is kept as it is."""
        names = meta.tensor_shapes()
        missing, extra = sorted(set(names) - set(tensors)), sorted(set(tensors) - set(names))
        if missing or extra:
            raise ValueError(f"tensor inventory mismatch: missing {missing}, unexpected {extra}")
        t = {name: tensors[name] for name in names}
        tables = {name: arr if isinstance(arr, EmbeddingTable) else EmbeddingTable(arr)
                  for name, arr in t.items() if name.startswith("emb_")}
        return cls(meta, tables, LstmParams(t["lstm_fwd_w"], t["lstm_fwd_b"]),
                   LstmParams(t["lstm_bwd_w"], t["lstm_bwd_b"]),
                   ProjectionParams(t["proj_w"], t["proj_b"]), t["transitions"])

    def __post_init__(self):
        expected = self.meta.tensor_shapes()
        found = {name: table.vectors.shape for name, table in self.tables.items()}
        found.update((name, arr.shape) for name, arr in self.dense_tensors().items())
        for name in [*expected, *found]:
            if expected.get(name) != found.get(name):
                raise ValueError(f"tensor {name}: expected shape {expected.get(name)}, "
                                 f"found {found.get(name)}")
        if list(found) != list(expected):
            raise ValueError(f"tensors out of order: {', '.join(found)}")

    def dense_tensors(self) -> dict[str, np.ndarray]:
        return {
            "lstm_fwd_w": self.fwd.w, "lstm_fwd_b": self.fwd.b,
            "lstm_bwd_w": self.bwd.w, "lstm_bwd_b": self.bwd.b,
            "proj_w": self.proj.w_hy, "proj_b": self.proj.b_y,
            "transitions": self.transitions,
        }

    def fold(self) -> None:
        """Fold every table's lazy weight-decay scale into its rows."""
        for table in self.tables.values():
            table.fold()

    def named_tensors(self) -> dict[str, np.ndarray]:
        """Name -> array views of every tensor, in a fixed order.

        Mutating the arrays mutates the model; this is the single registry
        serialization, regularization and gradient checks all share. The
        embedding tables are folded first, so every array holds plain values.
        """
        out = {name: table.fold() for name, table in self.tables.items()}
        out.update(self.dense_tensors())
        return out

    def assembly(self) -> InputAssembly:
        slots = [self.tables[f"emb_{k}"] for k in slot_kinds(self.meta.mode, self.meta.bigrams)]
        return InputAssembly(self.meta.window, self.tables["emb_token"], slots)

    def copy(self) -> "ModelParams":
        """A copy of every tensor, folded (metadata is shared, it is frozen)."""
        return self.from_tensors(self.meta, {n: a.copy() for n, a in self.named_tensors().items()})


def init_params(
    meta: ModelMeta,
    rng: np.random.Generator,
    token_table: EmbeddingTable | None = None,
) -> ModelParams:
    """Fresh model, one draw per tensor in tensor order: embeddings by
    :func:`random_table` (a given pretrained token table is kept and draws
    nothing), Glorot-uniform weights (Glorot & Bengio 2010; an LSTM block's
    fan-out is one gate), zero biases and transition scores."""
    tensors = {}
    for name, shape in meta.tensor_shapes().items():
        if name == "emb_token" and token_table is not None:
            tensors[name] = token_table
        elif name.startswith("emb_"):
            tensors[name] = random_table(*shape, rng).vectors
        elif name.endswith("_w"):
            rows, cols = shape
            fan_out = rows // 4 if name.startswith("lstm_") else rows
            bound = np.sqrt(6.0 / (cols + fan_out))
            tensors[name] = rng.uniform(-bound, bound, size=shape)
        else:
            tensors[name] = np.zeros(shape)
    return ModelParams.from_tensors(meta, tensors)
