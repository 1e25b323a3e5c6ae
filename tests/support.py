"""Shared plumbing for tests that need a real model over a real corpus."""

import struct

import numpy as np

from mmner import training
from mmner.model import ModelMeta, init_params
from mmner.synthetic import tiny_instance

# the tensors the shape tests widen: an LSTM bias, the projection weights, a table
MISSHAPEN = ("lstm_bwd_b", "proj_w", "emb_seg")


def build_from_raw(
    raw_sentences,
    scheme,
    mode="positional",
    bigrams=True,
    seg_map=None,
    window=3,
    d_token=8,
    d_feature=4,
    hidden=8,
    seed=0,
):
    """Vocabularies, metadata, fresh params and encoded sentences in one go."""
    meta = ModelMeta.from_corpus(
        raw_sentences, seg_map, scheme=scheme, mode=mode, bigrams=bigrams, window=window,
        d_token=d_token, d_feature=d_feature, hidden_dim=hidden)
    params = init_params(meta, np.random.default_rng(seed))
    return params, meta.encode(raw_sentences, seg_map)


def break_proj_b(monkeypatch):
    """Wrap ``mmner.training.backward`` so that every gradient it returns has
    1.0 too much in ``d_b_y[0]``, the analytic gradient of ``proj_b[0]``."""
    real = training.backward

    def broken(*args):
        grads = real(*args)
        grads.d_b_y[0] += 1.0
        return grads

    monkeypatch.setattr(training, "backward", broken)


def save_non_finite(params, path, name, index, value):
    """Save ``params`` to the file ``path`` with ``value``, a NaN or an infinity
    that save_model refuses, written over tensor ``name``'s entry at ``index``."""
    sentinel = 1.0 + 2.0 ** -40  # a finite value whose eight bytes occur once in the file
    params.named_tensors()[name][index] = sentinel
    training.save_model(params, str(path))
    blob, old = path.read_bytes(), struct.pack("<d", sentinel)
    assert blob.count(old) == 1
    path.write_bytes(blob.replace(old, struct.pack("<d", value)))


def misshapen(name):
    """A tiny segfeat model with bigrams whose tensor ``name`` is set, after
    construction, to an array one entry too wide on its last axis."""
    params, _ = tiny_instance(3, mode="segfeat", bigrams=True)
    holder, field = {"lstm_bwd_b": (params.bwd, "b"), "proj_w": (params.proj, "w_hy"),
                     "emb_seg": (params.tables["emb_seg"], "vectors")}[name]
    shape = getattr(holder, field).shape
    setattr(holder, field, np.zeros((*shape[:-1], shape[-1] + 1)))
    return params


def append_tensor(path, name, arr):
    """Add one more tensor record, ``name`` holding ``arr``, to the end of the
    model file at ``path`` and count it in the file's tensor count."""
    blob = path.read_bytes()
    (meta_len,) = struct.unpack("<I", blob[12:16])
    at = 16 + meta_len
    (count,) = struct.unpack("<I", blob[at:at + 4])
    encoded = name.encode("utf-8")
    record = struct.pack(f"<H{len(encoded)}sB{arr.ndim}Q", len(encoded), encoded, arr.ndim,
                         *arr.shape) + arr.astype("<f8").tobytes()
    path.write_bytes(blob[:at] + struct.pack("<I", count + 1) + blob[at + 4:] + record)
