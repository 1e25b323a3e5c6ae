"""ModelMeta.from_corpus and ModelMeta.encode against the hand-built steps
they replace (vocab_sources + build_vocab, and encode_corpus),
ModelParams.tables: the embedding tables keyed by tensor name, and
ModelParams.from_tensors with init_params, which draws through it."""

import dataclasses

import numpy as np
import pytest

from mmner.corpus import (Vocab, build_vocab, encode_corpus, load_segmentation, slot_kinds,
                          vocab_sources)
from mmner.embeddings import assemble_window, random_table
from mmner.model import ModelMeta, ModelParams, init_params
from mmner.synthetic import synthetic_corpus, tiny_instance
from mmner.training import ModelShapeError, load_model, save_model
from oracles import reference_init_params
from support import MISSHAPEN, misshapen

SIZES = dict(window=3, d_token=4, d_feature=2, hidden_dim=3)


def hand_built(sentences, seg_map, scheme, mode, bigrams):
    token_strings, bigram_strings = vocab_sources(sentences, seg_map, mode, bigrams)
    token_vocab = build_vocab(token_strings)
    bigram_vocab = build_vocab(bigram_strings) if bigrams else None
    return ModelMeta(
        scheme=scheme, mode=mode, bigrams=bigrams, **SIZES,
        token_itos=tuple(token_vocab.itos),
        bigram_itos=tuple(bigram_vocab.itos) if bigram_vocab else (),
    )


@pytest.mark.parametrize("bigrams", [True, False], ids=["bigrams", "no-bigrams"])
@pytest.mark.parametrize("mode", ["positional", "segfeat"])
def test_from_corpus_and_encode_match_the_hand_built_steps(mode, bigrams):
    corpus = synthetic_corpus(n_sentences=12, seed=3)
    heldout = synthetic_corpus(n_sentences=6, seed=4).sentences
    # the lookup covers half the training sentences; the rest fall back to "S"
    seg_map = load_segmentation(corpus.seg_lines[:6])
    assert 0 < sum("".join(s.tokens) in seg_map for s in corpus.sentences) < 12

    meta = ModelMeta.from_corpus(corpus.sentences, seg_map, scheme=corpus.scheme, mode=mode,
                                 bigrams=bigrams, **SIZES)
    expected = hand_built(corpus.sentences, seg_map, corpus.scheme, mode, bigrams)
    assert meta == expected
    assert (meta.bigram_itos == ()) == (not bigrams)
    for sentences in (corpus.sentences, heldout):
        encoded = meta.encode(sentences, seg_map)
        by_hand = encode_corpus(sentences, seg_map, mode, bigrams, expected.token_vocab,
                                expected.feature_vocabs())
        assert len(encoded) == len(by_hand)
        for ours, theirs in zip(encoded, by_hand):
            assert (ours.tokens, ours.gold_labels) == (theirs.tokens, theirs.gold_labels)
            assert np.array_equal(ours.token_ids, theirs.token_ids)
            assert np.array_equal(ours.features, theirs.features)


def test_vocabularies_keep_first_occurrence_order():
    corpus = synthetic_corpus(n_sentences=5, seed=3)
    meta = ModelMeta.from_corpus(corpus.sentences, None, scheme=corpus.scheme,
                                 mode="segfeat", bigrams=True, **SIZES)
    chars = [ch for s in corpus.sentences for ch in s.tokens]
    assert meta.token_itos == ("<unk>", "<pad>", *dict.fromkeys(chars))
    assert meta.bigram_itos[2] == "</s></s>"  # slot (-2, -1) at the first position


def test_encode_maps_unseen_tokens_to_unknown():
    corpus = synthetic_corpus(n_sentences=5, seed=3)
    meta = ModelMeta.from_corpus(corpus.sentences[:2], None, scheme=corpus.scheme,
                                 mode="positional", bigrams=False, **SIZES)
    sent = corpus.sentences[4]
    (encoded,) = meta.encode([sent], None)
    keys, _ = vocab_sources([sent], None, "positional", False)
    seen = set(meta.token_itos)
    assert 0 < sum(key in seen for key in keys) < len(keys)  # both cases occur
    assert encoded.token_ids.tolist() == [meta.token_vocab.index(k) if k in seen else 0
                                          for k in keys]
    assert encoded.tokens == sent.tokens
    assert encoded.features.shape == (len(sent), 0)


@pytest.mark.parametrize("bigrams", [True, False], ids=["bigrams", "no-bigrams"])
@pytest.mark.parametrize("mode", ["positional", "segfeat"])
def test_encoding_keeps_the_text_so_encoding_again_changes_nothing(mode, bigrams):
    corpus = synthetic_corpus(n_sentences=6, seed=3)
    seg_map = load_segmentation(corpus.seg_lines)
    meta = ModelMeta.from_corpus(corpus.sentences, seg_map, scheme=corpus.scheme, mode=mode,
                                 bigrams=bigrams, **SIZES)
    once = meta.encode(corpus.sentences, seg_map)
    twice = meta.encode(once, seg_map)
    for sent, a, b in zip(corpus.sentences, once, twice):
        assert a.tokens == b.tokens == sent.tokens
        assert np.array_equal(a.token_ids, b.token_ids) and 0 not in a.token_ids
        assert np.array_equal(a.features, b.features)


def test_each_vocabulary_is_built_once(monkeypatch):
    corpus = synthetic_corpus(n_sentences=5, seed=3)
    built = []
    from_itos = Vocab.from_itos.__func__
    monkeypatch.setattr(Vocab, "from_itos",
                        classmethod(lambda cls, itos: built.append(itos) or from_itos(cls, itos)))
    # from_corpus hands its itos tuples to ModelMeta, which builds each vocabulary once
    meta = ModelMeta.from_corpus(corpus.sentences, None, scheme=corpus.scheme, mode="segfeat",
                                 bigrams=True, **SIZES)
    assert built == [meta.token_itos, meta.bigram_itos]
    built.clear()
    meta = dataclasses.replace(meta)  # a new ModelMeta over the same fields
    for _ in range(3):
        meta.encode(corpus.sentences, None)
        assert meta.token_vocab is meta.token_vocab
        assert meta.feature_vocabs()["bigram"] is meta.bigram_vocab
    assert built == [meta.token_itos, meta.bigram_itos]
    # each vocabulary keeps the stored tuple rather than a copy of it
    assert meta.token_vocab.itos is meta.token_itos
    assert meta.bigram_vocab.itos is meta.bigram_itos


def test_unknown_mode_is_a_value_error():
    corpus = synthetic_corpus(n_sentences=2, seed=3)
    with pytest.raises(ValueError, match="representation mode"):
        ModelMeta.from_corpus(corpus.sentences, None, scheme=corpus.scheme, mode="chars",
                              bigrams=True, **SIZES)


@pytest.mark.parametrize("bigrams", [True, False], ids=["bigrams", "no-bigrams"])
@pytest.mark.parametrize("mode", ["positional", "segfeat"])
def test_tables_are_the_emb_tensors_in_tensor_order(tmp_path, mode, bigrams):
    params, sent = tiny_instance(3, mode=mode, bigrams=bigrams)
    meta = params.meta
    names = [name for name in meta.tensor_shapes() if name.startswith("emb_")]
    assert names == ["emb_token", *["emb_seg"] * (mode == "segfeat"), *["emb_bigram"] * bigrams]
    assert list(params.tables) == names
    assembly = params.assembly()
    assert assembly.token_table is params.tables["emb_token"]
    kinds = slot_kinds(mode, bigrams)
    assert len(assembly.slot_tables) == len(kinds)
    for table, kind in zip(assembly.slot_tables, kinds):
        assert table is params.tables[f"emb_{kind}"]
    assert assemble_window(sent, assembly).shape == (len(sent), meta.input_width)
    assert params.tables["emb_token"].size == len(meta.token_vocab)
    for kind, vocab in meta.feature_vocabs().items():
        assert params.tables[f"emb_{kind}"].size == len(vocab)
    save_model(params, str(tmp_path / "m.bin"))
    assert list(load_model(str(tmp_path / "m.bin")).tables) == names


def test_tables_out_of_tensor_order_are_rejected():
    params, _ = tiny_instance(3, mode="segfeat", bigrams=True)
    swapped = dict(reversed(list(params.tables.items())))
    with pytest.raises(ValueError, match="out of order"):
        dataclasses.replace(params, tables=swapped)


def test_pretrained_token_table_is_kept_and_draws_nothing():
    params, _ = tiny_instance(3, mode="segfeat", bigrams=True)
    meta, token = params.meta, params.tables["emb_token"]
    given = init_params(meta, np.random.default_rng(7), token)
    assert given.tables["emb_token"] is token
    rng = np.random.default_rng(7)  # the feature tables draw first, in tensor order
    for name in ("emb_seg", "emb_bigram"):
        expected = random_table(*meta.tensor_shapes()[name], rng)
        np.testing.assert_array_equal(given.tables[name].vectors, expected.vectors)


@pytest.mark.parametrize("pretrained", [False, True], ids=["fresh", "pretrained"])
@pytest.mark.parametrize("bigrams", [True, False], ids=["bigrams", "no-bigrams"])
@pytest.mark.parametrize("mode", ["positional", "segfeat"])
def test_init_params_draws_what_the_reference_draws(mode, bigrams, pretrained):
    corpus = synthetic_corpus(n_sentences=6, seed=3)
    meta = ModelMeta.from_corpus(corpus.sentences, None, scheme=corpus.scheme, mode=mode,
                                 bigrams=bigrams, window=3, d_token=5, d_feature=3, hidden_dim=4)
    token = random_table(len(meta.token_itos), 5, np.random.default_rng(1)) if pretrained else None
    ours_rng, theirs_rng = np.random.default_rng(11), np.random.default_rng(11)
    ours = init_params(meta, ours_rng, token).named_tensors()
    theirs = reference_init_params(meta, theirs_rng, token)
    assert list(ours) == list(theirs)
    for name, arr in theirs.items():
        assert np.array_equal(ours[name], arr), name
    assert ours_rng.bit_generator.state == theirs_rng.bit_generator.state  # as many draws


def test_from_tensors_takes_any_order_without_copying():
    params, _ = tiny_instance(3, mode="segfeat", bigrams=True)
    tensors = dict(reversed(list(params.named_tensors().items())))
    rebuilt = ModelParams.from_tensors(params.meta, tensors)
    assert list(rebuilt.named_tensors()) == list(params.meta.tensor_shapes())
    for name, arr in rebuilt.named_tensors().items():
        assert arr is tensors[name]


@pytest.mark.parametrize("name", MISSHAPEN)
def test_from_tensors_names_a_misshapen_tensor(name):
    params = misshapen(name)
    with pytest.raises(ValueError, match=f"tensor {name}: expected shape"):
        ModelParams.from_tensors(params.meta, params.named_tensors())


@pytest.mark.parametrize("name", MISSHAPEN)
def test_load_model_rejects_a_misshapen_tensor(tmp_path, name):
    path = str(tmp_path / "m.bin")
    save_model(misshapen(name), path)
    with pytest.raises(ModelShapeError, match=f"tensor {name}: expected shape"):
        load_model(path)


@pytest.mark.parametrize("change", ["missing", "extra"])
def test_from_tensors_names_a_missing_or_extra_tensor(change):
    params, _ = tiny_instance(3, mode="segfeat", bigrams=True)
    tensors = params.named_tensors()
    if change == "missing":
        del tensors["proj_b"]
        says = r"missing \['proj_b'\], unexpected \[\]"
    else:
        tensors["proj_c"] = tensors["proj_b"]
        says = r"missing \[\], unexpected \['proj_c'\]"
    with pytest.raises(ValueError, match=f"inventory mismatch: {says}"):
        ModelParams.from_tensors(params.meta, tensors)


def test_copy_is_folded_and_shares_no_memory(tmp_path):
    params, _ = tiny_instance(3, mode="segfeat", bigrams=True)
    for table in params.tables.values():
        table.scale = 0.5
    folded = {name: table.vectors * 0.5 for name, table in params.tables.items()}
    folded.update((name, arr.copy()) for name, arr in params.dense_tensors().items())
    twin = params.copy()
    assert twin.meta is params.meta
    assert all(table.scale == 1.0 for table in twin.tables.values())
    assert list(twin.named_tensors()) == list(params.meta.tensor_shapes())
    for name, arr in twin.named_tensors().items():
        np.testing.assert_array_equal(arr, folded[name])
        assert not np.shares_memory(arr, params.named_tensors()[name]), name
    save_model(params, str(tmp_path / "original.bin"))
    save_model(twin, str(tmp_path / "copy.bin"))
    assert (tmp_path / "copy.bin").read_bytes() == (tmp_path / "original.bin").read_bytes()
