import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mmner.corpus import Sentence, Vocab, build_vocab
from mmner.embeddings import (
    PAD_INDEX,
    UNK_INDEX,
    EmbeddingFormatError,
    InputAssembly,
    assemble_window,
    assembly_backward,
    load_pretrained,
    random_table,
)

from oracles import reference_assemble_window

VOCAB = Vocab.from_itos(["<unk>", "<pad>", "a", "b"])


class TestTable:
    def test_random_table(self):
        table = random_table(6, 4, np.random.default_rng(0))
        assert table.vectors.shape == (table.size, table.dim) == (6, 4)
        np.testing.assert_array_equal(table.vectors[PAD_INDEX], 0.0)
        assert np.abs(table.vectors).max() <= 0.1


class TestLoadPretrained:
    def test_documented_fixture(self):
        table = load_pretrained("2 3\na 1 0 0\nb 0 1 0", VOCAB, 3, np.random.default_rng(0))
        np.testing.assert_array_equal(table.vectors[VOCAB.index("a")], [1.0, 0.0, 0.0])
        np.testing.assert_array_equal(table.vectors[VOCAB.index("b")], [0.0, 1.0, 0.0])
        np.testing.assert_array_equal(table.vectors[UNK_INDEX], [0.5, 0.5, 0.0])

    def test_empty_file_keeps_fallback(self):
        rng = np.random.default_rng(3)
        table = load_pretrained("", VOCAB, 3, rng)
        np.testing.assert_array_equal(table.vectors[UNK_INDEX], 0.0)
        np.testing.assert_array_equal(table.vectors[PAD_INDEX], 0.0)
        # vocab rows keep the random fallback, which is nonzero almost surely
        assert np.abs(table.vectors[2:]).max() > 0

    def test_missing_word_keeps_fallback(self):
        reference = random_table(len(VOCAB), 3, np.random.default_rng(9))
        table = load_pretrained("a 1 0 0", VOCAB, 3, np.random.default_rng(9))
        np.testing.assert_array_equal(table.vectors[VOCAB.index("b")],
                                      reference.vectors[VOCAB.index("b")])
        np.testing.assert_array_equal(table.vectors[VOCAB.index("a")], [1.0, 0.0, 0.0])

    def test_words_outside_vocab_feed_the_mean(self):
        table = load_pretrained("zzz 2 2 2\na 0 0 0", VOCAB, 3, np.random.default_rng(0))
        np.testing.assert_array_equal(table.vectors[UNK_INDEX], [1.0, 1.0, 1.0])

    def test_dimension_mismatch_names_line(self):
        with pytest.raises(EmbeddingFormatError, match="line 2"):
            load_pretrained("a 1 0 0\nb 1 0", VOCAB, 3, np.random.default_rng(0))

    def test_non_numeric(self):
        with pytest.raises(EmbeddingFormatError, match="line 1"):
            load_pretrained("a 1 oops 0", VOCAB, 3, np.random.default_rng(0))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("text, says", [
        ("a 1 0 0\nb 0 nan 0", "line 2: non-finite"),
        ("a -inf 0 0", "line 1: non-finite"),
        ("zzz 1e308 0 0\na 1e308 0 0", "overflows"),
    ])
    def test_non_finite_rejected(self, text, says):
        with pytest.raises(EmbeddingFormatError, match=says):
            load_pretrained(text, VOCAB, 3, np.random.default_rng(0))

    def test_only_newline_ends_a_line(self):
        vocab = build_vocab(["a\u2028b", "c"])
        table = load_pretrained("2 2\r\na\u2028b 1 0\r\nc 0 1\r\n", vocab, 2,
                                np.random.default_rng(0))
        np.testing.assert_array_equal(table.vectors[vocab.index("a\u2028b")], [1.0, 0.0])
        np.testing.assert_array_equal(table.vectors[vocab.index("c")], [0.0, 1.0])
        with pytest.raises(EmbeddingFormatError, match="line 3: expected 2 components, got 1"):
            load_pretrained("a\u2028b 1 0\r\nc 0 1\r\nd 1\r\n", vocab, 2, np.random.default_rng(0))

    def test_only_spaces_and_tabs_make_a_blank_line(self):
        table = load_pretrained("a 1 0\n \t \nb 0 1\n", VOCAB, 2, np.random.default_rng(0))
        np.testing.assert_array_equal(table.vectors[VOCAB.index("b")], [0.0, 1.0])
        with pytest.raises(EmbeddingFormatError, match="line 2: expected 2 components, got 0"):
            load_pretrained("a 1 0\n\u3000\nb 0 1\n", VOCAB, 2, np.random.default_rng(0))

    def test_no_header_file(self):
        # first line is a regular vector line, not a header
        table = load_pretrained("a 1 0 0\nb 0 1 0", VOCAB, 3, np.random.default_rng(0))
        np.testing.assert_array_equal(table.vectors[VOCAB.index("a")], [1.0, 0.0, 0.0])


def encoded_sentence(token_ids, features=()):
    """An encoded sentence from id lists: features as rows, none by default."""
    n = len(token_ids)
    return Sentence(
        tokens=["t"] * n,
        features=np.array(features, dtype=np.intp).reshape(n, -1),
        token_ids=np.array(token_ids, dtype=np.intp),
    )


class TestAssembly:
    def test_window_one_is_identity(self):
        table = random_table(5, 3, np.random.default_rng(0))
        assembly = InputAssembly(1, table, [])
        sent = encoded_sentence([2, 4])
        out = assemble_window(sent, assembly)
        np.testing.assert_array_equal(out, table.vectors[[2, 4]])

    def test_window_three_pads_flanks(self):
        table = random_table(5, 2, np.random.default_rng(1))
        assembly = InputAssembly(3, table, [])
        out = assemble_window(encoded_sentence([3]), assembly)
        expected = np.concatenate(
            [table.vectors[PAD_INDEX], table.vectors[3], table.vectors[PAD_INDEX]]
        )
        np.testing.assert_array_equal(out[0], expected)
        assert out.shape == (1, 3 * 2)

    def test_feature_slots_share_tables(self):
        rng = np.random.default_rng(2)
        token = random_table(4, 2, rng)
        feat = random_table(6, 3, rng)
        assembly = InputAssembly(1, token, [feat, feat])
        sent = encoded_sentence([2, 3], features=[[4, 5], [5, 2]])
        out = assemble_window(sent, assembly)
        assert out.shape == (2, 2 + 3 + 3)
        np.testing.assert_array_equal(out[0, 2:5], feat.vectors[4])
        np.testing.assert_array_equal(out[0, 5:8], feat.vectors[5])
        np.testing.assert_array_equal(out[1, 5:8], feat.vectors[2])

    def test_width_is_constant(self):
        rng = np.random.default_rng(3)
        assembly = InputAssembly(3, random_table(7, 4, rng), [random_table(5, 2, rng)])
        for n in (1, 2, 5):
            sent = encoded_sentence([2] * n, features=[[3]] * n)
            assert assemble_window(sent, assembly).shape == (n, 3 * 4 + 2)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_equals_the_slice_and_concatenate_reference(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        scales = st.sampled_from([1.0, 0.9, 0.3712, 1.7e-3])

        def table():
            t = random_table(data.draw(st.integers(2, 6)), data.draw(st.integers(1, 4)), rng)
            t.scale = data.draw(scales)
            return t

        token = table()
        distinct = [table() for _ in range(data.draw(st.integers(1, 3)))]
        # slots draw from fewer tables than there are slots now and then: shared tables
        slots = [distinct[data.draw(st.integers(0, len(distinct) - 1))]
                 for _ in range(data.draw(st.integers(0, 3)))]
        assembly = InputAssembly(data.draw(st.sampled_from([1, 3, 5, 7])), token, slots)
        n = data.draw(st.integers(1, 8))
        features = np.empty((n, len(slots)), dtype=np.intp)
        for s, slot in enumerate(slots):
            features[:, s] = rng.integers(0, slot.size, n)
        sent = encoded_sentence(rng.integers(0, token.size, n), features)
        assert np.array_equal(assemble_window(sent, assembly),
                              reference_assemble_window(sent, assembly))

    def test_even_window_rejected(self):
        with pytest.raises(ValueError):
            InputAssembly(2, random_table(4, 2, np.random.default_rng(0)), [])


class TestAssemblyBackward:
    def test_scatter_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        token = random_table(6, 3, rng)
        feat = random_table(5, 2, rng)
        assembly = InputAssembly(3, token, [feat, feat])
        sent = encoded_sentence([2, 2, 4], features=[[2, 3], [3, 3], [4, 2]])
        d_inputs = rng.normal(size=(3, 3 * 3 + 2 + 2))

        sparse_tok, (sparse_feat,) = assembly_backward(d_inputs, sent, assembly)
        d_tok, d_feat = sparse_tok.dense(token.size), sparse_feat.dense(feat.size)

        eps = 1e-6
        objective = lambda: float((assemble_window(sent, assembly) * d_inputs).sum())
        for table, grad in ((token.vectors, d_tok), (feat.vectors, d_feat)):
            for idx in np.ndindex(table.shape):
                orig = table[idx]
                table[idx] = orig + eps
                up = objective()
                table[idx] = orig - eps
                down = objective()
                table[idx] = orig
                np.testing.assert_allclose(grad[idx], (up - down) / (2 * eps), atol=1e-6)

    def test_shared_table_gets_one_gradient_in_order_of_first_use(self):
        rng = np.random.default_rng(6)
        token, seg, bigram = (random_table(n, dim, rng) for n, dim in ((4, 1), (3, 2), (5, 2)))
        assembly = InputAssembly(1, token, [bigram, seg, bigram])
        sent = encoded_sentence([2, 3], features=[[3, 2, 4], [4, 2, 4]])
        d_inputs = rng.normal(size=(2, 1 + 2 + 2 + 2))
        _, d_feats = assembly_backward(d_inputs, sent, assembly)
        assert len(d_feats) == 2
        d_bigram, d_seg = d_feats
        # columns: token 0, bigram slot 1:3, seg slot 3:5, bigram slot 5:7
        assert d_bigram.rows.tolist() == [3, 4]
        np.testing.assert_array_equal(d_bigram.values[0], d_inputs[0, 1:3])
        np.testing.assert_allclose(d_bigram.values[1],
                                   d_inputs[0, 5:7] + d_inputs[1, 1:3] + d_inputs[1, 5:7])
        assert d_seg.rows.tolist() == [2]
        np.testing.assert_allclose(d_seg.values[0], d_inputs[0, 3:5] + d_inputs[1, 3:5])

    def test_repeated_ids_accumulate(self):
        token = random_table(4, 1, np.random.default_rng(5))
        assembly = InputAssembly(1, token, [])
        sent = encoded_sentence([2, 2])
        d_tok, _ = assembly_backward(np.ones((2, 1)), sent, assembly)
        assert d_tok.rows.tolist() == [2]
        assert d_tok.dense(token.size)[2, 0] == 2.0
