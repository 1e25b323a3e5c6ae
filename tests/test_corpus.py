import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mmner.corpus import (
    BOUNDARY,
    MODE_POSITIONAL,
    MODE_SEGFEAT,
    MODES,
    SEG_VOCAB,
    CorpusError,
    EntitySpan,
    Sentence,
    TagScheme,
    Vocab,
    build_vocab,
    encode_corpus,
    entities_from_labels,
    entity_spans,
    labels_from_entities,
    load_segmentation,
    parse_conll,
    positional_tags,
    repair_bio,
    seg_tags_for,
    slot_kinds,
    vocab_sources,
)

from mmner.triggers import sentence_f1

from oracles import (
    reference_bigrams,
    reference_encode_corpus,
    reference_entities_from_labels,
    reference_repair_bio,
    reference_sentence_f1,
    reference_split,
    reference_vocab_sources,
)

SCHEME = TagScheme.from_entity_types((("PER", "NAM"), ("GPE", "NOM")))


def lab(name):
    return SCHEME.index(name)


def labs(*names):
    return [SCHEME.index(n) for n in names]


class TestTagScheme:
    def test_label_inventory(self):
        assert SCHEME.labels == ("O", "B-PER.NAM", "I-PER.NAM", "B-GPE.NOM", "I-GPE.NOM")
        assert SCHEME.n_labels == 5
        assert SCHEME.outside_index == 0

    def test_index_name_roundtrip(self):
        for i, name in enumerate(SCHEME.labels):
            assert SCHEME.index(name) == i
            assert SCHEME.name(i) == name

    def test_split(self):
        assert SCHEME.split(lab("O")) == ("O", None)
        assert SCHEME.split(lab("B-PER.NAM")) == ("B", "PER.NAM")
        assert SCHEME.split(lab("I-GPE.NOM")) == ("I", "GPE.NOM")

    def test_kind_of(self):
        assert TagScheme.kind_of("PER.NAM") == "NAM"
        assert TagScheme.kind_of("GPE.NOM") == "NOM"

    def test_unknown_label_raises(self):
        with pytest.raises(CorpusError):
            SCHEME.index("B-ORG.NAM")

    def test_bad_inventory_rejected(self):
        with pytest.raises(ValueError):
            TagScheme(("O", "X-PER.NAM"), (("PER", "NAM"),))
        with pytest.raises(ValueError):
            TagScheme(("O", "O"), ())
        for labels in [(0, "B-PER.NAM", "I-PER.NAM"), ("O", ["B-PER.NAM"]), ("O", None)]:
            with pytest.raises(ValueError, match="^labels must be strings$"):
                TagScheme(labels, (("PER", "NAM"),), labels[0])

    @pytest.mark.parametrize("entity_types", [
        (("PER", "NAM"), ("PER", "NAM")),
        ((1, 2),),
        (("PER", None),),
    ])
    def test_entity_types_are_distinct_string_pairs(self, entity_types):
        labels = ("O", *(f"{p}-{c}.{k}" for c, k in entity_types[:1] for p in "BI"))
        with pytest.raises(ValueError, match="^entity types must be distinct pairs of strings$"):
            TagScheme(labels, entity_types)


class TestBioRepair:
    def test_orphan_inside_becomes_begin(self):
        repaired, changes = repair_bio(labs("I-PER.NAM", "I-PER.NAM", "O"), SCHEME)
        assert repaired == labs("B-PER.NAM", "I-PER.NAM", "O")
        assert changes == 1

    def test_type_switch_becomes_begin(self):
        repaired, changes = repair_bio(labs("B-PER.NAM", "I-GPE.NOM"), SCHEME)
        assert repaired == labs("B-PER.NAM", "B-GPE.NOM")
        assert changes == 1

    def test_inside_after_outside(self):
        repaired, _ = repair_bio(labs("O", "I-GPE.NOM"), SCHEME)
        assert repaired == labs("O", "B-GPE.NOM")

    def test_valid_input_unchanged_and_idempotent(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(1, 12))
            raw = [int(rng.integers(SCHEME.n_labels)) for _ in range(n)]
            once, _ = repair_bio(raw, SCHEME)
            twice, changes = repair_bio(once, SCHEME)
            assert twice == once
            assert changes == 0
            entities_from_labels(once, SCHEME)  # must not raise


class TestSpans:
    def test_extract(self):
        labels = labs("B-PER.NAM", "I-PER.NAM", "O", "B-GPE.NOM")
        assert entities_from_labels(labels, SCHEME) == [
            EntitySpan("PER.NAM", 0, 2),
            EntitySpan("GPE.NOM", 3, 4),
        ]

    def test_adjacent_begins_are_two_spans(self):
        labels = labs("B-PER.NAM", "B-PER.NAM")
        assert entities_from_labels(labels, SCHEME) == [
            EntitySpan("PER.NAM", 0, 1),
            EntitySpan("PER.NAM", 1, 2),
        ]

    def test_invalid_raises(self):
        with pytest.raises(ValueError):
            entities_from_labels(labs("O", "I-PER.NAM"), SCHEME)

    def test_inverse_errors(self):
        with pytest.raises(ValueError):
            labels_from_entities([EntitySpan("PER.NAM", 0, 3)], 2, SCHEME)
        with pytest.raises(ValueError):
            labels_from_entities(
                [EntitySpan("PER.NAM", 0, 2), EntitySpan("GPE.NOM", 1, 3)], 4, SCHEME
            )

    def test_roundtrip_random_spans(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            n = int(rng.integers(1, 21))
            spans, cursor = [], 0
            while cursor < n:
                if rng.random() < 0.4:
                    width = int(rng.integers(1, min(4, n - cursor) + 1))
                    typ = "PER.NAM" if rng.random() < 0.5 else "GPE.NOM"
                    spans.append(EntitySpan(typ, cursor, cursor + width))
                    cursor += width
                else:
                    cursor += 1
            labels = labels_from_entities(spans, n, SCHEME)
            assert entities_from_labels(labels, SCHEME) == spans
            assert labels_from_entities(entities_from_labels(labels, SCHEME), n, SCHEME) == labels


def _outcome(read, labels, scheme):
    """What read(labels, scheme) returns, or the message of its ValueError."""
    try:
        return read(labels, scheme)
    except ValueError as exc:
        return str(exc)


def _patterns(labels, scheme):
    """The invalid or easily misread label pairs a sequence holds."""
    parts = [reference_split(scheme, lab) for lab in labels]
    for (p0, t0), (p1, t1) in zip([("O", None)] + parts, parts):
        if p1 == "I" and t1 != t0:
            yield "type switch" if t0 else "stray I"
        if p0 == p1 == "B":
            yield "adjacent B"


class TestOneReadingRule:
    def test_matches_the_two_walkers_it_replaced(self):
        # criterion 10's schemes; 10,000 pairs make 20,000 sequences
        schemes = [TagScheme.from_entity_types(pairs) for pairs in (
            (("PER", "NAM"),),
            (("PER", "NAM"), ("GPE", "NOM")),
            (("PER", "NAM"), ("PER", "NOM"), ("GPE", "NAM"), ("GPE", "NOM")),
        )]
        rng = np.random.default_rng(14)
        seen = {"stray I": 0, "type switch": 0, "adjacent B": 0}
        lengths = set()
        for case in range(10_000):
            scheme = schemes[case % len(schemes)]
            n = int(rng.integers(0, 15))
            lengths.add(n)
            gold, pred = rng.integers(scheme.n_labels, size=(2, n)).tolist()
            for labels in (gold, pred):
                repaired = reference_repair_bio(labels, scheme)
                assert entity_spans(labels, scheme) == reference_entities_from_labels(
                    repaired[0], scheme)
                assert repair_bio(labels, scheme) == repaired
                assert _outcome(entities_from_labels, labels, scheme) == _outcome(
                    reference_entities_from_labels, labels, scheme)
                for pattern in _patterns(labels, scheme):
                    seen[pattern] += 1
            assert sentence_f1(gold, pred, scheme) == reference_sentence_f1(gold, pred, scheme)
        assert lengths == set(range(15))
        assert min(seen.values()) > 1000, seen


class TestParseConll:
    def test_labeled(self):
        text = "北\tB-GPE.NOM\n京\tI-GPE.NOM\n\n好\tO\n"
        sentences, repairs = parse_conll(text, SCHEME)
        assert repairs == 0
        assert [s.tokens for s in sentences] == [["北", "京"], ["好"]]
        assert sentences[0].gold_labels == labs("B-GPE.NOM", "I-GPE.NOM")

    def test_unlabeled(self):
        sentences, _ = parse_conll("a\nb\n\nc\n", SCHEME)
        assert [s.tokens for s in sentences] == [["a", "b"], ["c"]]
        assert all(s.gold_labels is None for s in sentences)

    def test_label_count_must_match_token_count(self):
        with pytest.raises(ValueError, match="gold label count does not match token count"):
            Sentence(["a", "b"], [0])

    def test_invalid_bio_repaired_and_counted(self):
        sentences, repairs = parse_conll("a\tI-PER.NAM\nb\tI-PER.NAM\n", SCHEME)
        assert repairs == 1
        assert sentences[0].gold_labels == labs("B-PER.NAM", "I-PER.NAM")

    def test_column_mismatch_names_line(self):
        with pytest.raises(CorpusError, match="line 3"):
            parse_conll("a\tO\nb\tO\nc\n", SCHEME)

    def test_unknown_label_names_line(self):
        with pytest.raises(CorpusError, match="line 2"):
            parse_conll("a\tO\nb\tB-ORG.NAM\n", SCHEME)

    def test_empty_token(self):
        with pytest.raises(CorpusError, match="line 1"):
            parse_conll("\tO\n", SCHEME)

    def test_no_scheme_does_not_read_labels(self):
        # unknown, orphan-inside and empty labels alike: the column is not read
        sentences, repairs = parse_conll("a\tB-FOO.NAM\nb\tI-PER.NAM\n\nc\t\n", None)
        assert repairs == 0
        assert [s.tokens for s in sentences] == [["a", "b"], ["c"]]
        assert all(s.gold_labels is None for s in sentences)

    @pytest.mark.parametrize("text, says", [
        ("a\tO\nb\n", "line 2: expected 2 column"),
        ("a\tO\n\tO\n", "line 2: empty token"),
    ])
    def test_no_scheme_keeps_the_column_and_token_rules(self, text, says):
        with pytest.raises(CorpusError, match=says):
            parse_conll(text, None)

    def test_trailing_blank_lines(self):
        sentences, _ = parse_conll("a\tO\n\n\n", SCHEME)
        assert len(sentences) == 1

    @pytest.mark.parametrize("char", ["\u3000", "\u2028"])
    def test_other_whitespace_line_is_a_token(self, char):
        sentences, _ = parse_conll(f"a\n{char}\nb\n", SCHEME)
        assert [s.tokens for s in sentences] == [["a", char, "b"]]

    def test_spaces_and_tabs_line_is_blank(self):
        sentences, _ = parse_conll("a\tO\n \t \nb\tO\n\t\nc\tO\n", SCHEME)
        assert [s.tokens for s in sentences] == [["a"], ["b"], ["c"]]

    @pytest.mark.parametrize("char", ["\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1e"])
    def test_only_newline_ends_a_line(self, char):
        text = f"a{char}b\tO\nc\tO\n\nd\tB-ORG.NAM\n"
        sentences, _ = parse_conll(text[:text.index("\n\n")], SCHEME)
        assert sentences[0].tokens == [f"a{char}b", "c"]
        with pytest.raises(CorpusError, match="line 4"):
            parse_conll(text, SCHEME)

    def test_crlf(self):
        sentences, _ = parse_conll("a\tO\r\nb\tB-PER.NAM\r\n\r\nc\tO\r\n", SCHEME)
        assert [s.tokens for s in sentences] == [["a", "b"], ["c"]]
        assert sentences[0].gold_labels == labs("O", "B-PER.NAM")
        with pytest.raises(CorpusError, match="line 2: unknown label 'X'"):
            parse_conll("a\tO\r\nb\tX\r\n", SCHEME)


class TestPositional:
    def test_tags(self):
        assert positional_tags("a") == "S"
        assert positional_tags("ab") == "BE"
        assert positional_tags("abcd") == "BIIE"

    def test_empty_word_raises(self):
        with pytest.raises(ValueError):
            positional_tags("")


def represent_rows(tokens, seg_tags, mode, bigrams):
    """One sentence's token keys from vocab_sources, and per position a row of
    each slot's string: encode_corpus's ids read back through vocabularies
    built from vocab_sources' strings."""
    sentences, seg_map = [Sentence(tokens)], {"".join(tokens): tuple(seg_tags)}
    keys, bigram_strings = vocab_sources(sentences, seg_map, mode, bigrams)
    vocabs = {"seg": SEG_VOCAB, "bigram": build_vocab(bigram_strings)}
    [encoded] = encode_corpus(sentences, seg_map, mode, bigrams, build_vocab(keys), vocabs)
    tables = [vocabs[kind].itos for kind in slot_kinds(mode, bigrams)]
    return keys, [[table[i] for table, i in zip(tables, row)] for row in encoded.features.tolist()]


def bigram_rows(tokens, mode=MODE_POSITIONAL):
    return represent_rows(tokens, ["S"] * len(tokens), mode, True)[1]


class TestBigrams:
    def test_template_offsets(self):
        assert bigram_rows(list("ABCDE"))[2] == ["AB", "BC", "CD", "DE", "BD"]

    def test_boundaries(self):
        assert bigram_rows(list("AB"))[0] == [
            BOUNDARY + BOUNDARY,
            BOUNDARY + "A",
            "AB",
            "B" + BOUNDARY,
            BOUNDARY + "B",
        ]

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.text(min_size=1, max_size=3), min_size=1, max_size=8),
           st.sampled_from(MODES))
    def test_rows_match_the_per_position_reference(self, tokens, mode):
        seg = ["S"] if mode == MODE_SEGFEAT else []
        expected = [seg + reference_bigrams(tokens, t) for t in range(len(tokens))]
        assert bigram_rows(tokens, mode) == expected

    def test_vocab_sources_are_position_major(self):
        # each position's five strings in template order, position after position
        _, bigrams = vocab_sources([Sentence(list("ABC"))], None, MODE_POSITIONAL, True)
        b = BOUNDARY
        assert bigrams == [
            b + b, b + "A", "AB", "BC", b + "B",
            b + "A", "AB", "BC", "C" + b, "AC",
            "AB", "BC", "C" + b, b + b, "B" + b,
        ]


# tokens of 1-3 characters over two letters, so that different token pairs
# join to one bigram string ("AB" + "A" and "A" + "BA") and sentences collide
TOKENS = st.text(alphabet="AB", min_size=1, max_size=3)


@st.composite
def segmented_corpora(draw):
    """Sentences and a segmentation lookup that holds some of them. A held
    sentence of one-character tokens is a hit; one with a longer token gives
    more tags than tokens, which is a CorpusError."""
    sentences, lines = [], []
    for _ in range(draw(st.integers(0, 4))):
        token = st.sampled_from("AB") if draw(st.booleans()) else TOKENS
        tokens = draw(st.lists(token, min_size=1, max_size=5))
        sentences.append(Sentence(tokens))
        if draw(st.booleans()):
            text = "".join(tokens)
            cuts = sorted(draw(st.sets(st.integers(1, max(1, len(text) - 1)))) - {len(text)})
            lines.append(" ".join(text[i:j] for i, j in zip([0, *cuts], [*cuts, len(text)])))
    return sentences, load_segmentation("\n".join(lines))


def assert_same_encoding(ours, theirs, n_slots):
    assert len(ours) == len(theirs)
    for a, b in zip(ours, theirs):
        n = len(b.tokens)
        assert a.tokens is b.tokens and a.gold_labels is b.gold_labels
        assert a.token_ids.dtype == a.features.dtype == np.intp
        assert a.token_ids.shape == (n,) and a.features.shape == (n, n_slots)
        # each sentence owns its arrays rather than views of corpus-wide ones
        assert a.token_ids.base is None and a.features.base is None
        assert np.array_equal(a.token_ids, b.token_ids)
        assert np.array_equal(a.features, b.features)


class TestCorpusColumns:
    """encode_corpus and vocab_sources, which build each distinct column once
    for the whole corpus, against the per-sentence references they replaced."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(segmented_corpora(), st.sampled_from(MODES), st.booleans())
    def test_match_the_per_sentence_references(self, corpus, mode, bigrams):
        sentences, seg_map = corpus
        try:
            expected = reference_vocab_sources(sentences, seg_map, mode, bigrams)
        except CorpusError as error:
            vocabs = {"seg": SEG_VOCAB, "bigram": build_vocab([])}
            for call in (lambda: vocab_sources(sentences, seg_map, mode, bigrams),
                         lambda: encode_corpus(sentences, seg_map, mode, bigrams,
                                               build_vocab([]), vocabs)):
                with pytest.raises(CorpusError, match=re.escape(str(error))):
                    call()
            return
        assert vocab_sources(sentences, seg_map, mode, bigrams) == expected
        # vocabularies from the first sentence only, so later ones meet unknowns
        tokens, bigram_strings = reference_vocab_sources(sentences[:1], seg_map, mode, bigrams)
        token_vocab = build_vocab(tokens)
        vocabs = {"seg": SEG_VOCAB, "bigram": build_vocab(bigram_strings)}
        assert_same_encoding(
            encode_corpus(sentences, seg_map, mode, bigrams, token_vocab, vocabs),
            reference_encode_corpus(sentences, seg_map, mode, bigrams, token_vocab, vocabs),
            len(slot_kinds(mode, bigrams)))

    @pytest.mark.parametrize("bigrams", [True, False], ids=["bigrams", "no-bigrams"])
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("tokens", [[], [["A"]], [["AB", "C", "A", "BC"], ["C"]]],
                             ids=["empty", "one-token", "collisions"])
    def test_edge_corpora(self, tokens, mode, bigrams):
        sentences = [Sentence(t) for t in tokens]
        token_strings, bigram_strings = vocab_sources(sentences, None, mode, bigrams)
        assert (token_strings, bigram_strings) == reference_vocab_sources(sentences, None, mode,
                                                                          bigrams)
        token_vocab = build_vocab(token_strings)
        vocabs = {"seg": SEG_VOCAB, "bigram": build_vocab(bigram_strings)}
        ours = encode_corpus(sentences, None, mode, bigrams, token_vocab, vocabs)
        assert_same_encoding(
            ours, reference_encode_corpus(sentences, None, mode, bigrams, token_vocab, vocabs),
            len(slot_kinds(mode, bigrams)))
        if bigrams and tokens[1:]:
            # "AB" + "C" (template (0, 1) at 0) and "A" + "BC" (at 2) are one string
            assert ours[0].features[0, -3] == ours[0].features[2, -3] > 1

    def test_a_hit_with_another_tag_count_is_a_corpus_error(self):
        seg_map = load_segmentation("ABC\n")  # one word: three tags
        sentences = [Sentence(["A", "B", "C"]), Sentence(["AB", "C"])]
        with pytest.raises(CorpusError, match="gives 3 tags for its 2 tokens"):
            vocab_sources(sentences, seg_map, MODE_SEGFEAT, True)
        with pytest.raises(CorpusError, match="gives 3 tags for its 2 tokens"):
            encode_corpus(sentences, seg_map, MODE_POSITIONAL, False, build_vocab([]), {})


class TestSegmentation:
    def test_load_first_wins(self):
        table = load_segmentation("AB C\nA BC\nAB C D\n")
        assert table["ABC"] == ("B", "E", "S")
        assert table["ABCD"] == ("B", "E", "S", "S")

    def test_lookup_and_fallback(self):
        table = load_segmentation("AB C\n")
        assert seg_tags_for(list("ABC"), table) == ["B", "E", "S"]
        assert seg_tags_for(list("XY"), table) == ["S", "S"]
        assert seg_tags_for(list("XY"), None) == ["S", "S"]

    def test_lines_end_at_newline_words_at_spaces(self):
        table = load_segmentation("A\u2028B C\r\nD  E\tF\r\n")
        assert table == {"A\u2028BC": ("B", "I", "E", "S"), "DEF": ("S", "S", "S")}
        assert seg_tags_for(list("A\u2028BC"), table) == ["B", "I", "E", "S"]


class TestVocab:
    def test_reserved_and_unknown(self):
        vocab = build_vocab(["x", "y", "x"])
        assert vocab.itos[:2] == ["<unk>", "<pad>"]
        assert vocab.index("x") == 2
        assert vocab.index("missing") == 0
        assert "y" in vocab.stoi and "missing" not in vocab.stoi
        # first-occurrence order; reserved strings in the input are not re-added
        assert build_vocab(["b", "<pad>", "a", "b", "<unk>"]).itos == ["<unk>", "<pad>", "b", "a"]

    def test_requires_reserved_prefix(self):
        with pytest.raises(ValueError):
            Vocab.from_itos(["a", "b"])

    def test_rejects_a_duplicate(self):
        # the duplicate's first row could never be reached
        with pytest.raises(ValueError, match="hold no duplicate"):
            Vocab.from_itos(["<unk>", "<pad>", "a", "a"])

    @pytest.mark.parametrize("entry", [5, None, 2.5, b"a"])
    def test_rejects_a_non_string(self, entry):
        with pytest.raises(ValueError, match="must hold strings"):
            Vocab.from_itos(["<unk>", "<pad>", "a", entry])


class TestRepresent:
    def test_slot_kinds(self):
        assert slot_kinds(MODE_POSITIONAL, True) == ["bigram"] * 5
        assert slot_kinds(MODE_POSITIONAL, False) == []
        assert slot_kinds(MODE_SEGFEAT, True) == ["seg"] + ["bigram"] * 5
        assert slot_kinds(MODE_SEGFEAT, False) == ["seg"]

    def test_positional_surface(self):
        surface, slots = represent_rows(list("ABC"), ["B", "E", "S"], MODE_POSITIONAL, False)
        assert surface == ["A#B", "B#E", "C#S"]
        assert slots == [[], [], []]

    def test_segfeat_surface(self):
        surface, slots = represent_rows(list("AB"), ["B", "E"], MODE_SEGFEAT, False)
        assert surface == ["A", "B"]
        assert slots == [["B"], ["E"]]

    def test_encode_ids(self):
        sent = Sentence(list("AB"))
        vocab = build_vocab(["A", "B"])
        [encoded] = encode_corpus([sent], None, MODE_SEGFEAT, False, vocab, {"seg": SEG_VOCAB})
        assert encoded.token_ids.tolist() == [2, 3]
        assert encoded.features.tolist() == [[SEG_VOCAB.index("S")], [SEG_VOCAB.index("S")]]

    def test_encode_with_bigrams(self):
        sent = Sentence(list("AB"))
        surface, slots = represent_rows(sent.tokens, ["S", "S"], MODE_POSITIONAL, True)
        vocab = build_vocab(surface)
        bigram_vocab = build_vocab(s for row in slots for s in row)
        [encoded] = encode_corpus([sent], None, MODE_POSITIONAL, True, vocab,
                                  {"bigram": bigram_vocab})
        assert len(encoded.features) == 2
        assert all(len(row) == 5 for row in encoded.features)
        assert all(i > 0 for row in encoded.features for i in row)
        assert encoded.features.tolist() == [[bigram_vocab.index(s) for s in row] for row in slots]

    @pytest.mark.parametrize("bigrams", [True, False], ids=["bigrams", "no-bigrams"])
    @pytest.mark.parametrize("mode", MODES)
    def test_encoded_sentences_carry_integer_arrays(self, mode, bigrams):
        sentences = [Sentence(list("ABC"), labs("B-PER.NAM", "I-PER.NAM", "O")),
                     Sentence(list("D"), labs("O"))]
        vocabs = {"seg": SEG_VOCAB, "bigram": build_vocab(["AB"])}
        n_slots = len(slot_kinds(mode, bigrams))
        token_vocab = build_vocab(["A", "A#S"])
        encoded = encode_corpus(sentences, None, mode, bigrams, token_vocab, vocabs)
        for sent, enc in zip(sentences, encoded):
            n = len(sent)
            keys, _ = vocab_sources([sent], None, mode, bigrams)
            assert enc.token_ids.dtype == enc.features.dtype == np.intp
            assert enc.token_ids.shape == (n,)
            assert enc.features.shape == (n, n_slots)
            assert enc.token_ids.tolist() == [token_vocab.index(k) for k in keys]
            assert enc.tokens == sent.tokens  # the text, not the keys
            assert type(enc.gold_labels) is list and enc.gold_labels == sent.gold_labels

    def test_encoded_sentences_compare_by_identity(self):
        # two encodings of one sentence hold equal arrays; == and `in` must
        # still give a bool rather than ask numpy for an array's truth value
        sentences = [Sentence(list("ABC"), labs("B-PER.NAM", "I-PER.NAM", "O"))]
        vocab = build_vocab(list("ABC"))
        first, second = (encode_corpus(sentences, None, MODE_SEGFEAT, True, vocab,
                                       {"seg": SEG_VOCAB, "bigram": build_vocab(["AB"])})
                         for _ in range(2))
        assert (first[0] == second[0]) is False and (first[0] != second[0]) is True
        assert (first[0] == first[0]) is True
        assert (first[0] in second) is False and (first[0] in first) is True
