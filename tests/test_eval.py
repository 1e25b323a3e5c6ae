"""Entity-level evaluation: group counts, micro-averaging, OOV recall."""

import numpy as np
import pytest

from mmner.corpus import Sentence, TagScheme
from mmner.evaluation import (
    Counts,
    evaluate,
    gold_entity_surfaces,
    group_of,
    render_report,
    token_accuracy,
)
from mmner.synthetic import synthetic_corpus

SCHEME = TagScheme.from_entity_types(
    (("PER", "NAM"), ("PER", "NOM"), ("GPE", "NAM"), ("GPE", "NOM"))
)


def sent(tokens, labels):
    return Sentence(tokens=list(tokens), gold_labels=list(labels))


def lab(*names):
    return [SCHEME.index(n) for n in names]


class TestCounts:
    def test_perfect(self):
        c = Counts(tp=5, fp=0, fn=0)
        assert c.precision == 1.0 and c.recall == 1.0 and c.f1 == 1.0

    def test_zero_support(self):
        c = Counts()
        assert c.precision == 0.0 and c.recall == 0.0 and c.f1 == 0.0

    def test_asymmetric(self):
        c = Counts(tp=1, fp=3, fn=1)
        assert c.precision == pytest.approx(0.25)
        assert c.recall == pytest.approx(0.5)
        assert c.f1 == pytest.approx(2 * 0.25 * 0.5 / 0.75)


class TestGroupOf:
    def test_kinds(self):
        assert group_of("PER.NAM") == "named"
        assert group_of("GPE.NOM") == "nominal"


class TestTokenAccuracy:
    def test_identical(self):
        assert token_accuracy([[0, 1, 2]], [[0, 1, 2]]) == 1.0

    def test_disjoint(self):
        assert token_accuracy([[0, 0]], [[1, 1]]) == 0.0

    def test_partial(self):
        assert token_accuracy([[0, 1], [2]], [[0, 2], [2]]) == pytest.approx(2 / 3)

    def test_shape_errors(self):
        with pytest.raises(ValueError):
            token_accuracy([[0]], [[0], [1]])
        with pytest.raises(ValueError):
            token_accuracy([[0, 1]], [[0]])
        with pytest.raises(ValueError):
            token_accuracy([], [])


class TestEvaluate:
    def test_identical_predictions_score_one(self):
        corpus = synthetic_corpus(n_sentences=12, seed=5)
        preds = [list(s.gold_labels) for s in corpus.sentences]
        report = evaluate(corpus.sentences, preds, corpus.scheme)
        assert report.overall_f1 == 1.0
        for counts in report.groups.values():
            assert counts.fp == 0 and counts.fn == 0
        assert report.overall.tp == sum(c.tp for c in report.groups.values())

    def test_boundary_miss_scores_zero(self):
        # gold entity spans two tokens, prediction truncates it: the token
        # accuracy stays decent while the span-level score collapses
        gold = [sent("张伟来", lab("B-PER.NAM", "I-PER.NAM", "O"))]
        pred = [lab("B-PER.NAM", "O", "O")]
        assert token_accuracy([gold[0].gold_labels], pred) == pytest.approx(2 / 3)
        report = evaluate(gold, pred, SCHEME)
        assert report.overall.tp == 0
        assert report.overall.fp == 1 and report.overall.fn == 1
        assert report.overall_f1 == 0.0

    def test_micro_average_hand_case(self):
        # named: tp 1, fp 1, fn 1; nominal: tp 1, fp 0, fn 1
        # overall: tp 2, fp 1, fn 2 -> P 2/3, R 1/2, F1 4/7
        gold = [
            sent("张伟哥们", lab("B-PER.NAM", "I-PER.NAM", "B-PER.NOM", "I-PER.NOM")),
            sent("北京老家", lab("B-GPE.NAM", "I-GPE.NAM", "B-GPE.NOM", "I-GPE.NOM")),
        ]
        pred = [
            lab("B-PER.NAM", "I-PER.NAM", "B-PER.NOM", "O"),  # nominal fn
            lab("B-GPE.NAM", "O", "B-GPE.NOM", "I-GPE.NOM"),  # named fn+fp
        ]
        report = evaluate(gold, pred, SCHEME)
        named, nominal = report.groups["named"], report.groups["nominal"]
        assert (named.tp, named.fp, named.fn) == (1, 1, 1)
        assert (nominal.tp, nominal.fp, nominal.fn) == (1, 1, 1)
        # second sentence's truncated nominal prediction is its own span, so
        # nominal also picks up one fp; recompute the overall from counts
        assert report.overall.tp == 2
        assert report.overall.fp == 2
        assert report.overall.fn == 2
        assert report.overall.precision == pytest.approx(0.5)
        assert report.overall.f1 == pytest.approx(0.5)

    def test_micro_average_distinct_from_macro(self):
        # named: tp 1 fp 1 fn 1 (F1 1/2); nominal: tp 1 fp 0 fn 1 (F1 2/3)
        gold = [
            sent("张伟李娜", lab("B-PER.NAM", "I-PER.NAM", "B-PER.NAM", "I-PER.NAM")),
            sent("哥们老家", lab("B-PER.NOM", "I-PER.NOM", "B-GPE.NOM", "I-GPE.NOM")),
        ]
        pred = [
            lab("B-PER.NAM", "I-PER.NAM", "B-GPE.NAM", "I-GPE.NAM"),
            lab("B-PER.NOM", "I-PER.NOM", "O", "O"),
        ]
        report = evaluate(gold, pred, SCHEME)
        named, nominal = report.groups["named"], report.groups["nominal"]
        assert (named.tp, named.fp, named.fn) == (1, 1, 1)
        assert (nominal.tp, nominal.fp, nominal.fn) == (1, 0, 1)
        assert report.overall.precision == pytest.approx(2 / 3)
        assert report.overall.recall == pytest.approx(1 / 2)
        assert report.overall_f1 == pytest.approx(4 / 7)
        macro = (named.f1 + nominal.f1) / 2
        assert report.overall_f1 != pytest.approx(macro)

    def test_sentence_order_invariance(self):
        corpus = synthetic_corpus(n_sentences=10, seed=9)
        rng = np.random.default_rng(0)
        preds = [
            [int(rng.integers(corpus.scheme.n_labels)) for _ in s.tokens]
            for s in corpus.sentences
        ]
        base = evaluate(corpus.sentences, preds, corpus.scheme)
        order = list(rng.permutation(len(preds)))
        shuffled = evaluate(
            [corpus.sentences[i] for i in order],
            [preds[i] for i in order],
            corpus.scheme,
        )
        assert shuffled.overall_f1 == base.overall_f1
        for name in base.groups:
            assert shuffled.groups[name].tp == base.groups[name].tp
            assert shuffled.groups[name].fp == base.groups[name].fp
            assert shuffled.groups[name].fn == base.groups[name].fn

    def test_predictions_are_repaired(self):
        gold = [sent("张伟", lab("B-PER.NAM", "I-PER.NAM"))]
        pred = [lab("I-PER.NAM", "I-PER.NAM")]  # orphan head repairs to B
        report = evaluate(gold, pred, SCHEME)
        assert report.overall.tp == 1 and report.overall_f1 == 1.0

    def test_shape_errors(self):
        gold = [sent("两个", lab("O", "O"))]
        with pytest.raises(ValueError):
            evaluate(gold, [], SCHEME)
        with pytest.raises(ValueError):
            evaluate(gold, [lab("O")], SCHEME)
        with pytest.raises(ValueError, match="sentence has no gold labels"):
            evaluate([Sentence(list("两个"))], [lab("O", "O")], SCHEME)


class TestOov:
    GOLD = [
        sent("张伟来", lab("B-PER.NAM", "I-PER.NAM", "O")),
        sent("去北京", lab("O", "B-GPE.NAM", "I-GPE.NAM")),
    ]

    def test_surfaces(self):
        surfaces = gold_entity_surfaces([*self.GOLD, Sentence(list("上海"))], SCHEME)
        assert surfaces == {"张伟", "北京"}  # the unlabeled sentence is skipped

    def test_recall_splits_known_and_unknown(self):
        # 张伟 seen in training, 北京 not; both predicted correctly
        preds = [list(s.gold_labels) for s in self.GOLD]
        report = evaluate(self.GOLD, preds, SCHEME, train_surfaces={"张伟"})
        assert report.oov_known
        assert report.oov_total == 1 and report.oov_hit == 1
        assert report.oov_recall == 1.0

    def test_recall_counts_misses(self):
        preds = [lab("B-PER.NAM", "I-PER.NAM", "O"), lab("O", "O", "O")]
        report = evaluate(self.GOLD, preds, SCHEME, train_surfaces={"张伟"})
        assert report.oov_total == 1 and report.oov_hit == 0
        assert report.oov_recall == 0.0

    def test_all_known_has_zero_total(self):
        preds = [list(s.gold_labels) for s in self.GOLD]
        report = evaluate(self.GOLD, preds, SCHEME, train_surfaces={"张伟", "北京"})
        assert report.oov_total == 0
        assert report.oov_recall == 0.0

    def test_unknown_without_train_surfaces(self):
        preds = [list(s.gold_labels) for s in self.GOLD]
        report = evaluate(self.GOLD, preds, SCHEME)
        assert not report.oov_known
        assert "OOV recall" in render_report(report)
        assert "-" in render_report(report)


class TestRenderReport:
    def make_report(self):
        preds = [list(s.gold_labels) for s in TestOov.GOLD]
        return evaluate(TestOov.GOLD, preds, SCHEME, train_surfaces={"张伟"})

    def test_table_lines(self):
        text = render_report(self.make_report())
        lines = text.splitlines()
        assert lines[0].split() == ["Precision", "Recall", "F1"]
        names = [line.split()[0] for line in lines[1:]]
        assert names == ["Named", "Nominal", "Overall", "OOV"]
        assert lines[-1].endswith("(1/1)")

    def test_tsv_lines(self):
        text = render_report(self.make_report(), tsv=True)
        rows = [line.split("\t") for line in text.splitlines()]
        assert [r[0] for r in rows] == ["named", "nominal", "overall", "oov"]
        named = rows[0]
        assert named[1:4] == ["2", "0", "0"]
        assert named[4:] == ["1.0000", "1.0000", "1.0000"]
        assert rows[-1] == ["oov", "1.0000", "1"]

    def test_tsv_without_oov(self):
        preds = [list(s.gold_labels) for s in TestOov.GOLD]
        report = evaluate(TestOov.GOLD, preds, SCHEME)
        rows = [line.split("\t") for line in render_report(report, tsv=True).splitlines()]
        assert rows[-1] == ["oov", "-", "-"]
