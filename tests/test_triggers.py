import numpy as np
import pytest

from mmner.corpus import TagScheme
from mmner.triggers import (
    Trigger,
    fscore_delta,
    hamming_delta,
    integrated_delta,
    sentence_f1,
)

from oracles import oracle_f1

SCHEME = TagScheme.from_entity_types((("PER", "NAM"), ("GPE", "NOM")))
O = SCHEME.index("O")
B = SCHEME.index("B-PER.NAM")
I = SCHEME.index("I-PER.NAM")
B2 = SCHEME.index("B-GPE.NOM")


def random_labels(rng, n):
    return [int(rng.integers(SCHEME.n_labels)) for _ in range(n)]


class TestHamming:
    def test_one_mismatch(self):
        assert hamming_delta([B, I, O], [B, O, O], 0.2) == pytest.approx(0.2)

    def test_identity(self):
        assert hamming_delta([B, I, O], [B, I, O], 0.2) == 0.0

    def test_all_differ(self):
        assert hamming_delta([O] * 7, [B] * 7, 0.3) == pytest.approx(0.3 * 7)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            hamming_delta([O], [O, O], 0.2)


class TestSentenceF1:
    def test_truncated_entity_scores_zero(self):
        assert sentence_f1([B, I, O], [B, O, O], SCHEME) == 0.0

    def test_identity_with_entity(self):
        assert sentence_f1([B, I, O], [B, I, O], SCHEME) == 1.0

    def test_half_right(self):
        gold = [B, O, B2, O]
        pred = [B, O, O, B2]
        assert sentence_f1(gold, pred, SCHEME) == pytest.approx(0.5)

    def test_both_empty(self):
        assert sentence_f1([O, O], [O, O], SCHEME) == 1.0

    def test_one_empty(self):
        assert sentence_f1([O, O], [B, O], SCHEME) == 0.0
        assert sentence_f1([B, O], [O, O], SCHEME) == 0.0

    def test_invalid_bio_is_repaired(self):
        # a bare I- run counts as an entity after repair
        assert sentence_f1([B, I], [I, I], SCHEME) == 1.0

    def test_matches_oracle_on_random_pairs(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            n = int(rng.integers(1, 10))
            gold, pred = random_labels(rng, n), random_labels(rng, n)
            assert sentence_f1(gold, pred, SCHEME) == pytest.approx(
                oracle_f1(gold, pred, SCHEME), abs=1e-12
            )


class TestFscoreDelta:
    def test_degenerate_case(self):
        assert fscore_delta([B, I, O], [B, O, O], 0.2, SCHEME) == pytest.approx(0.2)

    def test_identity(self):
        assert fscore_delta([B, I, O], [B, I, O], 0.2, SCHEME) == 0.0

    def test_half(self):
        gold = [B, O, B2, O]
        pred = [B, O, O, B2]
        assert fscore_delta(gold, pred, 0.2, SCHEME) == pytest.approx(0.1)


class TestIntegratedDelta:
    def test_composite_hand_value(self):
        # F1 = 0 and one of three positions wrong:
        # 0.2 * (1 - 0) + 0.2 * (0.2 * 1) = 0.24
        got = integrated_delta([B, I, O], [B, O, O], 0.2, 0.2, SCHEME)
        assert got == pytest.approx(0.24)

    def test_identity(self):
        assert integrated_delta([B, I, O], [B, I, O], 0.2, 0.2, SCHEME) == 0.0

    def test_beta_zero_reduces_to_fscore(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            n = int(rng.integers(1, 8))
            gold, pred = random_labels(rng, n), random_labels(rng, n)
            assert integrated_delta(gold, pred, 0.2, 0.0, SCHEME) == pytest.approx(
                fscore_delta(gold, pred, 0.2, SCHEME), abs=1e-15
            )

    def test_monotone_in_beta(self):
        gold = [B, I, O]
        pred = [B, O, O]
        values = [integrated_delta(gold, pred, 0.2, b, SCHEME) for b in (0.0, 0.1, 0.5, 1.0)]
        assert values == sorted(values)


class TestAxioms:
    def test_axioms_random_pairs(self):
        rng = np.random.default_rng(15)
        kappa = 0.2
        for _ in range(300):
            n = int(rng.integers(1, 9))
            gold, pred = random_labels(rng, n), random_labels(rng, n)
            mismatches = sum(1 for a, b in zip(gold, pred) if a != b)
            h = hamming_delta(gold, pred, kappa)
            f = fscore_delta(gold, pred, kappa, SCHEME)
            g = integrated_delta(gold, pred, kappa, 0.2, SCHEME)
            assert h == kappa * mismatches
            assert 0.0 <= f <= kappa
            assert g >= 0.0
            assert h <= kappa * n
            assert g <= kappa + 0.2 * kappa * n + 1e-12
            assert hamming_delta(gold, gold, kappa) == 0.0
            assert fscore_delta(gold, gold, kappa, SCHEME) == 0.0
            assert integrated_delta(gold, gold, kappa, 0.2, SCHEME) == 0.0


class TestTriggerType:
    def test_dispatch(self):
        gold, pred = [B, I, O], [B, O, O]
        assert Trigger("hamming", 0.2).delta(gold, pred, SCHEME) == pytest.approx(0.2)
        assert Trigger("fscore", 0.2).delta(gold, pred, SCHEME) == pytest.approx(0.2)
        assert Trigger("integrated", 0.2, 0.2).delta(gold, pred, SCHEME) == pytest.approx(0.24)

    def test_needs_rerank(self):
        assert not Trigger("hamming").needs_rerank
        assert Trigger("fscore").needs_rerank
        assert Trigger("integrated").needs_rerank

    def test_validation(self):
        with pytest.raises(ValueError):
            Trigger("squared")
        with pytest.raises(ValueError):
            Trigger("hamming", kappa=-0.1)
        with pytest.raises(ValueError):
            Trigger("integrated", beta=-1.0)

    @pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Trigger("hamming", kappa=bad)
        with pytest.raises(ValueError, match="finite"):
            Trigger("integrated", beta=bad)
