import math

import numpy as np
import pytest

from mmner.network import EmissionMatrix
from mmner.structured import beam_topk, sentence_score, viterbi

from oracles import (
    adversarial_instances,
    enumerate_all,
    loop_sentence_score,
    random_instance,
    reference_beam,
)


def em_from_probs(rows):
    probs = np.asarray(rows, dtype=float)
    return EmissionMatrix(probs, np.log(probs))


class TestSentenceScore:
    def test_single_uniform(self):
        em = em_from_probs([[0.5, 0.5]])
        assert sentence_score(em, np.zeros((3, 2)), [0]) == pytest.approx(math.log(0.5))

    def test_two_positions(self):
        em = em_from_probs([[0.9, 0.1], [0.8, 0.2]])
        score = sentence_score(em, np.zeros((3, 2)), [0, 0])
        assert score == pytest.approx(math.log(0.9) + math.log(0.8))
        assert score == pytest.approx(-0.328504, abs=1e-6)

    def test_transition_terms(self):
        em = em_from_probs([[0.5, 0.5], [0.5, 0.5]])
        trans = np.arange(6, dtype=float).reshape(3, 2)
        # start row is trans[2]; path 1 -> 0 uses trans[2,1] then trans[1,0]
        assert sentence_score(em, trans, [1, 0]) == pytest.approx(
            5.0 + 2.0 + 2 * math.log(0.5)
        )

    def test_constant_shift_adds_n_times_c(self):
        rng = np.random.default_rng(0)
        em, trans = random_instance(rng, 4, 3)
        labels = [2, 0, 1, 1]
        base = sentence_score(em, trans, labels)
        shifted = sentence_score(em, trans + 2.5, labels)
        assert shifted == pytest.approx(base + 4 * 2.5, rel=1e-12)

    def test_length_mismatch(self):
        em = em_from_probs([[0.5, 0.5]])
        with pytest.raises(ValueError):
            sentence_score(em, np.zeros((3, 2)), [0, 1])
        with pytest.raises(ValueError):
            sentence_score(em, np.zeros((4, 3)), [0])

    def test_equals_the_loop_bit_for_bit(self):
        # empty sequences, signed zeros, -inf log-probs and terms 16 orders
        # of magnitude apart; the sign of a zero total must match too
        rng = np.random.default_rng(20)
        for _ in range(600):
            n, n_labels = int(rng.integers(0, 7)), int(rng.integers(1, 5))
            log_probs = -np.abs(rng.normal(size=(n, n_labels))) * 10.0 ** rng.integers(0, 17)
            trans = rng.normal(size=(n_labels + 1, n_labels)) * 10.0 ** rng.integers(0, 17)
            for arr in (log_probs, trans):
                zeros = rng.random(arr.shape) < 0.3
                arr[zeros] = rng.choice([0.0, -0.0], size=int(zeros.sum()))
            log_probs[rng.random(log_probs.shape) < 0.05] = -np.inf
            em = EmissionMatrix(np.exp(log_probs), log_probs)
            labels = rng.integers(0, n_labels, size=n).tolist()
            got, want = sentence_score(em, trans, labels), loop_sentence_score(em, trans, labels)
            assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)

    @pytest.mark.parametrize("labels", [[3], [0, 3], [1.0, 0], [0, "a"]])
    def test_bad_labels_raise_as_the_loop_does(self, labels):
        em = em_from_probs([[0.2, 0.3, 0.5]] * len(labels))
        for score in (sentence_score, loop_sentence_score):
            with pytest.raises(IndexError):
                score(em, np.zeros((4, 3)), labels)

    def test_a_negative_label_raises(self):
        # wrapped, -1 as the next position's predecessor would read the start row
        em = em_from_probs([[0.2, 0.3, 0.5]] * 2)
        with pytest.raises(IndexError):
            sentence_score(em, np.arange(12.0).reshape(4, 3), [-1, 0])


class TestViterbi:
    def test_single_label(self):
        em = em_from_probs([[1.0], [1.0], [1.0]])
        trans = np.full((2, 1), 0.25)
        out = viterbi(em, trans)
        assert out.labels == [0, 0, 0]
        assert out.score == pytest.approx(0.75)

    def test_all_ties_pick_lowest_index(self):
        em = em_from_probs([[0.25] * 4] * 3)
        out = viterbi(em, np.zeros((5, 4)))
        assert out.labels == [0, 0, 0]
        assert out.score == pytest.approx(3 * math.log(0.25))

    def test_matches_enumeration(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            n = int(rng.integers(1, 8))
            n_labels = int(rng.integers(1, 6))
            em, trans = random_instance(rng, n, n_labels)
            got = viterbi(em, trans)
            best_score, best_labels = enumerate_all(em, trans)[0]
            assert got.labels == list(best_labels)
            assert got.score == pytest.approx(best_score, abs=1e-9)

    def test_score_reverifies(self):
        rng = np.random.default_rng(7)
        em, trans = random_instance(rng, 5, 4)
        out = viterbi(em, trans)
        assert out.score == sentence_score(em, trans, out.labels)

    def test_exact_in_floating_point_on_adversarial_instances(self):
        # the DP adds sentence_score's terms in its order: its value is the
        # winner's score bit for bit, and no sequence scores higher
        for em, trans in adversarial_instances(seed=0, count=2000):
            got = viterbi(em, trans)
            assert got.score.hex() == sentence_score(em, trans, got.labels).hex()
            assert got.score == enumerate_all(em, trans)[0][0]

    def test_shift_invariance_of_argmax(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            em, trans = random_instance(rng, 4, 3)
            assert viterbi(em, trans).labels == viterbi(em, trans - 3.7).labels


class TestBeamTopk:
    def test_k1_is_viterbi(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            em, trans = random_instance(rng, int(rng.integers(1, 6)), int(rng.integers(1, 5)))
            top = beam_topk(em, trans, 1)
            assert len(top) == 1
            assert top[0].labels == viterbi(em, trans).labels

    def test_single_position_ranking(self):
        em = em_from_probs([[0.5, 0.3, 0.2]])
        top = beam_topk(em, np.zeros((4, 3)), 2)
        assert [s.labels for s in top] == [[0], [1]]
        assert top[0].score == pytest.approx(math.log(0.5))
        assert top[1].score == pytest.approx(math.log(0.3))

    def test_full_width_matches_enumeration(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            n = int(rng.integers(1, 6))
            n_labels = int(rng.integers(1, 4))
            em, trans = random_instance(rng, n, n_labels)
            k = n_labels ** n
            got = beam_topk(em, trans, k)
            expected = enumerate_all(em, trans)
            assert len(got) == len(expected)
            for seq, (score, labels) in zip(got, expected):
                assert seq.labels == list(labels)
                assert seq.score == pytest.approx(score, abs=1e-9)

    def test_scores_non_increasing_and_reverify(self):
        rng = np.random.default_rng(11)
        em, trans = random_instance(rng, 5, 3)
        top = beam_topk(em, trans, 7)
        scores = [s.score for s in top]
        assert scores == sorted(scores, reverse=True)
        for seq in top:
            assert seq.score == sentence_score(em, trans, seq.labels)

    def test_hoisted_head_holds_the_top_score_on_adversarial_instances(self):
        for em, trans in adversarial_instances(seed=1, count=2000):
            head, *rest = beam_topk(em, trans, 4)
            assert all(seq.score <= head.score for seq in rest)

    @pytest.mark.parametrize("n, trans_rows, k, says", [
        (2, 4, 0, "k must be >= 1"),
        (2, 3, 2, r"transition matrix must be \(4, 3\), got \(3, 3\)"),
        (0, 4, 2, "empty emission matrix"),
    ])
    def test_input_errors(self, n, trans_rows, k, says):
        em = EmissionMatrix(np.full((n, 3), 1 / 3), np.full((n, 3), math.log(1 / 3)))
        with pytest.raises(ValueError, match=f"^{says}$"):
            beam_topk(em, np.zeros((trans_rows, 3)), k)

    def test_no_duplicates(self):
        rng = np.random.default_rng(12)
        em, trans = random_instance(rng, 4, 3)
        top = beam_topk(em, trans, 81)
        assert len({tuple(s.labels) for s in top}) == len(top)

    @staticmethod
    def tie_heavy_instance(rng, n, n_labels):
        """Log-probs and transitions on a coarse grid (transitions all zero a
        third of the time), so many prefixes tie on score."""
        em, trans = random_instance(rng, n, n_labels)
        log_probs = np.round(em.log_probs * 2) / 2
        trans = np.zeros_like(trans) if rng.random() < 1 / 3 else np.round(trans)
        return EmissionMatrix(np.exp(log_probs), log_probs), trans

    def test_bit_identical_to_reference_beam(self):
        rng = np.random.default_rng(13)
        for i in range(160):
            n, n_labels = int(rng.integers(1, 61)), int(rng.integers(1, 18))
            make = self.tie_heavy_instance if i % 2 else random_instance
            em, trans = make(rng, n, n_labels)
            for k in (1, 2, 8, 20):
                got = [(s.labels, s.score) for s in beam_topk(em, trans, k)]
                want = [(s.labels, s.score) for s in reference_beam(em, trans, k)]
                assert got == want, (i, n, n_labels, k)

    def test_exhaustive_bit_identical_to_reference_beam(self):
        rng = np.random.default_rng(14)
        for i in range(120):
            n, n_labels = int(rng.integers(1, 6)), int(rng.integers(1, 4))
            make = self.tie_heavy_instance if i % 2 else random_instance
            em, trans = make(rng, n, n_labels)
            k = n_labels ** n
            got = [(s.labels, s.score) for s in beam_topk(em, trans, k)]
            assert got == [(s.labels, s.score) for s in reference_beam(em, trans, k)]
            assert len(got) == k

    def test_k_validation(self):
        em = em_from_probs([[1.0]])
        with pytest.raises(ValueError):
            beam_topk(em, np.zeros((2, 1)), 0)
