import hashlib
import itertools
import math
import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from mmner import training
from mmner.corpus import Sentence, TagScheme, Vocab
from mmner.embeddings import SCALE_FLOOR, RowGrad
from mmner.model import ModelMeta, ModelParams, init_params
from mmner.network import EmissionMatrix, forward_sentence
from mmner.structured import sentence_score, viterbi
from mmner.synthetic import synthetic_corpus, tiny_instance
from mmner.training import (
    ModelIOError,
    ModelShapeError,
    ModelTruncatedError,
    ModelVersionError,
    TrainConfig,
    TrainingDivergedError,
    _augmented_best,
    augmented_gap,
    finite_difference_check,
    instance_gradients,
    instance_loss,
    load_model,
    loss_augmented_predict,
    predict_all,
    predict_labels,
    save_model,
    sgd_step,
    train,
)
from mmner.triggers import Trigger

from oracles import ADVERSARIAL_SCHEME, adversarial_instances, augmented_argmax, enumerate_all
from support import append_tensor, break_proj_b, build_from_raw, save_non_finite

TRIGGERS = (Trigger("hamming"), Trigger("fscore"), Trigger("integrated"))


def forward_em(sentence, params):
    cache = forward_sentence(sentence, params.assembly(), params.fwd, params.bwd, params.proj)
    return cache.em


class TestLossAugmentedPredict:
    def test_zero_kappa_is_viterbi(self):
        for kind in ("hamming", "fscore", "integrated"):
            trigger = Trigger(kind, kappa=0.0)
            for seed in range(5):
                params, sent = tiny_instance(seed, n_tokens=int(2 + seed % 4))
                em = forward_em(sent, params)
                expect = viterbi(em, params.transitions).labels
                got = loss_augmented_predict(sent, params, trigger, beam_k=16)
                assert got.labels == expect

    def test_hamming_matches_brute_force(self):
        for seed in range(25):
            params, sent = tiny_instance(seed, n_tokens=int(2 + seed % 5))
            em = forward_em(sent, params)
            got = loss_augmented_predict(sent, params, Trigger("hamming"), beam_k=1)
            expect, _ = augmented_argmax(
                em, params.transitions, sent.gold_labels, "hamming",
                params.meta.scheme, 0.2, 0.2,
            )
            assert got.labels == expect
            assert got.score == pytest.approx(
                sentence_score(em, params.transitions, got.labels), abs=1e-12
            )

    def test_fscore_matches_brute_force_with_exhaustive_beam(self):
        for kind in ("fscore", "integrated"):
            for seed in range(15):
                params, sent = tiny_instance(seed + 100, n_tokens=int(2 + seed % 4))
                em = forward_em(sent, params)
                k = em.n_labels ** em.n
                got = loss_augmented_predict(sent, params, Trigger(kind), beam_k=k)
                expect, _ = augmented_argmax(
                    em, params.transitions, sent.gold_labels, kind,
                    params.meta.scheme, 0.2, 0.2,
                )
                assert got.labels == expect

    def test_requires_gold(self):
        params, sent = tiny_instance(0)
        sent.gold_labels = None
        with pytest.raises(ValueError):
            loss_augmented_predict(sent, params, Trigger("hamming"), 4)


def em_from_probs(rows):
    probs = np.asarray(rows, dtype=float)
    return EmissionMatrix(np.log(probs))


class TestInstanceLossHandCases:
    SCHEME2 = TagScheme(("O", "B-PER.NAM"), (("PER", "NAM"),))

    def test_confident_emission_zero_loss(self):
        em = em_from_probs([[0.9, 0.1]])
        trans = np.zeros((3, 2))
        labels, aug = _augmented_best([0], em, trans, Trigger("hamming"), self.SCHEME2, 4)
        assert labels == [0]
        assert aug == pytest.approx(math.log(0.9))
        q = aug - sentence_score(em, trans, [0])
        assert q == 0.0

    def test_tied_emission_pays_the_margin(self):
        em = em_from_probs([[0.5, 0.5]])
        trans = np.zeros((3, 2))
        labels, aug = _augmented_best([0], em, trans, Trigger("hamming"), self.SCHEME2, 4)
        assert labels == [1]
        q = aug - sentence_score(em, trans, [0])
        assert q == pytest.approx(0.2)

    def test_four_label_rerank_matches_enumeration(self):
        # |Y| = 4 exercised directly at the rerank layer
        scheme = TagScheme(
            ("O", "B-PER.NAM", "I-PER.NAM", "B-GPE.NOM"), (("PER", "NAM"), ("GPE", "NOM"))
        )
        rng = np.random.default_rng(21)
        for kind in ("hamming", "fscore", "integrated"):
            for _ in range(30):
                n = int(rng.integers(1, 5))
                logits = rng.normal(0, 1.5, (n, 4))
                shifted = logits - logits.max(axis=1, keepdims=True)
                em = EmissionMatrix(shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True)))
                trans = rng.normal(0, 1.0, (5, 4))
                gold = [int(rng.integers(4)) for _ in range(n)]
                trig = Trigger(kind)
                labels, aug = _augmented_best(gold, em, trans, trig, scheme, 4 ** n)
                expect, expect_aug = augmented_argmax(em, trans, gold, kind, scheme, 0.2, 0.2)
                assert labels == expect
                assert aug == pytest.approx(expect_aug, abs=1e-9)

    @pytest.mark.parametrize("kind", ["hamming", "fscore", "integrated"])
    def test_non_finite_scores_still_give_a_candidate(self, kind):
        em = EmissionMatrix(np.full((3, 2), np.nan))
        trans = np.zeros((3, 2))
        labels, aug = _augmented_best([0, 1, 0], em, trans, Trigger(kind), self.SCHEME2, 4)
        assert len(labels) == 3
        assert not math.isfinite(aug - sentence_score(em, trans, [0, 1, 0]))


class TestDecodeContract:
    """The tie rule of the F-score triggers' rerank and the gap the gradient
    checks resample on, both pinned exactly."""

    SCHEME2 = TagScheme(("O", "B-PER.NAM"), (("PER", "NAM"),))
    FLAT = EmissionMatrix(np.zeros((2, 2)))

    @pytest.mark.parametrize("kind", ["hamming", "fscore", "integrated"])
    def test_the_viterbi_head_wins_a_tie_it_attains(self, kind):
        # [0, 1] and [1, 0] tie on s and on Delta against all-O gold; Viterbi
        # ends on the lower label, so its head is the lexicographically larger
        trans = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 0.0]])
        assert viterbi(self.FLAT, trans).labels == [1, 0]
        labels, aug = _augmented_best([0, 0], self.FLAT, trans, Trigger(kind), self.SCHEME2, 4)
        assert labels == [1, 0]
        assert aug == sentence_score(self.FLAT, trans, [1, 0]) + Trigger(kind).delta(
            [0, 0], [1, 0], self.SCHEME2)

    @pytest.mark.parametrize("kind", ["fscore", "integrated"])
    def test_otherwise_the_smaller_labels_win_a_tie(self, kind):
        # the head [0, 0] is gold (Delta 0) and loses to the tied [0, 1], [1, 0]
        trans = np.array([[0.0, -0.125], [-0.125, -4.0], [0.0, 0.0]])
        assert viterbi(self.FLAT, trans).labels == [0, 0]
        trigger = Trigger(kind)
        labels, aug = _augmented_best([0, 0], self.FLAT, trans, trigger, self.SCHEME2, 4)
        assert labels == [0, 1]
        tied = [sentence_score(self.FLAT, trans, seq) + trigger.delta([0, 0], seq, self.SCHEME2)
                for seq in ([0, 1], [1, 0])]
        assert aug == tied[0] == tied[1] > sentence_score(self.FLAT, trans, [0, 0])

    def test_augmented_gap_is_the_brute_force_gap(self):
        for seed in range(200):
            params, sent = tiny_instance(seed, n_tokens=1 + seed % 4)
            em, scheme, gold = forward_em(sent, params), params.meta.scheme, sent.gold_labels
            every = [list(seq) for seq in itertools.product(range(em.n_labels), repeat=em.n)]
            for trigger in TRIGGERS:
                augs = sorted(sentence_score(em, params.transitions, seq)
                              + trigger.delta(gold, seq, scheme) for seq in every)
                assert augmented_gap(sent, params, trigger) == augs[-1] - augs[-2]


class TestInstanceLoss:
    def test_non_negative_everywhere(self):
        for trigger in TRIGGERS:
            for seed in range(10):
                params, sent = tiny_instance(seed, n_tokens=int(2 + seed % 4))
                q, lbar = instance_loss(sent, params, trigger, beam_k=16)
                assert q >= 0.0
                em = forward_em(sent, params)
                assert lbar.score == pytest.approx(
                    sentence_score(em, params.transitions, lbar.labels), abs=1e-12
                )

    def test_non_negative_in_floating_point_on_adversarial_instances(self):
        # gold is the exact argmax of s, the case where a decoder that rounds
        # its sums differently from sentence_score finds only worse sequences
        for em, trans in adversarial_instances(seed=2, count=1500):
            gold = list(enumerate_all(em, trans)[0][1])
            plain = sentence_score(em, trans, gold)
            for trigger in TRIGGERS:
                _, aug = _augmented_best(gold, em, trans, trigger, ADVERSARIAL_SCHEME, beam_k=1)
                assert aug >= plain, trigger.kind

    def test_positive_when_gold_loses(self):
        found_positive = False
        for seed in range(20):
            params, sent = tiny_instance(seed, n_tokens=3)
            q, lbar = instance_loss(sent, params, Trigger("hamming"), beam_k=8)
            assert q >= 0.0
            if lbar.labels != sent.gold_labels:
                assert q > 0.0
                found_positive = True
        assert found_positive  # random models mostly get it wrong

    def _force_gold_dominant(self, params, sent):
        # uniform emissions, transitions hugely favoring the outside label
        sent.gold_labels = [0] * len(sent)
        params.proj.w_hy[:] = 0.0
        params.proj.b_y[:] = 0.0
        params.transitions[:] = -10.0
        params.transitions[:, 0] = 10.0

    def test_exactly_zero_when_gold_attains_max(self):
        for trigger in TRIGGERS:
            params, sent = tiny_instance(0, n_tokens=3)
            self._force_gold_dominant(params, sent)
            q, lbar = instance_loss(sent, params, trigger, beam_k=8)
            assert lbar.labels == sent.gold_labels
            assert q == 0.0

    def test_gradients_none_when_gold_wins(self):
        params, sent = tiny_instance(1, n_tokens=2)
        self._force_gold_dominant(params, sent)
        q, lbar, grads = instance_gradients(sent, params, Trigger("hamming"), 8)
        assert lbar.labels == sent.gold_labels
        assert grads is None
        assert q == 0.0


BAD_TOKEN_ROWS = ("gradient for emb_token must have strictly ascending integer rows in [0, 4) "
                  "and float values of shape (rows, 3)")


class TestSgdStep:
    def test_pure_decay(self):
        params, _ = tiny_instance(4)
        params.transitions[:] = 1.0
        sgd_step(params, None, lr=0.1, l2_lambda=1e-6)
        np.testing.assert_allclose(params.transitions, 0.9999999, rtol=1e-12)

    def test_plain_gradient(self):
        params, _ = tiny_instance(5)
        params.transitions[:] = 1.0
        grads = {"transitions": np.full_like(params.transitions, 2.0)}
        sgd_step(params, grads, lr=0.1, l2_lambda=0.0)
        np.testing.assert_allclose(params.transitions, 0.8, rtol=1e-12)

    def test_zero_lr_is_identity(self):
        params, _ = tiny_instance(6)
        before = {k: v.copy() for k, v in params.named_tensors().items()}
        sgd_step(params, None, lr=0.0, l2_lambda=1e-6)
        for name, arr in params.named_tensors().items():
            np.testing.assert_array_equal(arr, before[name])

    def test_shape_mismatch(self):
        params, _ = tiny_instance(7)
        with pytest.raises(ValueError):
            sgd_step(params, {"transitions": np.zeros(3)}, 0.1, 0.0)

    @pytest.mark.parametrize("name, grad, says", [
        ("lstm_fw_w", np.zeros(3), "gradient for unknown tensor(s): lstm_fw_w"),
        ("emb_token", np.zeros((4, 2)), "gradient for emb_token must be a RowGrad, got ndarray"),
        # tensors updated after others: rejected before anything changes
        ("emb_bigram", np.zeros((4, 2)), "gradient for emb_bigram must be a RowGrad, got ndarray"),
        ("proj_b", np.zeros(99),
         "gradient for proj_b must be a float array of shape (3,), got float64 of shape (99,)"),
        ("proj_b", np.ones(3, dtype=np.int64),
         "gradient for proj_b must be a float array of shape (3,), got int64 of shape (3,)"),
        ("proj_b", RowGrad(np.array([0]), np.zeros((1, 3))),
         "gradient for proj_b must be an array, got RowGrad"),
        # a RowGrad that does not fit its table: emb_token is 4 x 3, emb_bigram 10 x 2
        ("emb_token", RowGrad(np.array([0, 1]), np.ones((2, 2))), BAD_TOKEN_ROWS),
        ("emb_token", RowGrad(np.array([4]), np.ones((1, 3))), BAD_TOKEN_ROWS),
        ("emb_token", RowGrad(np.array([2, 2]), np.ones((2, 3))), BAD_TOKEN_ROWS),
        ("emb_token", RowGrad(np.array([-1]), np.ones((1, 3))), BAD_TOKEN_ROWS),
        ("emb_token", RowGrad(np.array([2, 1]), np.ones((2, 3))), BAD_TOKEN_ROWS),
        ("emb_token", RowGrad(np.array([1.0]), np.ones((1, 3))), BAD_TOKEN_ROWS),
        ("emb_token", RowGrad(np.array([1]), np.ones((1, 3), dtype=int)), BAD_TOKEN_ROWS),
        ("emb_bigram", RowGrad(np.array([[1]]), np.ones((1, 2))),
         "gradient for emb_bigram must have strictly ascending integer rows in [0, 10) "
         "and float values of shape (rows, 2)"),
    ])
    def test_a_gradient_it_cannot_apply_raises_and_changes_nothing(self, name, grad, says):
        params, _ = tiny_instance(7)
        before = {k: v.copy() for k, v in params.named_tensors().items()}
        with pytest.raises(ValueError) as err:
            sgd_step(params, {name: grad}, 0.1, 0.3)
        assert str(err.value) == says
        for k, arr in params.named_tensors().items():
            np.testing.assert_array_equal(arr, before[k])

    @pytest.mark.parametrize("l2", [0.0, 0.3])
    def test_in_place_update_matches_the_allocating_formula(self, l2):
        # sgd_step scales each gradient in place; the result must equal,
        # bit for bit, theta - lr * g computed through a temporary
        params, _ = tiny_instance(15)
        rng = np.random.default_rng(15)
        grads = {name: rng.normal(size=arr.shape) for name, arr in params.dense_tensors().items()}
        for name, table in params.tables.items():
            rows = np.sort(rng.choice(table.size, size=3, replace=False))
            grads[name] = RowGrad(rows, rng.normal(size=(3, table.dim)))
        reference = params.copy()
        for table in (*params.tables.values(), *reference.tables.values()):
            table.scale = 0.7
        lr = 0.1
        for name, table in reference.tables.items():
            table.scale *= 1.0 - lr * l2
            g = grads[name]
            table.vectors[g.rows] -= (lr / table.scale) * g.values
        for name, arr in reference.dense_tensors().items():
            if l2:
                arr *= 1.0 - lr * l2
            arr -= lr * grads[name]
        sgd_step(params, grads, lr, l2)
        for name, table in params.tables.items():
            assert table.scale == reference.tables[name].scale
            assert (table.vectors == reference.tables[name].vectors).all(), name
        for name, arr in params.dense_tensors().items():
            assert (arr == reference.dense_tensors()[name]).all(), name


class TestTrainLoop:
    def make_setup(self, n=10, seed=0, epochs=5, trigger=None):
        corpus = synthetic_corpus(n, seed=seed)
        params, encoded = build_from_raw(
            corpus.sentences, corpus.scheme, mode="positional", bigrams=False,
            window=3, d_token=8, hidden=8, seed=seed,
        )
        config = TrainConfig(
            trigger or Trigger("hamming"), epochs=epochs, seed=seed, window=3
        )
        return params, encoded, config

    def test_mean_instance_loss_decreases(self):
        params, encoded, config = self.make_setup()

        def mean_q(p):
            return np.mean([instance_loss(s, p, config.trigger, config.beam_k)[0]
                            for s in encoded])

        before = mean_q(params)
        best, log = train(params, encoded, [], config)
        assert mean_q(best) < before
        assert len(log) == config.epochs

    def test_determinism(self):
        p1, enc, cfg = self.make_setup(seed=3)
        _, log1 = train(p1, enc, enc, cfg)
        p2, enc2, cfg2 = self.make_setup(seed=3)
        _, log2 = train(p2, enc2, enc2, cfg2)
        assert log1 == log2
        for (n1, a1), (n2, a2) in zip(p1.named_tensors().items(), p2.named_tensors().items()):
            assert n1 == n2
            np.testing.assert_array_equal(a1, a2)

    def test_decay_one_keeps_lr_constant(self):
        params, encoded, _ = self.make_setup()
        config = TrainConfig(Trigger("hamming"), decay=1.0, epochs=3, window=3)
        _, log = train(params, encoded, [], config)
        lrs = {line.split("\t")[1] for line in log}
        assert lrs == {"0.1"}

    def test_dev_columns_dash_without_dev(self):
        params, encoded, config = self.make_setup(epochs=2)
        _, log = train(params, encoded, [], config)
        for line in log:
            assert line.split("\t")[3:] == ["-", "-", "-"]

    def test_epoch_hook_stops_early(self):
        params, encoded, config = self.make_setup(epochs=5)
        _, log = train(params, encoded, [], config, epoch_hook=lambda e, p: e == 1)
        assert len(log) == 2

    def test_empty_train_set(self):
        params, _, config = self.make_setup()
        with pytest.raises(ValueError):
            train(params, [], [], config)

    def test_a_window_other_than_the_model_s_raises(self):
        params, encoded, config = self.make_setup(epochs=1)
        with pytest.raises(ValueError, match="TrainConfig.window 5 differs from the "
                                             "model's window 3"):
            train(params, encoded, [], replace(config, window=5))

    @pytest.mark.parametrize("name, value", [
        ("epochs", 2.5), ("epochs", True), ("beam_k", 2.0), ("seed", 1.5), ("window", 3.0),
    ])
    def test_a_count_that_is_not_an_int_raises(self, name, value):
        trigger = Trigger("fscore" if name == "beam_k" else "hamming")
        with pytest.raises(ValueError, match=f"^{name} must be an integer$"):
            TrainConfig(trigger, **{name: value})

    def test_the_window_left_out_is_the_model_s(self):
        runs = []
        for window in (3, None):
            params, encoded, config = self.make_setup(epochs=2)
            best, log = train(params, encoded, encoded, replace(config, window=window))
            runs.append((log, best.named_tensors()))
        (log1, t1), (log2, t2) = runs
        assert log1 == log2
        for name in t1:
            np.testing.assert_array_equal(t1[name], t2[name])

    def test_one_copy_without_dev(self, monkeypatch):
        params, encoded, config = self.make_setup(epochs=3)
        real_copy, calls = ModelParams.copy, []

        def counting_copy(self):
            calls.append(self)
            return real_copy(self)

        monkeypatch.setattr(ModelParams, "copy", counting_copy)
        best, _ = train(params, encoded, [], config)
        assert len(calls) == 1
        assert best is not params

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_names_epoch_and_sentence(self):
        params, encoded, _ = self.make_setup()
        config = TrainConfig(Trigger("integrated"), l2_lambda=1e308, epochs=2, window=3)
        with pytest.raises(TrainingDivergedError, match=r"epoch 0, sentence \d+"):
            train(params, encoded, [], config)


def dense_decay_train(params, dataset, config):
    """Reference loop: train's shuffling and gradients, with the L2 decay
    applied densely to every tensor on every step."""
    rng = np.random.default_rng(config.seed)
    for epoch in range(config.epochs):
        lr = config.learning_rate * config.decay ** epoch
        for i in rng.permutation(len(dataset)):
            _, _, grads = instance_gradients(dataset[int(i)], params, config.trigger, config.beam_k)
            for name, theta in params.named_tensors().items():
                g = (grads or {}).get(name)
                if isinstance(g, RowGrad):
                    g = g.dense(theta.shape[0])
                theta -= lr * ((0.0 if g is None else g) + config.l2_lambda * theta)
    return params


class TestLazyL2:
    @pytest.mark.parametrize("l2", [1e-6, 5.0, 10.0, 15.0])
    def test_matches_dense_decay_over_three_epochs(self, l2):
        corpus = synthetic_corpus(12, seed=5)
        params, encoded = build_from_raw(corpus.sentences, corpus.scheme, bigrams=True, seed=5)
        config = TrainConfig(Trigger("hamming"), l2_lambda=l2, epochs=3, seed=5, window=3)
        if l2 == 5.0:
            # the scale crosses the floor after 10 of the 12 steps of epoch 0
            assert (1 - config.learning_rate * l2) ** 10 < SCALE_FLOOR
            assert (1 - config.learning_rate * l2) ** 9 > SCALE_FLOOR
        reference = dense_decay_train(params.copy(), encoded, config)
        trained, _ = train(params, encoded, [], config)
        assert trained.tables["emb_token"].scale == params.tables["emb_token"].scale == 1.0
        # At lr * lambda == 1 the dense reference computes
        # theta - lr * (g + lambda * theta) and keeps a rounding residue of
        # theta, where the scale step zeroes it exactly.
        atol = 1e-12 if config.learning_rate * l2 == 1.0 else 0.0
        for name, arr in reference.named_tensors().items():
            np.testing.assert_allclose(trained.named_tensors()[name], arr,
                                       rtol=1e-10, atol=atol, err_msg=name)

    @pytest.mark.parametrize("reader", ["named_tensors", "copy", "save_model"])
    def test_readers_see_fully_decayed_values(self, tmp_path, reader):
        params, _ = tiny_instance(13)
        expected = {name: arr * 0.95 for name, arr in params.named_tensors().items()}
        sgd_step(params, None, lr=0.1, l2_lambda=0.5)
        assert params.tables["emb_bigram"].scale == 0.95  # pending, not yet folded
        if reader == "copy":
            seen = params.copy()
        elif reader == "save_model":
            save_model(params, str(tmp_path / "m.bin"))
            seen = load_model(str(tmp_path / "m.bin"))
        else:
            seen = params
        tensors = seen.named_tensors()
        for name, arr in expected.items():
            np.testing.assert_allclose(tensors[name], arr, rtol=1e-15, err_msg=name)
        assert all(t.scale == 1.0 for t in seen.tables.values())
        assert all(t.scale == 1.0 for t in params.tables.values())

    def test_train_leaves_tables_folded(self):
        corpus = synthetic_corpus(4, seed=6)
        params, encoded = build_from_raw(corpus.sentences, corpus.scheme, bigrams=True, seed=6)
        config = TrainConfig(Trigger("integrated"), l2_lambda=0.3, epochs=2, seed=6, window=3)
        seen = []
        best, _ = train(params, encoded, [], config,
                        epoch_hook=lambda e, p: seen.append([t.scale for t in p.tables.values()]))
        assert seen == [[1.0, 1.0], [1.0, 1.0]]
        assert [t.scale for t in best.tables.values()] == [1.0, 1.0]

    def test_only_touched_rows_are_written(self):
        params, sent = tiny_instance(14)
        _, _, grads = instance_gradients(sent, params, Trigger("hamming"), 8)
        assert grads is not None and isinstance(grads["emb_bigram"], RowGrad)
        before = params.tables["emb_bigram"].vectors.copy()
        sgd_step(params, grads, lr=0.1, l2_lambda=0.0)
        changed = np.flatnonzero((params.tables["emb_bigram"].vectors != before).any(axis=1))
        assert set(changed) <= set(grads["emb_bigram"].rows.tolist())


def traced_peak(fn) -> int:
    """tracemalloc's peak, in bytes, while fn() runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def big_model(tmp_path_factory):
    """(file, tensor bytes) of a model whose tables dwarf its metadata."""
    meta = ModelMeta(
        scheme=TagScheme.from_entity_types((("PER", "NAM"),)), mode="positional",
        bigrams=True, window=3, d_token=20, d_feature=20, hidden_dim=10,
        token_itos=("<unk>", "<pad>") + tuple(f"t{i}" for i in range(1998)),
        bigram_itos=("<unk>", "<pad>") + tuple(f"b{i}" for i in range(19998)),
    )
    path = tmp_path_factory.mktemp("big") / "m.bin"
    save_model(init_params(meta, np.random.default_rng(0)), str(path))
    return path, sum(8 * math.prod(shape) for shape in meta.tensor_shapes().values())


class TestSerialization:
    def test_roundtrip_bit_exact(self, tmp_path):
        for mode, bigrams in (("positional", True), ("segfeat", True), ("positional", False)):
            params, _ = tiny_instance(8, mode=mode, bigrams=bigrams)
            path = str(tmp_path / f"model-{mode}-{bigrams}.bin")
            save_model(params, path)
            loaded = load_model(path)
            assert loaded.meta == params.meta
            for (n1, a1), (n2, a2) in zip(
                params.named_tensors().items(), loaded.named_tensors().items()
            ):
                assert n1 == n2
                np.testing.assert_array_equal(a1, a2)

    @pytest.mark.parametrize("mode, bigrams, digest", [
        ("positional", True, "898a39637180c221188258fe318da3a4ae3a262e1c8e8f71dbff57d7a9998cbb"),
        ("segfeat", True, "49b5304c70b2fbc246c1dc85ab9d7d87bc4ac9ee2de4ca62668f78c6f444fb6a"),
        ("positional", False, "88460a63af5b37ab37277e12e24b2c4d45ecb73406ffe63cca0f1d0e2367b225"),
    ])
    def test_file_bytes_are_pinned(self, tmp_path, mode, bigrams, digest):
        # the layout (tensor order, metadata keys, init draws) must not drift
        params, _ = tiny_instance(8, mode=mode, bigrams=bigrams)
        path = tmp_path / "m.bin"
        save_model(params, str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_tensor_is_not_saved(self, tmp_path, bad):
        params, _ = tiny_instance(9)
        path = tmp_path / "m.bin"
        path.write_bytes(b"old")
        params.proj.b_y[-1] = bad  # written after every table and weight matrix
        with pytest.raises(ValueError, match="tensor proj_b holds a NaN or infinite value"):
            save_model(params, str(path))
        assert [p.name for p in tmp_path.iterdir()] == ["m.bin"]
        assert path.read_bytes() == b"old"

    def test_save_is_deterministic(self, tmp_path):
        params, _ = tiny_instance(9)
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_model(params, str(p1))
        save_model(params, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        params, _ = tiny_instance(10)
        path = tmp_path / "m.bin"
        save_model(params, str(path))
        blob = bytearray(path.read_bytes())
        blob[0] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ModelVersionError):
            load_model(str(path))

    def test_version_bump(self, tmp_path):
        params, _ = tiny_instance(10)
        path = tmp_path / "m.bin"
        save_model(params, str(path))
        blob = bytearray(path.read_bytes())
        blob[8:12] = struct.pack("<I", 2)
        path.write_bytes(bytes(blob))
        with pytest.raises(ModelVersionError, match="version 2"):
            load_model(str(path))

    def test_truncated(self, tmp_path):
        params, _ = tiny_instance(10)
        path = tmp_path / "m.bin"
        save_model(params, str(path))
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 9])
        with pytest.raises(ModelTruncatedError):
            load_model(str(path))

    def test_shape_inconsistency(self, tmp_path):
        params, _ = tiny_instance(10)
        path = tmp_path / "m.bin"
        save_model(params, str(path))
        blob = path.read_bytes()
        assert blob.count(b'"window":3') == 1
        path.write_bytes(blob.replace(b'"window":3', b'"window":5'))
        with pytest.raises(ModelShapeError):
            load_model(str(path))

    def test_a_tensor_listed_twice_is_rejected(self, tmp_path):
        params, _ = tiny_instance(3)
        path = tmp_path / "m.bin"
        save_model(params, str(path))
        append_tensor(path, "proj_b", np.full_like(params.proj.b_y, 7.0))
        with pytest.raises(ModelShapeError, match="^tensor proj_b is listed twice$"):
            load_model(str(path))

    def test_undecodable_tensor_name(self, tmp_path):
        params, _ = tiny_instance(10)
        path = tmp_path / "m.bin"
        save_model(params, str(path))
        blob = bytearray(path.read_bytes())
        blob[blob.index(b"emb_token")] = 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ModelShapeError, match="inventory"):
            load_model(str(path))

    def test_rank_beyond_numpy_limit(self, tmp_path):
        params, _ = tiny_instance(10)
        path = tmp_path / "m.bin"
        save_model(params, str(path))
        blob = path.read_bytes()
        (meta_len,) = struct.unpack("<I", blob[12:16])
        tensor = (struct.pack("<H", 9) + b"emb_token" + struct.pack("<B", 65)
                  + struct.pack("<65Q", *[1] * 65) + bytes(8))
        path.write_bytes(blob[:16 + meta_len] + struct.pack("<I", 1) + tensor)
        with pytest.raises(ModelShapeError, match="emb_token"):
            load_model(str(path))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_tensor_is_rejected(self, tmp_path, value):
        path = tmp_path / "m.bin"
        save_non_finite(tiny_instance(10)[0], path, "emb_bigram", (3, 1), value)
        with pytest.raises(ModelIOError, match="tensor emb_bigram holds a NaN or infinite"):
            load_model(str(path))

    def test_load_holds_one_copy_of_the_tensors(self, tmp_path):
        # the file is read once; tensors are copied out of views into it
        meta = ModelMeta(
            scheme=TagScheme.from_entity_types((("PER", "NAM"),)), mode="positional",
            bigrams=True, window=3, d_token=20, d_feature=20, hidden_dim=10,
            token_itos=("<unk>", "<pad>") + tuple(f"t{i}" for i in range(1998)),
            bigram_itos=("<unk>", "<pad>") + tuple(f"b{i}" for i in range(19998)),
        )
        path = tmp_path / "m.bin"
        save_model(init_params(meta, np.random.default_rng(0)), str(path))
        tensor_bytes = sum(8 * math.prod(shape) for shape in meta.tensor_shapes().values())
        tracemalloc.start()
        try:
            load_model(str(path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= path.stat().st_size + tensor_bytes + 2 * 2**20

    def test_no_partial_file_on_save(self, tmp_path):
        params, _ = tiny_instance(10)
        path = str(tmp_path / "m.bin")
        save_model(params, path)
        assert list(tmp_path.iterdir()) == [tmp_path / "m.bin"]

    def test_save_leaves_a_file_at_the_old_tmp_name_untouched(self, tmp_path):
        params, _ = tiny_instance(10)
        bystander = tmp_path / "m.bin.tmp"
        bystander.write_bytes(b"a training corpus")
        save_model(params, str(tmp_path / "m.bin"))
        assert bystander.read_bytes() == b"a training corpus"
        assert sorted(tmp_path.iterdir()) == [tmp_path / "m.bin", bystander]
        load_model(str(tmp_path / "m.bin"))

    def test_a_tmp_name_clash_fails_the_save_and_touches_nothing(self, tmp_path, monkeypatch):
        params, _ = tiny_instance(10)
        monkeypatch.setattr(training.secrets, "token_hex", lambda n: "0" * 2 * n)
        bystander = tmp_path / f"m.bin.{'0' * 16}.tmp"
        bystander.write_bytes(b"a training corpus")
        with pytest.raises(FileExistsError):
            save_model(params, str(tmp_path / "m.bin"))
        assert bystander.read_bytes() == b"a training corpus"
        assert list(tmp_path.iterdir()) == [bystander]

    def test_failed_save_removes_tmp_and_keeps_the_old_file(self, tmp_path, monkeypatch):
        params, _ = tiny_instance(10)
        path = tmp_path / "m.bin"
        save_model(params, str(path))
        before = path.read_bytes()

        class FailingFile:
            """Writes the file header and the first tensor, then fails."""
            def __init__(self, fh):
                self.fh, self.writes = fh, 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                if self.writes == 3:  # header, then the first tensor's header and values
                    raise OSError("no space left on device")
                self.writes += 1
                return self.fh.write(data)

        monkeypatch.setattr(training, "open", lambda p, mode: FailingFile(open(p, mode)),
                            raising=False)
        with pytest.raises(OSError, match="no space"):
            save_model(init_params(params.meta, np.random.default_rng(1)), str(path))
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_bytes() == before

    def test_load_peak_is_one_model(self, big_model):
        path, tensor_bytes = big_model
        # the loaded metadata keeps its vocabularies, which belong to the model
        meta = load_model(str(path)).meta
        vocab_bytes = traced_peak(lambda: [Vocab.from_itos(meta.token_itos),
                                           Vocab.from_itos(meta.bigram_itos)])
        assert traced_peak(lambda: load_model(str(path))) <= tensor_bytes + vocab_bytes + 2 * 2**20

    def test_save_peak_stays_below_one_model(self, big_model, tmp_path):
        params, tensor_bytes = load_model(str(big_model[0])), big_model[1]
        out = tmp_path / "again.bin"
        assert traced_peak(lambda: save_model(params, str(out))) <= tensor_bytes
        assert out.read_bytes() == big_model[0].read_bytes()

    def test_huge_declared_tensor_is_truncation_not_allocation(self, tmp_path):
        params, _ = tiny_instance(10)
        path = tmp_path / "m.bin"
        save_model(params, str(path))
        blob = path.read_bytes()
        (meta_len,) = struct.unpack("<I", blob[12:16])
        tensor = (struct.pack("<H", 9) + b"emb_token" + struct.pack("<BQ", 1, 2**40) + bytes(16))
        path.write_bytes(blob[:16 + meta_len] + struct.pack("<I", 1) + tensor)

        def load():
            with pytest.raises(ModelTruncatedError, match="needed 8796093022208 bytes"):
                load_model(str(path))
        assert traced_peak(load) < 2**20


class TestGradCheckHarness:
    def test_passes_on_healthy_model(self):
        params, sent = tiny_instance(11)
        trig = Trigger("integrated")
        assert augmented_gap(sent, params, trig) > 1e-3
        k = params.meta.scheme.n_labels ** len(sent)
        report = finite_difference_check(sent, params, trig, k)
        assert report.passed(1e-4)
        assert set(report.per_tensor) == set(params.named_tensors())

    def test_corrupt_hook_fails(self, monkeypatch):
        break_proj_b(monkeypatch)
        params, sent = tiny_instance(11)
        k = params.meta.scheme.n_labels ** len(sent)
        report = finite_difference_check(sent, params, Trigger("integrated"), k)
        assert not report.passed(1e-4)
        assert report.per_tensor["proj_b"] > 0.1


class TestPredict:
    def test_predict_labels_shape(self):
        params, sent = tiny_instance(13, n_tokens=5)
        labels = predict_labels(sent, params)
        assert len(labels) == 5
        assert all(0 <= lab < params.meta.scheme.n_labels for lab in labels)

    def test_predict_all_is_predict_labels_per_sentence(self):
        corpus = synthetic_corpus(n_sentences=6, seed=3)
        one = Sentence(corpus.sentences[0].tokens[:1], corpus.sentences[0].gold_labels[:1])
        raw = [corpus.sentences[0], one, *corpus.sentences[1:]]
        params, encoded = build_from_raw(raw, corpus.scheme)
        params.transitions += np.random.default_rng(3).normal(0.0, 0.5, params.transitions.shape)
        lengths = {len(s) for s in encoded}
        assert 1 in lengths and len(lengths) > 2
        labels = predict_all(encoded, params)
        assert labels == [predict_labels(s, params) for s in encoded]
        assert labels == [viterbi(forward_em(s, params), params.transitions).labels
                          for s in encoded]
        assert predict_all([], params) == []

    def test_unencoded_sentence_is_refused(self):
        params, _ = tiny_instance(13)
        with pytest.raises(ValueError, match="not mapped to indices"):
            predict_labels(Sentence(list("AB")), params)
