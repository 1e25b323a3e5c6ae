import hashlib
import math
import struct

import numpy as np
import pytest

from mmner.corpus import TagScheme
from mmner.embeddings import SCALE_FLOOR, RowGrad
from mmner.model import ModelParams
from mmner.network import EmissionMatrix, forward_sentence
from mmner.structured import sentence_score, viterbi
from mmner.synthetic import synthetic_corpus, tiny_instance
from mmner.training import (
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
    l2_norm_sq,
    load_model,
    loss_augmented_predict,
    objective,
    predict_labels,
    save_model,
    sgd_step,
    train,
)
from mmner.triggers import Trigger

from oracles import augmented_argmax
from support import build_from_raw

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
    return EmissionMatrix(probs, np.log(probs))


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
                probs = np.exp(shifted) / np.exp(shifted).sum(axis=1, keepdims=True)
                em = EmissionMatrix(probs, np.log(probs))
                trans = rng.normal(0, 1.0, (5, 4))
                gold = [int(rng.integers(4)) for _ in range(n)]
                trig = Trigger(kind)
                labels, aug = _augmented_best(gold, em, trans, trig, scheme, 4 ** n)
                expect, expect_aug = augmented_argmax(em, trans, gold, kind, scheme, 0.2, 0.2)
                assert labels == expect
                assert aug == pytest.approx(expect_aug, abs=1e-9)

    @pytest.mark.parametrize("kind", ["hamming", "fscore", "integrated"])
    def test_non_finite_scores_still_give_a_candidate(self, kind):
        em = EmissionMatrix(np.full((3, 2), np.nan), np.full((3, 2), np.nan))
        trans = np.zeros((3, 2))
        labels, aug = _augmented_best([0, 1, 0], em, trans, Trigger(kind), self.SCHEME2, 4)
        assert len(labels) == 3
        assert not math.isfinite(aug - sentence_score(em, trans, [0, 1, 0]))


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


class TestObjective:
    def test_formula(self):
        params, sent = tiny_instance(2, n_tokens=3)
        config = TrainConfig(Trigger("hamming"), l2_lambda=0.01, epochs=1)
        q, _ = instance_loss(sent, params, config.trigger, config.beam_k)
        expect = q + 0.005 * l2_norm_sq(params)
        assert objective([sent], params, config) == pytest.approx(expect, rel=1e-12)

    def test_lambda_zero_is_mean_q(self):
        corpus = synthetic_corpus(n_sentences=4, seed=3)
        params, encoded = build_from_raw(corpus.sentences, corpus.scheme, bigrams=False)
        config = TrainConfig(Trigger("fscore"), l2_lambda=0.0, epochs=1, beam_k=16)
        qs = [instance_loss(s, params, config.trigger, 16)[0] for s in encoded]
        assert objective(encoded, params, config) == pytest.approx(sum(qs) / len(qs))

    def test_empty_dataset(self):
        params, _ = tiny_instance(0)
        with pytest.raises(ValueError):
            objective([], params, TrainConfig(Trigger("hamming"), epochs=1))


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

    def test_objective_decreases(self):
        params, encoded, config = self.make_setup()
        before = objective(encoded, params, config)
        best, log = train(params, encoded, [], config)
        after = objective(encoded, best, config)
        assert after < before
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
        assert trained.token_table.scale == params.token_table.scale == 1.0
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
        assert params.bigram_table.scale == 0.95  # pending, not yet folded
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
        assert all(t.scale == 1.0 for t in seen.tables().values())
        assert all(t.scale == 1.0 for t in params.tables().values())

    def test_train_leaves_tables_folded(self):
        corpus = synthetic_corpus(4, seed=6)
        params, encoded = build_from_raw(corpus.sentences, corpus.scheme, bigrams=True, seed=6)
        config = TrainConfig(Trigger("integrated"), l2_lambda=0.3, epochs=2, seed=6, window=3)
        seen = []
        best, _ = train(params, encoded, [], config,
                        epoch_hook=lambda e, p: seen.append([t.scale for t in p.tables().values()]))
        assert seen == [[1.0, 1.0], [1.0, 1.0]]
        assert [t.scale for t in best.tables().values()] == [1.0, 1.0]

    def test_only_touched_rows_are_written(self):
        params, sent = tiny_instance(14)
        _, _, grads = instance_gradients(sent, params, Trigger("hamming"), 8)
        assert grads is not None and isinstance(grads["emb_bigram"], RowGrad)
        before = params.bigram_table.vectors.copy()
        sgd_step(params, grads, lr=0.1, l2_lambda=0.0)
        changed = np.flatnonzero((params.bigram_table.vectors != before).any(axis=1))
        assert set(changed) <= set(grads["emb_bigram"].rows.tolist())


class TestSerialization:
    def test_roundtrip_bit_exact(self, tmp_path):
        for mode, bigrams in (("positional", True), ("segfeat", True), ("positional", False)):
            params, _ = tiny_instance(8, mode=mode, bigrams=bigrams)
            path = str(tmp_path / f"model-{mode}-{bigrams}.bin")
            save_model(params, path)
            loaded = load_model(path)
            assert loaded.meta == params.meta
            assert loaded.token_table.trainable == params.token_table.trainable
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

    def test_save_is_deterministic(self, tmp_path):
        params, _ = tiny_instance(9)
        p1, p2 = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
        save_model(params, p1)
        save_model(params, p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_bad_magic(self, tmp_path):
        params, _ = tiny_instance(10)
        path = str(tmp_path / "m.bin")
        save_model(params, path)
        blob = bytearray(open(path, "rb").read())
        blob[0] ^= 0xFF
        open(path, "wb").write(bytes(blob))
        with pytest.raises(ModelVersionError):
            load_model(path)

    def test_version_bump(self, tmp_path):
        params, _ = tiny_instance(10)
        path = str(tmp_path / "m.bin")
        save_model(params, path)
        blob = bytearray(open(path, "rb").read())
        blob[8:12] = struct.pack("<I", 2)
        open(path, "wb").write(bytes(blob))
        with pytest.raises(ModelVersionError, match="version 2"):
            load_model(path)

    def test_truncated(self, tmp_path):
        params, _ = tiny_instance(10)
        path = str(tmp_path / "m.bin")
        save_model(params, path)
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[: len(blob) - 9])
        with pytest.raises(ModelTruncatedError):
            load_model(path)

    def test_shape_inconsistency(self, tmp_path):
        params, _ = tiny_instance(10, window=3)
        path = str(tmp_path / "m.bin")
        save_model(params, path)
        blob = open(path, "rb").read()
        assert blob.count(b'"window":3') == 1
        open(path, "wb").write(blob.replace(b'"window":3', b'"window":5'))
        with pytest.raises(ModelShapeError):
            load_model(path)

    def test_undecodable_tensor_name(self, tmp_path):
        params, _ = tiny_instance(10)
        path = str(tmp_path / "m.bin")
        save_model(params, path)
        blob = bytearray(open(path, "rb").read())
        blob[blob.index(b"emb_token")] = 0xFF
        open(path, "wb").write(bytes(blob))
        with pytest.raises(ModelShapeError, match="inventory"):
            load_model(path)

    def test_rank_beyond_numpy_limit(self, tmp_path):
        params, _ = tiny_instance(10)
        path = str(tmp_path / "m.bin")
        save_model(params, path)
        blob = open(path, "rb").read()
        (meta_len,) = struct.unpack("<I", blob[12:16])
        tensor = (struct.pack("<H", 9) + b"emb_token" + struct.pack("<B", 65)
                  + struct.pack("<65Q", *[1] * 65) + bytes(8))
        open(path, "wb").write(blob[:16 + meta_len] + struct.pack("<I", 1) + tensor)
        with pytest.raises(ModelShapeError, match="emb_token"):
            load_model(path)

    def test_no_partial_file_on_save(self, tmp_path):
        params, _ = tiny_instance(10)
        path = str(tmp_path / "m.bin")
        save_model(params, path)
        assert not (tmp_path / "m.bin.tmp").exists()


class TestGradCheckHarness:
    def test_passes_on_healthy_model(self):
        params, sent = tiny_instance(11)
        trig = Trigger("integrated")
        assert augmented_gap(sent, params, trig) > 1e-3
        k = params.meta.scheme.n_labels ** len(sent)
        report = finite_difference_check(sent, params, trig, k)
        assert report.passed(1e-4)
        assert set(report.per_tensor) == set(params.named_tensors())

    def test_corrupt_hook_fails(self):
        params, sent = tiny_instance(11)
        k = params.meta.scheme.n_labels ** len(sent)
        report = finite_difference_check(
            sent, params, Trigger("integrated"), k, corrupt="proj_b"
        )
        assert not report.passed(1e-4)
        assert report.per_tensor["proj_b"] > 0.1

    def test_frozen_token_table_is_skipped(self):
        params, sent = tiny_instance(12)
        params.token_table.trainable = False
        k = params.meta.scheme.n_labels ** len(sent)
        report = finite_difference_check(sent, params, Trigger("hamming"), k)
        assert "emb_token" not in report.per_tensor
        assert report.passed(1e-4)


class TestPredict:
    def test_predict_labels_shape(self):
        params, sent = tiny_instance(13, n_tokens=5)
        labels = predict_labels(sent, params)
        assert len(labels) == 5
        assert all(0 <= lab < params.meta.scheme.n_labels for lab in labels)
