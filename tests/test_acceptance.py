"""Acceptance suite: ten numbered end-to-end checks with pinned tolerances.

Each test prints one PASS line on success (straight to the terminal, past
pytest's capture), so a full run ends with ten visible pass/fail verdicts.
"""

import time

import numpy as np
import pytest

from mmner.cli import main
from mmner.corpus import (
    MODE_POSITIONAL,
    MODE_SEGFEAT,
    TagScheme,
    entities_from_labels,
    labels_from_entities,
    load_segmentation,
    repair_bio,
)
from mmner.embeddings import load_pretrained
from mmner.evaluation import evaluate, token_accuracy
from mmner.structured import beam_topk, sentence_score, viterbi
from mmner.synthetic import synthetic_corpus, tiny_instance, to_conll
from mmner.training import (
    TrainConfig,
    _augmented_best,
    _forward,
    augmented_gap,
    finite_difference_check,
    load_model,
    loss_augmented_predict,
    predict_labels,
    save_model,
    train,
)
from mmner.triggers import Trigger, fscore_delta, hamming_delta, integrated_delta

from oracles import augmented_argmax, enumerate_all, random_instance
from support import build_from_raw

SCHEME3 = TagScheme.from_entity_types((("PER", "NAM"),))
SCHEME4 = TagScheme(
    ("O", "B-PER.NAM", "I-PER.NAM", "B-GPE.NOM"), (("PER", "NAM"), ("GPE", "NOM")), "O"
)


def announce(capsys, number, message):
    with capsys.disabled():
        print(f"\nPASS criterion {number}: {message}")


def test_criterion_01_viterbi_matches_enumeration(capsys):
    rng = np.random.default_rng(101)
    start = time.monotonic()
    for case in range(200):
        n = int(rng.integers(1, 8))
        n_labels = int(rng.integers(2, 6))
        em, trans = random_instance(rng, n, n_labels)
        got = viterbi(em, trans)
        want_score, want_labels = enumerate_all(em, trans)[0]
        assert got.labels == list(want_labels)
        assert abs(got.score - want_score) <= 1e-9
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    announce(capsys, 1, f"viterbi == enumeration on 200 instances in {elapsed:.1f}s")


def test_criterion_02_beam_matches_sorted_enumeration(capsys):
    rng = np.random.default_rng(202)
    start = time.monotonic()
    for case in range(100):
        n = int(rng.integers(1, 6))
        n_labels = int(rng.integers(2, 4))
        em, trans = random_instance(rng, n, n_labels)
        k = n_labels ** n
        got = beam_topk(em, trans, k)
        want = enumerate_all(em, trans)
        assert len(got) == len(want)
        for g, (w_score, w_labels) in zip(got, want):
            assert g.labels == list(w_labels)
            assert abs(g.score - w_score) <= 1e-9
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    announce(capsys, 2, f"beam with k=|Y|^n == full ranking on 100 instances in {elapsed:.1f}s")


def test_criterion_03_loss_augmented_matches_brute_force(capsys):
    rng = np.random.default_rng(303)
    kinds = ("hamming", "fscore", "integrated")
    checked = 0
    # end-to-end through a real model (3-label scheme)
    for seed in range(34):
        params, sent = tiny_instance(seed, n_tokens=2 + seed % 5)  # n in 2..6
        em = _forward(sent, params).em
        trans = params.transitions
        for kind in kinds:
            trigger = Trigger(kind, kappa=0.3, beta=0.25)
            got = loss_augmented_predict(sent, params, trigger, beam_k=3 ** len(sent))
            want_labels, _ = augmented_argmax(
                em, trans, sent.gold_labels, kind, params.meta.scheme, 0.3, 0.25
            )
            assert got.labels == want_labels
            assert abs(got.score - sentence_score(em, trans, want_labels)) <= 1e-9
            checked += 1
    # direct decode-level cases at the 4-label inventory
    for case in range(33):
        n = int(rng.integers(1, 7))
        em, trans = random_instance(rng, n, SCHEME4.n_labels)
        gold = repair_bio([int(g) for g in rng.integers(SCHEME4.n_labels, size=n)], SCHEME4)[0]
        for kind in kinds:
            trigger = Trigger(kind, kappa=0.2, beta=0.2)
            got_labels, got_aug = _augmented_best(gold, em, trans, trigger, SCHEME4, 4 ** n)
            want_labels, want_aug = augmented_argmax(
                em, trans, gold, kind, SCHEME4, 0.2, 0.2
            )
            assert got_labels == want_labels
            assert abs(got_aug - want_aug) <= 1e-9
            checked += 1
    assert checked >= 200
    announce(capsys, 3, f"loss-augmented argmax == brute force on {checked} instances")


def test_criterion_04_finite_difference_suite(capsys):
    start = time.monotonic()
    kinds = ("hamming", "fscore", "integrated")
    healthy = 0
    worst = 0.0
    tensors_seen = set()
    seed = 0
    while healthy < 20:
        seed += 1
        mode = MODE_SEGFEAT if healthy % 2 else MODE_POSITIONAL
        bigrams = healthy % 3 != 0
        params, sent = tiny_instance(
            seed, mode=mode, bigrams=bigrams, n_tokens=2 + healthy % 3
        )
        trigger = Trigger(kinds[healthy % 3], kappa=0.2, beta=0.2)
        if augmented_gap(sent, params, trigger) < 1e-3:
            continue  # near-tie: q is non-differentiable there, resample
        report = finite_difference_check(
            sent, params, trigger, beam_k=params.meta.scheme.n_labels ** len(sent)
        )
        assert report.passed(1e-4), report.per_tensor
        worst = max(worst, report.worst[1])
        tensors_seen.update(report.per_tensor)
        healthy += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    assert {"emb_token", "emb_seg", "emb_bigram", "lstm_fwd_w", "lstm_fwd_b",
            "lstm_bwd_w", "lstm_bwd_b", "proj_w", "proj_b", "transitions"} <= tensors_seen
    announce(
        capsys, 4,
        f"gradients of q match finite differences on {healthy} seeds "
        f"(worst rel err {worst:.2e}) in {elapsed:.1f}s",
    )


def test_criterion_05_trigger_axioms(capsys):
    rng = np.random.default_rng(505)
    kappa, beta = 0.2, 0.2
    for case in range(1000):
        n = int(rng.integers(1, 9))
        gold = [int(g) for g in rng.integers(SCHEME3.n_labels, size=n)]
        pred = [int(g) for g in rng.integers(SCHEME3.n_labels, size=n)]
        h = hamming_delta(gold, pred, kappa)
        f = fscore_delta(gold, pred, kappa, SCHEME3)
        i = integrated_delta(gold, pred, kappa, beta, SCHEME3)
        assert hamming_delta(gold, gold, kappa) == 0.0
        assert fscore_delta(gold, gold, kappa, SCHEME3) == 0.0
        assert integrated_delta(gold, gold, kappa, beta, SCHEME3) == 0.0
        assert h >= 0.0 and f >= 0.0 and i >= 0.0
        assert f <= kappa
        mismatches = sum(1 for a, b in zip(gold, pred) if a != b)
        assert h == kappa * mismatches
        assert integrated_delta(gold, pred, kappa, 0.0, SCHEME3) == f
    announce(capsys, 5, "trigger axioms hold exactly on 1000 random label pairs")


def test_criterion_06_accuracy_fscore_gap(capsys):
    # single-sentence instantiation: truncate the entity's final character
    gold = [SCHEME3.index("B-PER.NAM"), SCHEME3.index("I-PER.NAM"), 0]
    pred = [SCHEME3.index("B-PER.NAM"), 0, 0]
    acc = token_accuracy([gold], [pred])
    assert acc == pytest.approx(2 / 3)
    # corpus-level: flip every entity-final character to the outside label
    corpus = synthetic_corpus(n_sentences=30, seed=66)
    scheme = corpus.scheme
    sents = [type(s)(tokens=s.tokens, gold_labels=s.gold_labels) for s in corpus.sentences]
    preds = []
    for s in sents:
        pred_labels = list(s.gold_labels)
        for span in entities_from_labels(s.gold_labels, scheme):
            pred_labels[span.end - 1] = scheme.outside_index
        preds.append(pred_labels)
    acc_corpus = token_accuracy([s.gold_labels for s in sents], preds)
    report = evaluate(sents, preds, scheme)
    assert acc_corpus >= 2 / 3
    assert report.overall.tp == 0
    assert report.overall_f1 == 0.0
    assert report.overall.precision == 0.0 and report.overall.recall == 0.0
    announce(
        capsys, 6,
        f"token accuracy {acc_corpus:.3f} with entity F1 exactly 0 on the truncation fixture",
    )


def test_criterion_07_overfit_synthetic_corpus(capsys):
    start = time.monotonic()
    corpus = synthetic_corpus(n_sentences=50, seed=7)
    seg_map = load_segmentation("\n".join(corpus.seg_lines))
    results = {}
    for mode in (MODE_POSITIONAL, MODE_SEGFEAT):
        params0, encoded = build_from_raw(
            corpus.sentences, corpus.scheme, mode=mode, seg_map=seg_map,
            window=5, d_token=100, d_feature=100, hidden=100, seed=1,
        )
        for kind in ("hamming", "fscore", "integrated"):
            config = TrainConfig(
                trigger=Trigger(kind, kappa=0.2, beta=0.2),
                learning_rate=0.1, decay=0.95, l2_lambda=1e-6,
                epochs=20, beam_k=8, seed=1, window=5,
            )
            params = params0.copy()
            hit = {"epoch": None}

            def perfect(epoch, p, _hit=hit):
                preds = [predict_labels(s, p) for s in encoded]
                if evaluate(encoded, preds, corpus.scheme).overall_f1 == 1.0:
                    _hit["epoch"] = epoch
                    return True
                return False

            train(params, encoded, [], config, epoch_hook=perfect)
            assert hit["epoch"] is not None, f"{mode}/{kind} never reached train F1 = 1.0"
            results[(mode, kind)] = hit["epoch"]
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    worst = max(results.values())
    announce(
        capsys, 7,
        f"train F1 = 1.0 for all 3 triggers x 2 modes within {worst + 1} epochs "
        f"({elapsed:.0f}s total)",
    )


def test_criterion_08_training_determinism(capsys, tmp_path):
    corpus = synthetic_corpus(n_sentences=8, seed=88)
    train_file = tmp_path / "train.conll"
    train_file.write_text(to_conll(corpus.sentences, corpus.scheme), "utf-8")
    blobs, logs = [], []
    for run in ("a", "b"):
        model = tmp_path / f"{run}.bin"
        metrics = tmp_path / f"{run}.log"
        code = main([
            "train", "--epochs", "2", "--seed", "9", "--window", "3",
            "--bigrams", "off", "--trigger", "integrated",
        ] + ["--config", str(write_train_config(tmp_path, run, train_file, model, metrics))])
        assert code == 0
        blobs.append(model.read_bytes())
        logs.append(metrics.read_text("utf-8"))
    assert blobs[0] == blobs[1]
    assert logs[0] == logs[1]
    announce(capsys, 8, "identical seeds give byte-identical model files and metric logs")


def write_train_config(tmp_path, run, train_file, model, metrics):
    cfg = tmp_path / f"{run}.cfg"
    cfg.write_text(
        f"train = {train_file}\nmodel-out = {model}\nmetrics-out = {metrics}\n", "utf-8"
    )
    return cfg


def test_criterion_09_beta_sweep_harness(capsys, tmp_path):
    corpus = synthetic_corpus(n_sentences=10, seed=99)
    train_file = tmp_path / "train.conll"
    train_file.write_text(to_conll(corpus.sentences, corpus.scheme), "utf-8")
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        f"train = {train_file}\nmodel-out = {tmp_path / 'sweep.bin'}\n"
        "epochs = 2\nwindow = 3\nbigrams = off\ntrigger = integrated\n",
        "utf-8",
    )
    code = main(["train", "--config", str(cfg), "--beta-sweep", "0,0.1,0.2,0.5,1.0"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "beta\toverall_f1"
    rows = dict(line.split("\t") for line in lines[1:])
    assert [float(k) for k in rows] == [0.0, 0.1, 0.2, 0.5, 1.0]
    for value in rows.values():
        assert 0.0 <= float(value) <= 1.0
    assert rows["0.2"] != ""  # the default operating point is populated
    float(rows["0.2"])
    announce(capsys, 9, "beta sweep emits a populated (beta, overall F1) table end-to-end")


def test_criterion_10_round_trips(capsys, tmp_path):
    # BIO span round trip, 10^4 random cases
    rng = np.random.default_rng(1010)
    schemes = [
        TagScheme.from_entity_types(tuple(pairs))
        for pairs in (
            ((("PER", "NAM")),),
            (("PER", "NAM"), ("GPE", "NOM")),
            (("PER", "NAM"), ("PER", "NOM"), ("GPE", "NAM"), ("GPE", "NOM")),
        )
    ]
    for case in range(10_000):
        scheme = schemes[case % len(schemes)]
        n = int(rng.integers(0, 13))
        labels = repair_bio([int(g) for g in rng.integers(scheme.n_labels, size=n)], scheme)[0]
        spans = entities_from_labels(labels, scheme)
        assert labels_from_entities(spans, n, scheme) == labels
    # model save/load bit-exactness
    params, _ = tiny_instance(4, mode=MODE_SEGFEAT, bigrams=True)
    path = tmp_path / "model.bin"
    save_model(params, str(path))
    loaded = load_model(str(path))
    assert loaded.meta == params.meta
    saved, read = params.named_tensors(), loaded.named_tensors()
    assert list(saved) == list(read)
    for name in saved:
        assert saved[name].tobytes() == read[name].tobytes()
    save_model(loaded, str(tmp_path / "again.bin"))
    assert (tmp_path / "again.bin").read_bytes() == path.read_bytes()
    # embedding-file load exactness on the documented fixture
    from mmner.corpus import build_vocab

    vocab = build_vocab(["a", "b"])
    table = load_pretrained("2 3\na 1 0 0\nb 0 1 0\n", vocab, 3, np.random.default_rng(0))
    assert table.vectors[vocab.stoi["a"]].tolist() == [1.0, 0.0, 0.0]
    assert table.vectors[vocab.stoi["b"]].tolist() == [0.0, 1.0, 0.0]
    assert table.vectors[0].tolist() == [0.5, 0.5, 0.0]  # unknown = mean vector
    assert table.vectors[1].tolist() == [0.0, 0.0, 0.0]  # padding stays zero
    announce(capsys, 10, "BIO x10^4, model bytes, and embedding fixture all round-trip")
