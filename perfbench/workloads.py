"""The benchmark workloads and the metrics they report.

Load is a closed loop from one process: a single caller makes sequential
calls, as an offline training or tagging batch job would.

- ``train-integrated`` / ``train-hamming``: repeated single epochs of
  ``mmner.train`` (no dev set), each from the same partly trained
  parameters, over a length-stratified subset of the training sentences: a
  fixed number with an entity and a fixed number without.
- ``predict``: ``predict_labels`` per sentence over the held-out sentences,
  then one ``evaluate``, with a model read back by ``load_model``.

Every repetition also runs the set-up, timed apart from the work, so that
the set-up samples of a run are spread over the whole run rather than taken
in one stretch of it.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from mmner import (
    ModelMeta,
    TrainConfig,
    Trigger,
    build_vocab,
    encode_corpus,
    evaluate,
    init_params,
    load_model,
    load_segmentation,
    predict_labels,
    save_model,
    train,
    vocab_sources,
)
from perfbench import checks
from perfbench.synth import WEIBO, CorpusShape, entity_count, generate, length_stats
from perfbench.tracing import Tracer

MODE = "positional"
BIGRAMS = True

TRAIN_TRIGGERS = {"train-integrated": "integrated", "train-hamming": "hamming"}
WORKLOADS = (*TRAIN_TRIGGERS, "predict")

WINDOW = 5
ENTITY_SENTENCES = 18  # sentences with an entity per timed training epoch
PLAIN_SENTENCES = 6  # entity-free sentences per timed training epoch
PRETRAIN_SENTENCES = 8  # other sentences the timed epochs' start is trained on
MODEL_SENTENCES = 8  # sentences the predict workload's model is trained on
CHECK_SENTENCES = 8  # held-out sentences checked against the reference decoder
FD_SENTENCES = 2  # sentences to pass the directional finite-difference check
WARMUP_SENTENCES = 2
MIN_REPS = 2  # timed repetitions, however short --seconds is


@dataclass(frozen=True)
class Scale:
    """Problem size. ``PAPER`` is the paper's setting; tests use a tiny one."""

    corpus: CorpusShape = WEIBO
    dim: int = 100
    hidden: int = 100

    @classmethod
    def from_dict(cls, fields: dict) -> Scale:
        return cls(**{**fields, "corpus": CorpusShape(**fields["corpus"])})


PAPER = Scale()

# Hook points, named where the caller looks the function up.
STEP_HOOKS = [
    ("mmner.training:instance_gradients", "training.instance", True),
    ("mmner.training:sgd_step", "training.sgd", False),
]
LAYER_HOOKS = STEP_HOOKS + [
    ("mmner.training:forward_sentence", "network.forward", False),
    ("mmner.training:backward", "network.backward", False),
    ("mmner.training:viterbi", "structured.viterbi", False),
    ("mmner.training:beam_topk", "structured.beam", False),
    ("mmner.training:evaluate", "evaluation.evaluate", False),
    ("mmner.structured:viterbi", "structured.viterbi", False),
    ("mmner.network:assemble_window", "embeddings.assemble", False),
    ("mmner.network:emissions", "network.emissions", False),
    ("mmner.network:assembly_backward", "embeddings.scatter", False),
    ("mmner.triggers:Trigger.delta", "triggers.delta", False),
    ("mmner.model:ModelParams.copy", "model.copy", False),
]

# Per-layer metric -> span name. ``_ms`` is self time per sentence, ``_calls``
# calls per sentence. Units and directions are listed in BENCHMARK.json.
SELF_MS = {
    "network.forward_self_ms": "network.forward",
    "network.backward_self_ms": "network.backward",
    "network.emissions_ms": "network.emissions",
    "embeddings.assemble_ms": "embeddings.assemble",
    "embeddings.scatter_ms": "embeddings.scatter",
    "training.sgd_ms": "training.sgd",
    "training.instance_self_ms": "training.instance",
    "model.copy_ms": "model.copy",
    "structured.beam_ms": "structured.beam",
    "structured.viterbi_ms": "structured.viterbi",
    "triggers.delta_ms": "triggers.delta",
    "evaluation.evaluate_ms": "evaluation.evaluate",
}
CALLS = {
    "training.sgd_calls": "training.sgd",
    "embeddings.scatter_calls": "embeddings.scatter",
    "model.copy_calls": "model.copy",
    "structured.beam_calls": "structured.beam",
    "structured.viterbi_calls": "structured.viterbi",
    "triggers.delta_calls": "triggers.delta",
}
SETUP_PHASES = ("corpus.vocab", "corpus.encode", "model.init", "training.load_model")


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    metrics: dict[str, float] = field(default_factory=dict)
    info: dict = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def error(self, what: str, attempted: int = 1) -> None:
        """An operation raised: count it and print the traceback."""
        traceback.print_exc(file=sys.stderr)
        self.attempted += attempted
        self.failed += attempted
        self.failures.append(what)


# ---------------------------------------------------------------------------
# Observers: counts taken where the work happens.


def _lstm_flops(n: int, lstm) -> int:
    """Multiply-adds x 2 of one direction's gate GEMVs over n steps."""
    return 2 * n * 4 * lstm.hidden_dim * (lstm.input_dim + lstm.hidden_dim)


def _on_forward(tracer, args, result):
    sentence, _, fwd, bwd = args[:4]
    tracer.counts["lstm_flop"] += _lstm_flops(len(sentence), fwd) + _lstm_flops(len(sentence), bwd)


def _on_backward(tracer, args, result):
    n = args[1].shape[0]
    fwd, bwd = args[3], args[4]
    # outer-product weight gradient + transposed GEMV per step and direction
    tracer.counts["lstm_flop"] += 2 * (_lstm_flops(n, fwd) + _lstm_flops(n, bwd))


def _on_scatter(tracer, args, result):
    d_tok, d_feats = result
    tracer.counts["grad_bytes"] += d_tok.nbytes + sum(d.nbytes for d in d_feats)


def _on_beam(tracer, args, result):
    # Copy the label lists now: the caller appends gold to the returned list.
    tracer.context["beam"] = (tracer.sentence, [c.labels for c in result])


def _on_instance(tracer, args, result):
    _, lbar, grads = result
    tracer.counts["instances"] += 1
    tracer.counts["violations"] += grads is not None
    beam = tracer.context.pop("beam", None)
    if beam is not None and beam[0] == tracer.sentence:
        candidates = beam[1]
        tracer.counts["reranked"] += 1
        tracer.counts["rerank_changed"] += lbar.labels != candidates[0]
        tracer.counts["gold_injected"] += args[0].gold_labels not in candidates


OBSERVERS = {
    "network.forward": _on_forward,
    "network.backward": _on_backward,
    "embeddings.scatter": _on_scatter,
    "structured.beam": _on_beam,
    "training.instance": _on_instance,
}


# ---------------------------------------------------------------------------
# Shared pieces


def _timed(phases: dict, name: str, fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    phases[name] = phases.get(name, 0.0) + time.perf_counter() - start
    return out


def build_training_inputs(corpus, scale: Scale, seed: int, phases: dict):
    """Vocabularies, encoded training set and fresh parameters: the set-up."""

    def vocab():
        seg_map = load_segmentation(corpus.seg_lines)
        tokens, bigrams = vocab_sources(corpus.train, seg_map, MODE, BIGRAMS)
        return seg_map, build_vocab(tokens), build_vocab(bigrams)

    seg_map, token_vocab, bigram_vocab = _timed(phases, "corpus.vocab", vocab)
    meta = ModelMeta(
        scheme=corpus.scheme, mode=MODE, bigrams=BIGRAMS, window=WINDOW,
        d_token=scale.dim, d_feature=scale.dim, hidden_dim=scale.hidden,
        token_itos=tuple(token_vocab.itos), bigram_itos=tuple(bigram_vocab.itos),
    )
    train_set = _timed(
        phases, "corpus.encode", encode_corpus,
        corpus.train, seg_map, MODE, BIGRAMS, token_vocab, meta.feature_vocabs(),
    )
    params = _timed(phases, "model.init", init_params, meta, np.random.default_rng(seed))
    return train_set, params


def length_strata(sentences: list, k: int) -> list:
    """k sentences at evenly spaced length quantiles (the middle of each stratum)."""
    order = sorted(range(len(sentences)), key=lambda i: (len(sentences[i]), i))
    return [sentences[order[(2 * j + 1) * len(order) // (2 * k)]] for j in range(k)]


def timed_setup(samples: list[dict], build):
    """Run ``build(phases)`` once and append its phase times to ``samples``."""
    gc.collect()  # so that no set-up pays for collecting another's garbage
    phases: dict[str, float] = {}
    result = build(phases)
    samples.append(phases)
    return result


def setup_metrics(outcome: Outcome, samples: list[dict]) -> None:
    """The median set-up and the median of each phase."""
    outcome.metrics["setup_s"] = statistics.median(sum(p.values()) for p in samples)
    outcome.info["setup_phase_s"] = {
        phase: statistics.median(p.get(phase, 0.0) for p in samples) for phase in SETUP_PHASES
    }
    outcome.info["setups"] = len(samples)


def corpus_stats(corpus, params) -> dict:
    meta = params.meta
    n_ent = entity_count(corpus.train, corpus.scheme)
    n_chars = sum(len(s) for s in corpus.train)
    return {
        "train": length_stats(corpus.train),
        "heldout": length_stats(corpus.heldout),
        "token_rows": len(meta.token_itos),
        "bigram_rows": len(meta.bigram_itos),
        "labels": meta.scheme.n_labels,
        "input_width": meta.input_width,
        "parameters": int(sum(a.size for a in params.named_tensors().values())),
        "entities_per_sentence": n_ent / len(corpus.train),
        "entity_chars_frac": sum(
            1 for s in corpus.train for lab in s.gold_labels if lab != corpus.scheme.outside_index
        ) / n_chars,
    }


def _keep_going(started: float, seconds: float, reps: int, last: float) -> bool:
    """Start another repetition while it is expected to end within the budget;
    ``last`` is the previous repetition's time, set-up included."""
    return reps < MIN_REPS or time.perf_counter() - started + last <= seconds


def _sentence_metrics(outcome: Outcome, per_rep: list[list[float]], walls: list[float]) -> None:
    """Throughput, per-sentence percentiles and peak memory.

    ``per_rep[r][i]`` is sentence i's time in untraced repetition r, whose
    wall time is ``walls[r]``. The rate is taken over a typical repetition:
    each sentence's median time across repetitions plus the median of the
    rest (model copies, evaluate), so a slow spell in one repetition moves
    it little.
    """
    samples = np.array([t for rep in per_rep for t in rep]) * 1000.0
    if per_rep:
        typical = sum(statistics.median(col) for col in zip(*per_rep))
        typical += statistics.median(w - sum(rep) for w, rep in zip(walls, per_rep))
        outcome.metrics["sents_per_s"] = len(per_rep[0]) / typical
        outcome.metrics["sentence_ms_p50"] = float(np.percentile(samples, 50))
        outcome.metrics["sentence_ms_p90"] = float(np.percentile(samples, 90))
    else:
        outcome.metrics.update(sents_per_s=0.0, sentence_ms_p50=0.0, sentence_ms_p90=0.0)
    outcome.metrics["peak_rss_mb"] = peak_rss_mb()
    outcome.info["sentence_samples"] = len(samples)


def layer_metrics(tracer: Tracer, n_sentences: int, setup_phases: dict, overhead: float) -> dict:
    totals, calls = tracer.self_times()
    counts = tracer.counts
    n = max(n_sentences, 1)
    out = {name: 1000.0 * totals.get(span, 0.0) / n for name, span in SELF_MS.items()}
    out.update({name: calls.get(span, 0) / n for name, span in CALLS.items()})
    lstm_s = totals.get("network.forward", 0.0) + totals.get("network.backward", 0.0)
    out["network.lstm_gflop_s"] = counts["lstm_flop"] / lstm_s / 1e9 if lstm_s else 0.0
    out["embeddings.grad_mb"] = counts["grad_bytes"] / 1e6 / n
    reranked, instances = counts["reranked"], counts["instances"]
    out["structured.rerank_changed_frac"] = counts["rerank_changed"] / reranked if reranked else 0.0
    out["structured.gold_injected_frac"] = counts["gold_injected"] / reranked if reranked else 0.0
    out["training.violation_frac"] = counts["violations"] / instances if instances else 0.0
    out.update({f"{phase}_s": setup_phases[phase] for phase in SETUP_PHASES})
    out["trace.overhead_frac"] = overhead
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # kB on Linux


# ---------------------------------------------------------------------------
# Training workloads


def training_sentences(train_set: list, outside: int) -> tuple[list, list, list]:
    """(timed sentences with an entity, timed entity-free sentences,
    pre-training sentences), each taken at length quantiles."""
    has_entity = [any(lab != outside for lab in s.gold_labels) for s in train_set]
    entity = length_strata([s for s, e in zip(train_set, has_entity) if e], ENTITY_SENTENCES)
    plain = length_strata([s for s, e in zip(train_set, has_entity) if not e], PLAIN_SENTENCES)
    chosen = {id(s) for s in entity + plain}
    rest = [s for s in train_set if id(s) not in chosen]
    return entity, plain, length_strata(rest, PRETRAIN_SENTENCES)


def run_train(kind: str, seed: int, seconds: float, trace: bool, scale: Scale, out_dir: str) -> Outcome:
    outcome = Outcome()
    corpus = generate(seed, scale.corpus)
    setups: list[dict] = []

    def setup():
        return timed_setup(setups, lambda phases: build_training_inputs(corpus, scale, seed, phases))

    train_set, params = setup()
    outcome.info["corpus"] = corpus_stats(corpus, params)
    config = TrainConfig(trigger=Trigger(kind), seed=seed, epochs=1)
    # The timed epochs form a fixed mix and start from parameters trained one
    # epoch on other sentences, as in later epochs of real training. Sentences
    # with an entity still violate the margin and run the full backward pass;
    # entity-free ones mostly no longer do, since the O bias has been learned,
    # and time the step without a gradient. Fixed counts keep the share from
    # moving with the seed. From untrained parameters, between 0 and 4 of the
    # 6 entity-free sentences violated, depending on the seed; from these,
    # between 0 and 2.
    entity, plain, pretrain = training_sentences(train_set, corpus.scheme.outside_index)
    subset = entity + plain
    pretrained, _ = train(params, pretrain, [], config)
    del train_set, params
    outcome.info["subset"] = length_stats(subset)
    outcome.info["config"] = {"trigger": kind, "kappa": config.trigger.kappa,
                              "beta": config.trigger.beta, "lr": config.learning_rate,
                              "l2": config.l2_lambda, "beam_k": config.beam_k}

    train(pretrained.copy(), subset[:WARMUP_SENTENCES], [], config)

    layer_tracer, step_tracer = Tracer(OBSERVERS), Tracer(OBSERVERS)
    walls = {False: [], True: []}
    steps: list[list[float]] = []
    mean_qs, digests = [], set()
    started = last = time.perf_counter()
    reps = 0
    while _keep_going(started, seconds, reps, time.perf_counter() - last):
        last = time.perf_counter()
        traced = trace and reps % 2 == 1
        tracer = layer_tracer if traced else step_tracer
        setup()  # timed only: spreads the set-up samples over the run
        work = pretrained.copy()
        tracer.install(LAYER_HOOKS if traced else STEP_HOOKS)
        first_span = len(tracer.spans)
        try:
            start = time.perf_counter()
            best, log = train(work, subset, [], config)
            wall = time.perf_counter() - start
        except Exception:
            outcome.error(f"train raised in repetition {reps}", len(subset))
            break
        finally:
            tracer.uninstall()
        reps += 1
        walls[traced].append(wall)
        outcome.attempted += len(subset)
        if not traced:
            steps.append(_step_times(tracer.spans[first_span:]))
        mean_q = float(log[0].split("\t")[2])
        mean_qs.append(mean_q)
        outcome.check(mean_q >= 0.0, f"mean q {mean_q} < 0 in repetition {reps}")
        outcome.check(checks.all_finite(best), f"non-finite parameters after repetition {reps}")
        digests.add(checks.digest(best))
        del work, best

    outcome.check(len(digests) == 1, f"{len(digests)} distinct parameter digests over {reps} repetitions")
    fd = []
    for sentence in sorted(entity, key=len)[:4 * FD_SENTENCES]:
        try:
            status, rel = checks.directional_check(sentence, pretrained.copy, config)
        except Exception:
            outcome.error("directional check raised")
            break
        fd.append((status, rel))
        if status in ("ok", "fail"):
            outcome.check(status == "ok", f"directional finite difference off by {rel:.3g} (relative)")
        if sum(s == "ok" for s, _ in fd) == FD_SENTENCES:
            break
    outcome.check(any(s == "ok" for s, _ in fd), "no sentence passed the directional check")

    _sentence_metrics(outcome, steps, walls[False])
    setup_metrics(outcome, setups)
    outcome.info.update({
        "repetition_s": {"untraced": walls[False], "traced": walls[True]},
        "violation_frac": step_tracer.counts["violations"] / max(step_tracer.counts["instances"], 1),
        "mean_q": mean_qs[0] if mean_qs else None,
        "digest": sorted(digests),
        "directional_checks": fd,
    })
    if trace:
        overhead = _overhead(walls)
        outcome.metrics.update(layer_metrics(
            layer_tracer, layer_tracer.counts["instances"], outcome.info["setup_phase_s"], overhead
        ))
        _write_trace(layer_tracer, out_dir, f"train-{kind}", seed, outcome)
    return outcome


def _step_times(spans) -> list[float]:
    """Per-sentence step time: instance_gradients entry to sgd_step exit."""
    starts, ends = {}, {}
    for span in spans:
        if span.name == "training.instance":
            starts[span.sentence] = span.start
        elif span.name == "training.sgd":
            ends[span.sentence] = span.end
    return [ends[s] - starts[s] for s in starts if s in ends]


def _overhead(walls: dict) -> float:
    if not walls[False] or not walls[True]:
        return 0.0
    base = statistics.median(walls[False])
    return (statistics.median(walls[True]) - base) / base


def _write_trace(tracer: Tracer, out_dir: str, name: str, seed: int, outcome: Outcome) -> None:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace-{name}-seed{seed}.json")
    tracer.dump(path)
    outcome.info["trace_file"] = os.path.relpath(path)
    outcome.info["absent_hooks"] = tracer.absent


# ---------------------------------------------------------------------------
# Prediction workload


def save_predict_model(seed: int, scale: Scale, path: str) -> None:
    """Train a paper-scale model on a few sentences and save it.

    Runs in a child process so that its memory does not count towards the
    predict workload's peak RSS.
    """
    corpus = generate(seed, scale.corpus)
    train_set, params = build_training_inputs(corpus, scale, seed, {})
    config = TrainConfig(trigger=Trigger("integrated"), seed=seed, epochs=1)
    model, _ = train(params, length_strata(train_set, MODEL_SENTENCES), [], config)
    save_model(model, path)


def _save_in_child(seed: int, scale: Scale, path: str) -> None:
    """Run ``save_predict_model`` in a plain child interpreter and wait for it.

    ``subprocess.run`` waits for the child and kills it if the wait is
    interrupted, and unlike ``multiprocessing`` it leaves no helper process
    (such as the resource tracker) running behind it.
    """
    root = Path(__file__).resolve().parent.parent
    code = (
        "import json, sys\n"
        "from perfbench import workloads\n"
        "seed, scale, path = json.loads(sys.argv[1])\n"
        "workloads.save_predict_model(seed, workloads.Scale.from_dict(scale), path)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(root)])
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps([seed, asdict(scale), path])],
        env=env, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"model preparation exited with code {proc.returncode}")


def run_predict(seed: int, seconds: float, trace: bool, scale: Scale, out_dir: str) -> Outcome:
    corpus = generate(seed, scale.corpus)
    os.makedirs(out_dir, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="model-", dir=out_dir)
    try:
        path = os.path.join(tmp, "weibo.model")
        _save_in_child(seed, scale, path)
        return _predict_loop(corpus, path, seed, seconds, trace, out_dir)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _predict_loop(corpus, path: str, seed: int, seconds: float, trace: bool, out_dir: str) -> Outcome:
    outcome = Outcome()
    setups: list[dict] = []

    def build(phases):
        params = _timed(phases, "training.load_model", load_model, path)
        meta = params.meta

        def vocab():
            return load_segmentation(corpus.seg_lines), meta.token_vocab, meta.feature_vocabs()

        seg_map, token_vocab, vocabs = _timed(phases, "corpus.vocab", vocab)
        heldout = _timed(phases, "corpus.encode", encode_corpus,
                         corpus.heldout, seg_map, meta.mode, meta.bigrams, token_vocab, vocabs)
        return heldout, params

    heldout, params = timed_setup(setups, build)
    outcome.info["corpus"] = corpus_stats(corpus, params)
    scheme = params.meta.scheme

    for sentence in heldout[:WARMUP_SENTENCES]:
        predict_labels(sentence, params)

    tracer = Tracer(OBSERVERS)
    walls = {False: [], True: []}
    latencies: list[list[float]] = []
    runs: list[list[list[int]]] = []
    started = last = time.perf_counter()
    while _keep_going(started, seconds, len(runs), time.perf_counter() - last):
        last = time.perf_counter()
        traced = trace and len(runs) % 2 == 1
        params = None  # free the previous model before loading the next
        heldout, params = timed_setup(setups, build)
        if traced:
            tracer.install(LAYER_HOOKS)
        preds, pass_latencies = [], []
        try:
            start = time.perf_counter()
            for sentence in heldout:
                if traced:
                    tracer.sentence += 1
                    span = tracer.open("predict.sentence")
                t0 = time.perf_counter()
                preds.append(predict_labels(sentence, params))
                t1 = time.perf_counter()
                if traced:
                    tracer.close(span)
                else:
                    pass_latencies.append(t1 - t0)
            if traced:
                span = tracer.open("evaluation.evaluate")
            report = evaluate(heldout, preds, scheme)
            if traced:
                tracer.close(span)
            wall = time.perf_counter() - start
        except Exception:
            outcome.error(f"predict pass {len(runs)} raised", len(heldout) + 1)
            break
        finally:
            tracer.uninstall()
        runs.append(preds)
        walls[traced].append(wall)
        if not traced:
            latencies.append(pass_latencies)
        outcome.attempted += len(heldout)
        gold_entities = report.overall.tp + report.overall.fn
        outcome.check(gold_entities == entity_count(heldout, scheme),
                      f"evaluate counted {gold_entities} gold entities")

    if runs:
        outcome.check(all(r == runs[0] for r in runs), "predictions differ between passes")
        rng = np.random.default_rng(seed)
        sample = rng.choice(len(heldout), size=min(CHECK_SENTENCES, len(heldout)), replace=False)
        for i in sorted(int(i) for i in sample):
            labels = runs[0][i]
            try:
                gap = checks.reference_gap(heldout[i], params, labels)
            except Exception:
                outcome.error(f"reference check of held-out sentence {i} raised")
                continue
            outcome.check(abs(gap) <= 1e-9,
                          f"held-out sentence {i}: predicted labels score {gap:.3g} below the reference best")
        outcome.info["overall_f1"] = report.overall_f1

    _sentence_metrics(outcome, latencies, walls[False])
    setup_metrics(outcome, setups)
    outcome.info["repetition_s"] = {"untraced": walls[False], "traced": walls[True]}
    if trace:
        n_traced = sum(1 for s in tracer.spans if s.name == "predict.sentence")
        outcome.metrics.update(layer_metrics(
            tracer, n_traced, outcome.info["setup_phase_s"], _overhead(walls)
        ))
        _write_trace(tracer, out_dir, "predict", seed, outcome)
    return outcome


def run(workload: str, seed: int, seconds: float, trace: bool, scale: Scale, out_dir: str) -> Outcome:
    if workload == "predict":
        return run_predict(seed, seconds, trace, scale, out_dir)
    return run_train(TRAIN_TRIGGERS[workload], seed, seconds, trace, scale, out_dir)
