"""Command-line entry point: train, predict, eval, and gradcheck.

Configuration is a flat UTF-8 file of "key = value" lines ('#' starts a
comment, unknown keys are hard errors); command-line flags override file
values. Exit codes: 0 success, 1 internal/check failure, 2 usage or input
error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from .corpus import (
    MODE_POSITIONAL,
    MODES,
    CorpusError,
    Sentence,
    TagScheme,
    build_vocab,
    encode_corpus,
    load_segmentation,
    parse_conll,
    vocab_sources,
)
from .embeddings import EmbeddingFormatError, load_pretrained
from .evaluation import evaluate, gold_entity_surfaces, render_report
from .model import D_FEATURE, D_TOKEN, HIDDEN_DIM, ModelMeta, init_params
from .synthetic import tiny_instance
from .training import (
    DEFAULT_BEAM_K,
    DEFAULT_DECAY,
    DEFAULT_EPOCHS,
    DEFAULT_L2,
    DEFAULT_LR,
    DEFAULT_SEED,
    ModelIOError,
    TrainConfig,
    augmented_gap,
    finite_difference_check,
    load_model,
    predict_labels,
    save_model,
    train,
)
from .triggers import DEFAULT_BETA, DEFAULT_KAPPA, TRIGGER_KINDS, Trigger

GRADCHECK_TOL = 1e-4


class CliError(Exception):
    """Usage or input problem; maps to exit code 2."""


PATH_KEYS = ("train", "dev", "test", "embeddings", "segmented-text", "model-out", "metrics-out")
VALUE_KEYS = (
    "trigger", "kappa", "beta", "beam-k", "lr", "decay", "l2",
    "epochs", "seed", "window", "mode", "bigrams", "beta-sweep",
)
CONFIG_KEYS = frozenset(PATH_KEYS + VALUE_KEYS)


def parse_config(text: str) -> dict[str, str]:
    """Flat "key = value" lines; '#' comments; unknown keys are errors."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise CliError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, value = key.strip(), value.strip()
        if key not in CONFIG_KEYS:
            raise CliError(f"config line {lineno}: unknown key {key!r}")
        out[key] = value
    return out


def _setting(args, config: dict[str, str], key: str, default, convert):
    """Flag value if given, else config-file value, else the default."""
    flag = getattr(args, key.replace("-", "_"), None)
    if flag is not None:
        return flag
    if key in config:
        try:
            return convert(config[key])
        except ValueError as exc:
            raise CliError(f"config key {key!r}: {exc}") from None
    return default


def _parse_bigrams(value: str) -> bool:
    if value not in ("on", "off"):
        raise ValueError(f"expected 'on' or 'off', got {value!r}")
    return value == "on"


def _read(path: str, what: str) -> str:
    if not path:
        raise CliError(f"no {what} path given")
    if not os.path.exists(path):
        raise CliError(f"{what} file not found: {path}")
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _load_corpus(path: str, scheme: TagScheme, what: str) -> list[Sentence]:
    sentences, repairs = parse_conll(_read(path, what), scheme)
    if repairs:
        print(f"note: repaired {repairs} invalid BIO label(s) in {path}", file=sys.stderr)
    return sentences


def _seg_map(args, config):
    path = _setting(args, config, "segmented-text", None, str)
    if path is None:
        return None
    return load_segmentation(_read(path, "segmented text"))


def _train_config(args, config) -> TrainConfig:
    kind = _setting(args, config, "trigger", "integrated", str)
    if kind not in TRIGGER_KINDS:
        raise CliError(f"unknown trigger {kind!r}; pick one of {', '.join(TRIGGER_KINDS)}")
    try:
        return TrainConfig(
            trigger=Trigger(
                kind,
                kappa=_setting(args, config, "kappa", DEFAULT_KAPPA, float),
                beta=_setting(args, config, "beta", DEFAULT_BETA, float),
            ),
            learning_rate=_setting(args, config, "lr", DEFAULT_LR, float),
            decay=_setting(args, config, "decay", DEFAULT_DECAY, float),
            l2_lambda=_setting(args, config, "l2", DEFAULT_L2, float),
            epochs=_setting(args, config, "epochs", DEFAULT_EPOCHS, int),
            beam_k=_setting(args, config, "beam-k", DEFAULT_BEAM_K, int),
            seed=_setting(args, config, "seed", DEFAULT_SEED, int),
            window=_setting(args, config, "window", 5, int),
        )
    except ValueError as exc:
        raise CliError(str(exc)) from None


def cmd_train(args) -> int:
    config = parse_config(_read(args.config, "config")) if args.config else {}
    tc = _train_config(args, config)
    mode = _setting(args, config, "mode", MODE_POSITIONAL, str)
    if mode not in MODES:
        raise CliError(f"unknown mode {mode!r}; pick one of {', '.join(MODES)}")
    try:
        bigrams = _parse_bigrams(_setting(args, config, "bigrams", "on", str))
    except ValueError as exc:
        raise CliError(f"config key 'bigrams': {exc}") from None

    train_path = _setting(args, config, "train", None, str)
    if train_path is None:
        raise CliError("no training file configured (key 'train')")
    model_out = _setting(args, config, "model-out", None, str)
    if model_out is None:
        raise CliError("no model output path configured (key 'model-out')")
    metrics_out = _setting(args, config, "metrics-out", model_out + ".log", str)

    scheme = TagScheme.from_entity_types()
    train_raw = _load_corpus(train_path, scheme, "training")
    if not train_raw or any(s.gold_labels is None for s in train_raw):
        raise CliError(f"training file {train_path} must contain labeled sentences")
    dev_path = _setting(args, config, "dev", None, str)
    dev_raw = _load_corpus(dev_path, scheme, "dev") if dev_path else []
    if any(s.gold_labels is None for s in dev_raw):
        raise CliError(f"dev file {dev_path} must contain labeled sentences")
    seg_map = _seg_map(args, config)

    token_strings, bigram_strings = vocab_sources(train_raw, seg_map, mode, bigrams)
    token_vocab = build_vocab(token_strings)
    bigram_vocab = build_vocab(bigram_strings) if bigrams else None
    meta = ModelMeta(
        scheme=scheme, mode=mode, bigrams=bigrams, window=tc.window,
        d_token=D_TOKEN, d_feature=D_FEATURE, hidden_dim=HIDDEN_DIM,
        token_itos=tuple(token_vocab.itos),
        bigram_itos=tuple(bigram_vocab.itos) if bigram_vocab else (),
    )
    rng = np.random.default_rng(tc.seed)
    token_table = None
    emb_path = _setting(args, config, "embeddings", None, str)
    if emb_path:
        token_table = load_pretrained(_read(emb_path, "embeddings"), token_vocab, D_TOKEN, rng)
    params = init_params(meta, rng, token_table)

    vocabs = meta.feature_vocabs()
    train_set = encode_corpus(train_raw, seg_map, mode, bigrams, token_vocab, vocabs)
    dev_set = encode_corpus(dev_raw, seg_map, mode, bigrams, token_vocab, vocabs)

    sweep = _setting(args, config, "beta-sweep", None, str)
    if sweep is not None:
        return _beta_sweep(sweep, params, train_set, dev_set, tc)

    best, log = train(params, train_set, dev_set, tc)
    save_model(best, model_out)
    with open(metrics_out, "w", encoding="utf-8") as fh:
        fh.write("\n".join(log) + "\n")
    for line in log:
        print(line)
    if dev_set:
        preds = [predict_labels(s, best) for s in dev_set]
        print(render_report(evaluate(dev_set, preds, scheme)))
    test_path = _setting(args, config, "test", None, str)
    if test_path:
        test_raw = _load_corpus(test_path, scheme, "test")
        if any(s.gold_labels is None for s in test_raw):
            raise CliError(f"test file {test_path} must contain labeled sentences")
        test_set = encode_corpus(test_raw, seg_map, mode, bigrams, token_vocab, vocabs)
        preds = [predict_labels(s, best) for s in test_set]
        surfaces = gold_entity_surfaces(train_raw, scheme)
        print("test set:")
        print(render_report(evaluate(test_raw, preds, scheme, surfaces)))
    print(f"model written to {model_out}")
    return 0


def _beta_sweep(sweep: str, params, train_set, dev_set, tc: TrainConfig) -> int:
    try:
        betas = [float(x) for x in sweep.split(",") if x.strip()]
    except ValueError:
        raise CliError(f"bad --beta-sweep list {sweep!r}") from None
    if not betas:
        raise CliError("empty --beta-sweep list")
    eval_set = dev_set if dev_set else train_set
    print("beta\toverall_f1")
    for beta in betas:
        cfg = replace(tc, trigger=Trigger("integrated", kappa=tc.trigger.kappa, beta=beta))
        best, _ = train(params.copy(), train_set, dev_set, cfg)
        preds = [predict_labels(s, best) for s in eval_set]
        report = evaluate(eval_set, preds, params.meta.scheme)
        print(f"{beta:g}\t{report.overall_f1:.4f}")
    return 0


def _encode_for_model(sentences, params, seg_path):
    meta = params.meta
    seg_map = load_segmentation(_read(seg_path, "segmented text")) if seg_path else None
    return encode_corpus(
        sentences, seg_map, meta.mode, meta.bigrams, meta.token_vocab, meta.feature_vocabs()
    )


def cmd_predict(args) -> int:
    params = load_model(args.model)
    raw, _ = parse_conll(_read(args.input, "input"), params.meta.scheme)
    encoded = _encode_for_model(raw, params, args.segmented_text)
    scheme = params.meta.scheme
    blocks = []
    for sent, enc in zip(raw, encoded):
        labels = predict_labels(enc, params)
        blocks.append(
            "\n".join(f"{tok}\t{scheme.name(lab)}" for tok, lab in zip(sent.tokens, labels))
        )
    if blocks:
        sys.stdout.write("\n\n".join(blocks) + "\n")
    return 0


def cmd_eval(args) -> int:
    params = load_model(args.model)
    scheme = params.meta.scheme
    gold = _load_corpus(args.gold, scheme, "gold")
    if any(s.gold_labels is None for s in gold):
        raise CliError(f"gold file {args.gold} must contain labels")
    encoded = _encode_for_model(gold, params, args.segmented_text)
    preds = [predict_labels(s, params) for s in encoded]
    train_surfaces = None
    if args.train_gold:
        train_surfaces = gold_entity_surfaces(
            _load_corpus(args.train_gold, scheme, "training gold"), scheme
        )
    print(render_report(evaluate(gold, preds, scheme, train_surfaces), tsv=args.tsv))
    return 0


def cmd_gradcheck(args) -> int:
    seed = args.seed if args.seed is not None else DEFAULT_SEED
    kind = args.trigger or "integrated"
    if kind not in TRIGGER_KINDS:
        raise CliError(f"unknown trigger {kind!r}")
    trigger = Trigger(
        kind,
        kappa=args.kappa if args.kappa is not None else DEFAULT_KAPPA,
        beta=args.beta if args.beta is not None else DEFAULT_BETA,
    )
    mode = args.mode or MODE_POSITIONAL
    bigrams = _parse_bigrams(args.bigrams) if args.bigrams else True

    params = sentence = None
    for attempt in range(50):
        params, sentence = tiny_instance(seed + 1000 * attempt, mode=mode, bigrams=bigrams)
        if augmented_gap(sentence, params, trigger) >= 1e-3:
            break
    beam_k = params.meta.scheme.n_labels ** len(sentence)
    report = finite_difference_check(sentence, params, trigger, beam_k, corrupt=args.corrupt)
    for name, err in report.per_tensor.items():
        status = "ok" if err <= GRADCHECK_TOL else "FAIL"
        print(f"{name:<12} max rel err {err:.3e}  {status}")
    name, err = report.worst
    if not report.passed(GRADCHECK_TOL):
        print(f"gradient check FAILED: worst tensor {name} at {err:.3e} > {GRADCHECK_TOL:g}")
        return 1
    print(f"gradient check passed (worst: {name} at {err:.3e})")
    return 0


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key = value configuration file")
    p.add_argument("--seed", type=int)
    p.add_argument("--trigger", choices=TRIGGER_KINDS)
    p.add_argument("--kappa", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--beam-k", dest="beam_k", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--decay", type=float)
    p.add_argument("--l2", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--window", type=int)
    p.add_argument("--mode", choices=MODES)
    p.add_argument("--bigrams", choices=("on", "off"))
    p.add_argument("--beta-sweep", dest="beta_sweep",
                   help="comma-separated beta values; train each, print F1 table")
    p.add_argument("--segmented-text", dest="segmented_text",
                   help="pre-segmented sentences (words space-separated, one per line)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mmner",
        description="Max-margin BiLSTM named-entity tagger for Chinese social media text",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model from a config file")
    _add_train_flags(p_train)

    p_pred = sub.add_parser("predict", help="label a corpus with a trained model")
    p_pred.add_argument("model")
    p_pred.add_argument("input")
    p_pred.add_argument("--segmented-text", dest="segmented_text")

    p_eval = sub.add_parser("eval", help="score predictions against gold labels")
    p_eval.add_argument("model")
    p_eval.add_argument("gold")
    p_eval.add_argument("--train-gold", dest="train_gold",
                        help="training gold file for OOV recall")
    p_eval.add_argument("--segmented-text", dest="segmented_text")
    p_eval.add_argument("--tsv", action="store_true", help="machine-readable output")

    p_gc = sub.add_parser("gradcheck", help="finite-difference check on a tiny model")
    p_gc.add_argument("--seed", type=int)
    p_gc.add_argument("--trigger", choices=TRIGGER_KINDS)
    p_gc.add_argument("--kappa", type=float)
    p_gc.add_argument("--beta", type=float)
    p_gc.add_argument("--mode", choices=MODES)
    p_gc.add_argument("--bigrams", choices=("on", "off"))
    p_gc.add_argument("--corrupt", help="tensor name whose analytic gradient is sabotaged")

    args = parser.parse_args(argv)
    handlers = {
        "train": cmd_train,
        "predict": cmd_predict,
        "eval": cmd_eval,
        "gradcheck": cmd_gradcheck,
    }
    try:
        return handlers[args.command](args)
    except (CliError, CorpusError, EmbeddingFormatError, ModelIOError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
