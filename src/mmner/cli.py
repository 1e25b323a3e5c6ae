"""Command-line entry point: train, predict, eval, and gradcheck.

Configuration is a flat UTF-8 file of "key = value" lines ('#' starts a
comment, unknown keys are hard errors); command-line flags override file
values. Exit codes: 0 success, 1 internal/check failure (a diverging run
too), 2 usage or input error (a bad setting value too).
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Any, Callable

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
from .model import D_FEATURE, D_TOKEN, HIDDEN_DIM, WINDOW, ModelMeta, init_params
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
from .triggers import DEFAULT_BETA, DEFAULT_KAPPA, INTEGRATED, TRIGGER_KINDS, Trigger

GRADCHECK_TOL = 1e-4


class CliError(Exception):
    """Usage or input problem; maps to exit code 2."""


def _on_off(value: str) -> bool:
    if value not in ("on", "off"):
        raise ValueError(f"expected 'on' or 'off', got {value!r}")
    return value == "on"


def _floats(value: str) -> list[float]:
    values = [float(x) for x in value.split(",") if x.strip()]
    if not values:
        raise ValueError("empty list")
    return values


@dataclass(frozen=True)
class Setting:
    """One config key: its text converter (no range checks: Trigger,
    TrainConfig and ModelMeta check their own fields), default and flag."""

    convert: Callable[[str], Any] = str
    default: Any = None
    flag: bool = True  # also settable as --<key> on `mmner train`
    choices: tuple[str, ...] | None = None
    help: str | None = None


PATH = Setting(flag=False)
SETTINGS = {
    "train": PATH, "dev": PATH, "test": PATH, "embeddings": PATH,
    "model-out": PATH, "metrics-out": PATH,
    "seed": Setting(int, DEFAULT_SEED),
    "trigger": Setting(str, INTEGRATED, choices=TRIGGER_KINDS),
    "kappa": Setting(float, DEFAULT_KAPPA),
    "beta": Setting(float, DEFAULT_BETA),
    "beam-k": Setting(int, DEFAULT_BEAM_K),
    "lr": Setting(float, DEFAULT_LR),
    "decay": Setting(float, DEFAULT_DECAY),
    "l2": Setting(float, DEFAULT_L2),
    "epochs": Setting(int, DEFAULT_EPOCHS),
    "window": Setting(int, WINDOW),
    "mode": Setting(str, MODE_POSITIONAL, choices=MODES),
    "bigrams": Setting(_on_off, True, choices=("on", "off")),
    "beta-sweep": Setting(_floats, help="comma-separated beta values; train each, print F1 table"),
    "segmented-text": Setting(help="pre-segmented sentences (words space-separated, one per line)"),
}
CONFIG_KEYS = frozenset(SETTINGS)
GRADCHECK_KEYS = ("seed", "trigger", "kappa", "beta", "mode", "bigrams")


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


def _settings(args, config: dict[str, str]) -> dict[str, Any]:
    """Every key's value: the flag if given, else the config file's, else the default."""
    values = {}
    for key, setting in SETTINGS.items():
        text = getattr(args, key.replace("-", "_"), None)
        if text is None:
            text = config.get(key)
        try:
            values[key] = setting.default if text is None else setting.convert(text)
        except ValueError as exc:
            raise CliError(f"setting {key!r}: {exc}") from None
    return values


@contextmanager
def _usage_errors():
    """Bad setting values surface as the ValueErrors of the types they
    build; inside this block those become usage errors (exit 2)."""
    try:
        yield
    except ValueError as exc:
        raise CliError(str(exc)) from None


def _train_config(v: dict[str, Any]) -> TrainConfig:
    return TrainConfig(
        trigger=Trigger(v["trigger"], kappa=v["kappa"], beta=v["beta"]),
        learning_rate=v["lr"], decay=v["decay"], l2_lambda=v["l2"], epochs=v["epochs"],
        beam_k=v["beam-k"], seed=v["seed"], window=v["window"],
    )


def _read(path: str, what: str) -> str:
    if not path:
        raise CliError(f"no {what} path given")
    if not os.path.exists(path):
        raise CliError(f"{what} file not found: {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise CliError(f"{what} file {path} is not UTF-8: {exc}") from None


def _load_corpus(path: str, scheme: TagScheme, what: str) -> list[Sentence]:
    sentences, repairs = parse_conll(_read(path, what), scheme)
    if repairs:
        print(f"note: repaired {repairs} invalid BIO label(s) in {path}", file=sys.stderr)
    return sentences


def _load_labeled(path: str, scheme: TagScheme, what: str) -> list[Sentence]:
    sentences = _load_corpus(path, scheme, what)
    if any(s.gold_labels is None for s in sentences):
        raise CliError(f"{what} file {path} must contain labeled sentences")
    return sentences


def _seg_map(path: str | None):
    return load_segmentation(_read(path, "segmented text")) if path else None


def cmd_train(args) -> int:
    config = parse_config(_read(args.config, "config")) if args.config else {}
    v = _settings(args, config)
    mode, bigrams, model_out = v["mode"], v["bigrams"], v["model-out"]
    scheme = TagScheme.from_entity_types()
    with _usage_errors():
        tc = _train_config(v)
        sweep = [replace(tc, trigger=replace(tc.trigger, kind=INTEGRATED, beta=beta))
                 for beta in v["beta-sweep"] or ()]
        for key in ("train", "model-out"):
            if v[key] is None:
                raise CliError(f"no {key} path configured (key {key!r})")
        train_raw = _load_labeled(v["train"], scheme, "training")
        if not train_raw:
            raise CliError(f"training file {v['train']} must contain labeled sentences")
        dev_raw = _load_labeled(v["dev"], scheme, "dev") if v["dev"] else []
        seg_map = _seg_map(v["segmented-text"])
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
    if v["embeddings"]:
        text = _read(v["embeddings"], "embeddings")
        token_table = load_pretrained(text, token_vocab, D_TOKEN, rng)
    params = init_params(meta, rng, token_table)

    vocabs = meta.feature_vocabs()
    train_set = encode_corpus(train_raw, seg_map, mode, bigrams, token_vocab, vocabs)
    dev_set = encode_corpus(dev_raw, seg_map, mode, bigrams, token_vocab, vocabs)
    if sweep:
        return _beta_sweep(sweep, params, train_set, dev_set)

    best, log = train(params, train_set, dev_set, tc)
    save_model(best, model_out)
    metrics_out = model_out + ".log" if v["metrics-out"] is None else v["metrics-out"]
    with open(metrics_out, "w", encoding="utf-8") as fh:
        fh.write("\n".join(log) + "\n")
    for line in log:
        print(line)
    if dev_set:
        preds = [predict_labels(s, best) for s in dev_set]
        print(render_report(evaluate(dev_set, preds, scheme)))
    if v["test"]:
        test_raw = _load_labeled(v["test"], scheme, "test")
        test_set = encode_corpus(test_raw, seg_map, mode, bigrams, token_vocab, vocabs)
        preds = [predict_labels(s, best) for s in test_set]
        surfaces = gold_entity_surfaces(train_raw, scheme)
        print("test set:")
        print(render_report(evaluate(test_raw, preds, scheme, surfaces)))
    print(f"model written to {model_out}")
    return 0


def _beta_sweep(configs: list[TrainConfig], params, train_set, dev_set) -> int:
    eval_set = dev_set if dev_set else train_set
    print("beta\toverall_f1")
    for cfg in configs:
        best, _ = train(params.copy(), train_set, dev_set, cfg)
        preds = [predict_labels(s, best) for s in eval_set]
        report = evaluate(eval_set, preds, params.meta.scheme)
        print(f"{cfg.trigger.beta:g}\t{report.overall_f1:.4f}")
    return 0


def _encode_for_model(sentences, params, seg_path):
    meta = params.meta
    return encode_corpus(sentences, _seg_map(seg_path), meta.mode, meta.bigrams,
                         meta.token_vocab, meta.feature_vocabs())


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
    gold = _load_labeled(args.gold, scheme, "gold")
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
    v = _settings(args, {})
    with _usage_errors():
        tc = _train_config(v)
    for attempt in range(50):
        params, sentence = tiny_instance(tc.seed + 1000 * attempt, mode=v["mode"],
                                         bigrams=v["bigrams"])
        if augmented_gap(sentence, params, tc.trigger) >= 1e-3:
            break
    names = params.named_tensors()
    if args.corrupt is not None and args.corrupt not in names:
        raise CliError(f"unknown tensor {args.corrupt!r}; pick one of {', '.join(names)}")
    beam_k = params.meta.scheme.n_labels ** len(sentence)
    report = finite_difference_check(sentence, params, tc.trigger, beam_k, corrupt=args.corrupt)
    for name, err in report.per_tensor.items():
        status = "ok" if err <= GRADCHECK_TOL else "FAIL"
        print(f"{name:<12} max rel err {err:.3e}  {status}")
    name, err = report.worst
    if not report.passed(GRADCHECK_TOL):
        print(f"gradient check FAILED: worst tensor {name} at {err:.3e} > {GRADCHECK_TOL:g}")
        return 1
    print(f"gradient check passed (worst: {name} at {err:.3e})")
    return 0


def _add_flags(p: argparse.ArgumentParser, keys) -> None:
    for key in keys:
        p.add_argument(f"--{key}", choices=SETTINGS[key].choices, help=SETTINGS[key].help)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mmner",
        description="Max-margin BiLSTM named-entity tagger for Chinese social media text",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model from a config file")
    p_train.add_argument("--config", help="flat key = value configuration file")
    _add_flags(p_train, [key for key, setting in SETTINGS.items() if setting.flag])

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
    _add_flags(p_gc, GRADCHECK_KEYS)
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
