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
    load_segmentation,
    parse_conll,
    split_lines,
)
from .embeddings import EmbeddingFormatError, load_pretrained
from .evaluation import evaluate, gold_entity_surfaces, render_report
from .model import D_FEATURE, D_TOKEN, HIDDEN_DIM, WINDOW, ModelMeta, init_params
from .synthetic import tiny_instance, to_conll
from .training import (
    GRADCHECK_TOL,
    ModelIOError,
    TrainConfig,
    augmented_gap,
    finite_difference_check,
    load_model,
    predict_all,
    save_model,
    train,
)
from .triggers import INTEGRATED, TRIGGER_KINDS, Trigger

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


def _path(value: str) -> str:
    if "\0" in value:
        raise ValueError("a path cannot hold a NUL character")
    return value


@dataclass(frozen=True)
class Setting:
    """One config key: its text converter (no range checks: Trigger, TrainConfig
    and ModelMeta check their own fields), default (unset: the field's) and flag."""

    convert: Callable[[str], Any] = str
    default: Any = None
    flag: bool = True  # also settable as --<key> on `mmner train`
    choices: tuple[str, ...] | None = None
    help: str | None = None


PATH = Setting(_path, flag=False)
SETTINGS = {
    "train": PATH, "dev": PATH, "test": PATH, "embeddings": PATH,
    "model-out": PATH, "metrics-out": PATH,
    "seed": Setting(int),
    "trigger": Setting(str, INTEGRATED, choices=TRIGGER_KINDS),
    "kappa": Setting(float),
    "beta": Setting(float),
    "beam-k": Setting(int),
    "lr": Setting(float),
    "decay": Setting(float),
    "l2": Setting(float),
    "epochs": Setting(int),
    "window": Setting(int, WINDOW),
    "mode": Setting(str, MODE_POSITIONAL, choices=MODES),
    "bigrams": Setting(_on_off, True, choices=("on", "off")),
    "beta-sweep": Setting(_floats, help="comma-separated beta values; train each, print F1 table"),
    "segmented-text": Setting(
        _path, help="pre-segmented sentences (words space-separated, one per line)"),
}
CONFIG_KEYS = frozenset(SETTINGS)
GRADCHECK_KEYS = ("seed", "trigger", "kappa", "beta", "mode", "bigrams")


def parse_config(text: str) -> dict[str, str]:
    """Flat "key = value" lines; '#' comments; unknown or repeated keys are errors."""
    out: dict[str, str] = {}
    seen: dict[str, int] = {}
    for lineno, raw in enumerate(split_lines(text), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise CliError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, value = key.strip(), value.strip()
        if key not in CONFIG_KEYS:
            raise CliError(f"config line {lineno}: unknown key {key!r}")
        if key in seen:
            raise CliError(f"config line {lineno}: key {key!r} already set on line {seen[key]}")
        out[key], seen[key] = value, lineno
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
    """The training settings that were given; the window is ModelMeta's."""
    def given(**keys):  # field -> config key
        return {field: v[key] for field, key in keys.items() if v[key] is not None}
    return TrainConfig(Trigger(**given(kind="trigger", kappa="kappa", beta="beta")),
                       **given(learning_rate="lr", decay="decay", l2_lambda="l2",
                               epochs="epochs", beam_k="beam-k", seed="seed"))


def _read(path: str, what: str) -> str:
    if not path:
        raise CliError(f"no {what} path given")
    if not os.path.exists(path):
        raise CliError(f"{what} file not found: {path}")
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise CliError(f"{what} file {path} is not UTF-8: {exc}") from None


def _load(path: str, what: str, scheme: TagScheme | None = None) -> list[Sentence]:
    """A corpus file's sentences; with a scheme, its labeled ones (at least one)."""
    sentences, repairs = parse_conll(_read(path, what), scheme)
    if repairs:
        print(f"note: repaired {repairs} invalid BIO label(s) in {path}", file=sys.stderr)
    if scheme is not None and (not sentences or sentences[0].gold_labels is None):
        raise CliError(f"{what} file {path} must contain labeled sentences")
    return sentences


def _seg_map(path: str | None):
    return load_segmentation(_read(path, "segmented text")) if path else None


def cmd_train(args) -> int:
    config = parse_config(_read(args.config, "config")) if args.config else {}
    v = _settings(args, config)
    model_out = v["model-out"]
    if model_out and not v["metrics-out"]:
        v["metrics-out"] = model_out + ".log"
    scheme = TagScheme.from_entity_types()
    with _usage_errors():
        tc = _train_config(v)
        sweep = [replace(tc, trigger=replace(tc.trigger, kind=INTEGRATED, beta=beta))
                 for beta in v["beta-sweep"] or ()]
        for key in ("train",) if sweep else ("train", "model-out"):  # a sweep writes no model
            if not v[key]:
                raise CliError(f"no {key} path configured (key {key!r})")
        for key in () if sweep else ("model-out", "metrics-out"):  # nor a metrics log
            folder = os.path.dirname(v[key])
            if folder and not os.path.isdir(folder):
                raise CliError(f"{key} directory not found: {folder}")
            if os.path.isdir(v[key]):
                raise CliError(f"{key} names a directory: {v[key]}")
            here = os.path.realpath(v[key])
            for other in (k for k, setting in SETTINGS.items() if setting.convert is _path):
                if other != key and v[other] and os.path.realpath(v[other]) == here:
                    raise CliError(f"{key} and {other} name the same file: {v[key]}")
        train_set = _load(v["train"], "training", scheme)
        dev_set = _load(v["dev"], "dev", scheme) if v["dev"] else []
        test_set = _load(v["test"], "test", scheme) if v["test"] and not sweep else []
        seg_map = _seg_map(v["segmented-text"])
        meta = ModelMeta.from_corpus(
            train_set, seg_map, scheme=scheme, mode=v["mode"], bigrams=v["bigrams"],
            window=v["window"], d_token=D_TOKEN, d_feature=D_FEATURE, hidden_dim=HIDDEN_DIM)
    rng = np.random.default_rng(tc.seed)
    token_table = None
    if v["embeddings"]:
        text = _read(v["embeddings"], "embeddings")
        token_table = load_pretrained(text, meta.token_vocab, meta.d_token, rng)
    params = init_params(meta, rng, token_table)

    train_set, dev_set, test_set = (meta.encode(s, seg_map) for s in (train_set, dev_set, test_set))
    if sweep:
        return _beta_sweep(sweep, params, train_set, dev_set)

    best, log = train(params, train_set, dev_set, tc)
    save_model(best, model_out)
    with open(v["metrics-out"], "w", encoding="utf-8") as fh:
        fh.write("\n".join(log) + "\n")
    for line in log:
        print(line)
    if dev_set:
        print(render_report(evaluate(dev_set, predict_all(dev_set, best), scheme)))
    if v["test"]:
        surfaces = gold_entity_surfaces(train_set, scheme)
        print("test set:")
        print(render_report(evaluate(test_set, predict_all(test_set, best), scheme, surfaces)))
    print(f"model written to {model_out}")
    return 0


def _beta_sweep(configs: list[TrainConfig], params, train_set, dev_set) -> int:
    eval_set = dev_set if dev_set else train_set
    print("beta\toverall_f1")
    for cfg in configs:
        best, _ = train(params.copy(), train_set, dev_set, cfg)
        report = evaluate(eval_set, predict_all(eval_set, best), params.meta.scheme)
        print(f"{cfg.trigger.beta:g}\t{report.overall_f1:.4f}")
    return 0


def cmd_predict(args) -> int:
    params = load_model(args.model)
    sentences = params.meta.encode(_load(args.input, "input"), _seg_map(args.segmented_text))
    predicted = [replace(sent, gold_labels=labels)
                 for sent, labels in zip(sentences, predict_all(sentences, params))]
    if predicted:
        sys.stdout.write(to_conll(predicted, params.meta.scheme))
    return 0


def cmd_eval(args) -> int:
    params = load_model(args.model)
    scheme = params.meta.scheme
    gold = _load(args.gold, "gold", scheme)
    train_surfaces = None
    if args.train_gold:
        train_gold = _load(args.train_gold, "training gold", scheme)
        train_surfaces = gold_entity_surfaces(train_gold, scheme)
    gold = params.meta.encode(gold, _seg_map(args.segmented_text))
    report = evaluate(gold, predict_all(gold, params), scheme, train_surfaces)
    print(render_report(report, tsv=args.tsv))
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
    p_train.set_defaults(run=cmd_train)
    p_train.add_argument("--config", help="flat key = value configuration file")
    _add_flags(p_train, [key for key, setting in SETTINGS.items() if setting.flag])

    p_pred = sub.add_parser("predict", help="label a corpus with a trained model")
    p_pred.set_defaults(run=cmd_predict)
    p_pred.add_argument("model")
    p_pred.add_argument("input")
    _add_flags(p_pred, ["segmented-text"])

    p_eval = sub.add_parser("eval", help="score predictions against gold labels")
    p_eval.set_defaults(run=cmd_eval)
    p_eval.add_argument("model")
    p_eval.add_argument("gold")
    p_eval.add_argument("--train-gold", dest="train_gold",
                        help="training gold file for OOV recall")
    _add_flags(p_eval, ["segmented-text"])
    p_eval.add_argument("--tsv", action="store_true", help="machine-readable output")

    p_gc = sub.add_parser("gradcheck", help="finite-difference check on a tiny model")
    p_gc.set_defaults(run=cmd_gradcheck)
    _add_flags(p_gc, GRADCHECK_KEYS)
    p_gc.add_argument("--corrupt", help="tensor name whose analytic gradient is sabotaged")

    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (CliError, CorpusError, EmbeddingFormatError, ModelIOError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
