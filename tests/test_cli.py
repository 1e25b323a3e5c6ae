"""End-to-end command-line tests driven through main(argv)."""

import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mmner

from mmner.cli import SETTINGS, main, parse_config, CliError
from mmner.corpus import parse_conll, TagScheme
from mmner.synthetic import synthetic_corpus, tiny_instance, to_conll
from mmner.training import load_model, save_model
from support import MISSHAPEN, append_tensor, misshapen

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture(scope="module")
def corpus_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    corpus = synthetic_corpus(n_sentences=8, seed=11)
    dev = synthetic_corpus(n_sentences=3, seed=12)
    (root / "train.conll").write_text(to_conll(corpus.sentences, corpus.scheme), "utf-8")
    (root / "dev.conll").write_text(to_conll(dev.sentences, dev.scheme), "utf-8")
    (root / "seg.txt").write_text("\n".join(corpus.seg_lines + dev.seg_lines) + "\n", "utf-8")
    return root


def write_config(path, **overrides):
    base = {
        "train": "", "dev": "", "model-out": "",
        "epochs": "2", "seed": "3", "window": "3", "bigrams": "off",
        "trigger": "hamming", "beam-k": "4", "lr": "0.2",
    }
    base.update({k.replace("_", "-"): v for k, v in overrides.items()})
    lines = [f"{k} = {v}" for k, v in base.items() if v != ""]
    path.write_text("# test configuration\n" + "\n".join(lines) + "\n", "utf-8")
    return path


def train_once(tmp_path, corpus_files, name="model.bin", **overrides):
    model = tmp_path / name
    overrides.setdefault("train", str(corpus_files / "train.conll"))
    overrides.setdefault("dev", str(corpus_files / "dev.conll"))
    overrides.setdefault("model_out", str(model))
    cfg = write_config(tmp_path / f"{name}.cfg", **overrides)
    code = main(["train", "--config", str(cfg)])
    return code, model


class TestParseConfig:
    def test_values_comments_blanks(self):
        text = "# top\ntrain = a.conll\n\nepochs = 3  # inline\n"
        assert parse_config(text) == {"train": "a.conll", "epochs": "3"}

    def test_unknown_key(self):
        with pytest.raises(CliError, match="line 2.*momentum"):
            parse_config("train = x\nmomentum = 0.9\n")

    def test_missing_equals(self):
        with pytest.raises(CliError, match="line 1"):
            parse_config("just some words\n")

    def test_repeated_key(self):
        with pytest.raises(CliError, match="^config line 4: key 'epochs' already set on line 2$"):
            parse_config("train = x\nepochs = 2\n\nepochs = 3\n")

    def test_only_newline_ends_a_line(self):
        text = "train = a\u2028b.conll\r\nepochs = 3\r\n"
        assert parse_config(text) == {"train": "a\u2028b.conll", "epochs": "3"}
        with pytest.raises(CliError, match="line 2.*momentum"):
            parse_config("train = a\u2028b\r\nmomentum = 0.9\r\n")


class TestTrain:
    def test_writes_model_and_metrics(self, tmp_path, corpus_files, capsys):
        code, model = train_once(tmp_path, corpus_files)
        assert code == 0
        assert model.exists()
        metrics = model.with_name(model.name + ".log")
        assert metrics.exists()
        log_lines = metrics.read_text("utf-8").strip().splitlines()
        assert len(log_lines) == 2  # one line per epoch
        for line in log_lines:
            cols = line.split("\t")
            assert len(cols) == 6
            int(cols[0]); float(cols[1]); float(cols[2])  # epoch, lr, mean q
            for f1 in cols[3:]:
                float(f1)  # dev columns populated when a dev set is given
        out = capsys.readouterr().out
        assert "model written to" in out
        assert "Overall" in out  # dev report printed

    def test_deterministic_given_seed(self, tmp_path, corpus_files):
        code1, m1 = train_once(tmp_path, corpus_files, name="a.bin")
        code2, m2 = train_once(tmp_path, corpus_files, name="b.bin")
        assert code1 == code2 == 0
        assert m1.read_bytes() == m2.read_bytes()
        log1 = m1.with_name("a.bin.log").read_text("utf-8")
        log2 = m2.with_name("b.bin.log").read_text("utf-8")
        assert log1 == log2

    def test_flag_overrides_config(self, tmp_path, corpus_files):
        model = tmp_path / "m.bin"
        cfg = write_config(
            tmp_path / "m.cfg",
            train=str(corpus_files / "train.conll"),
            model_out=str(model),
            epochs="2",
        )
        code = main(["train", "--config", str(cfg), "--epochs", "1"])
        assert code == 0
        log = model.with_name("m.bin.log").read_text("utf-8").strip().splitlines()
        assert len(log) == 1

    def test_a_corpus_at_the_old_tmp_name_survives_the_save(self, tmp_path, corpus_files):
        corpus = tmp_path / "m.bin.tmp"
        corpus.write_bytes((corpus_files / "train.conll").read_bytes())
        code, model = train_once(tmp_path, corpus_files, name="m.bin", train=str(corpus),
                                 dev="", epochs="1")
        assert code == 0
        assert corpus.read_bytes() == (corpus_files / "train.conll").read_bytes()
        load_model(str(model))

    def test_model_and_log_take_their_mode_from_the_umask(self, tmp_path, corpus_files):
        old = os.umask(0o022)
        try:
            code, model = train_once(tmp_path, corpus_files, epochs="1")
        finally:
            os.umask(old)
        assert code == 0
        for path in (model, model.with_name(model.name + ".log")):
            assert path.stat().st_mode & 0o777 == 0o644, path

    def test_bom_config_trains(self, tmp_path, corpus_files):
        cfg = write_config(tmp_path / "bom.cfg", train=str(corpus_files / "train.conll"),
                           model_out=str(tmp_path / "model.bin"))
        cfg.write_bytes(b"\xef\xbb\xbf" + cfg.read_bytes())
        assert main(["train", "--config", str(cfg)]) == 0

    def test_no_dev_renders_dashes(self, tmp_path, corpus_files):
        code, model = train_once(tmp_path, corpus_files, name="nodev.bin", dev="")
        assert code == 0
        log = model.with_name("nodev.bin.log").read_text("utf-8").strip().splitlines()
        assert all(line.split("\t")[3:] == ["-", "-", "-"] for line in log)

    def test_the_readme_defaults_are_the_defaults(self, tmp_path, corpus_files):
        # the hyperparameter block of the README's config example, written
        # out, must train the same model as leaving every setting unset
        readme = README.read_text("utf-8")
        block = readme.split("# hyperparameters (these are the defaults", 1)[1]
        block = block.split("\n", 1)[1].split("EOF\n", 1)[0]
        flagged = {key for key, setting in SETTINGS.items() if setting.flag}
        assert set(parse_config(block)) == flagged - {"beta-sweep", "segmented-text"}
        # paper-sized layers: two sentences keep the 20 epochs short
        train = tmp_path / "two.conll"
        train.write_text((corpus_files / "train.conll").read_text("utf-8").split("\n\n")[0]
                         + "\n", "utf-8")
        for name, settings in (("given.bin", block), ("unset.bin", "")):
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(f"train = {train}\nmodel-out = {tmp_path / name}\n{settings}", "utf-8")
            assert main(["train", "--config", str(cfg)]) == 0
        assert (tmp_path / "given.bin").read_bytes() == (tmp_path / "unset.bin").read_bytes()

    def test_missing_train_file(self, tmp_path, corpus_files, capsys):
        cfg = write_config(
            tmp_path / "bad.cfg",
            train=str(tmp_path / "absent.conll"),
            model_out=str(tmp_path / "m.bin"),
        )
        assert main(["train", "--config", str(cfg)]) == 2
        assert "absent.conll" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["model_out", "metrics_out"])
    def test_missing_output_directory_fails_before_reading(self, tmp_path, capsys, key):
        # the training file is absent too: the output check must come first
        paths = {"model_out": str(tmp_path / "m.bin"), key: str(tmp_path / "nodir" / "out")}
        cfg = write_config(tmp_path / "o.cfg", train=str(tmp_path / "absent.conll"), **paths)
        assert main(["train", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {key.replace('_', '-')} directory not found: {tmp_path / 'nodir'}\n"
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("slash", ["", os.sep], ids=["plain", "trailing-separator"])
    @pytest.mark.parametrize("key", ["model_out", "metrics_out"])
    def test_directory_as_output_fails_before_reading(self, tmp_path, capsys, key, slash):
        # the training file is absent too: the output check must come first
        outdir = tmp_path / "outdir"
        outdir.mkdir()
        paths = {"model_out": str(tmp_path / "m.bin"), key: str(outdir) + slash}
        cfg = write_config(tmp_path / "o.cfg", train=str(tmp_path / "absent.conll"), **paths)
        assert main(["train", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {key.replace('_', '-')} names a directory: {outdir}{slash}\n"
        assert sorted(tmp_path.iterdir()) == [cfg, outdir] and not any(outdir.iterdir())

    def test_directory_as_default_metrics_log_fails_before_reading(self, tmp_path, capsys):
        (tmp_path / "m.bin.log").mkdir()
        cfg = write_config(tmp_path / "o.cfg", train=str(tmp_path / "absent.conll"),
                           model_out=str(tmp_path / "m.bin"))
        assert main(["train", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: metrics-out names a directory: {tmp_path / 'm.bin.log'}\n"

    @pytest.mark.parametrize("out, used", [
        ("model_out", "metrics_out"), ("model_out", "train"), ("metrics_out", "train"),
        ("model_out", "dev"), ("metrics_out", "test"), ("model_out", "embeddings"),
        ("metrics_out", "segmented_text")])
    def test_output_over_a_file_the_run_uses_fails_before_reading(self, tmp_path, capsys, out,
                                                                  used):
        # the same file spelled two ways; the training file is absent unless
        # it is the one named twice, so the check must come before any read
        (tmp_path / "sub").mkdir()
        target = tmp_path / "used.txt"
        target.write_text("keep\n", "utf-8")
        paths = {"train": str(tmp_path / "absent.conll"), "model_out": str(tmp_path / "m.bin"),
                 used: str(target), out: str(tmp_path / "sub" / ".." / "used.txt")}
        cfg = write_config(tmp_path / "o.cfg", **paths)
        assert main(["train", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err == (f"error: {out.replace('_', '-')} and {used.replace('_', '-')} "
                       f"name the same file: {paths[out]}\n")
        assert target.read_text("utf-8") == "keep\n"
        assert sorted(tmp_path.iterdir()) == [cfg, tmp_path / "sub", target]

    def test_unknown_config_key(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("optimizer = adam\n", "utf-8")
        assert main(["train", "--config", str(bad)]) == 2
        assert "optimizer" in capsys.readouterr().err

    def test_non_finite_kappa_is_a_usage_error(self, tmp_path, corpus_files, capsys):
        cfg = write_config(tmp_path / "c.cfg", train=str(corpus_files / "train.conll"),
                           model_out=str(tmp_path / "m.bin"), kappa="inf")
        assert main(["train", "--config", str(cfg)]) == 2
        assert "finite" in capsys.readouterr().err

    def test_missing_model_out(self, tmp_path, corpus_files, capsys):
        cfg = write_config(
            tmp_path / "nm.cfg", train=str(corpus_files / "train.conll")
        )
        assert main(["train", "--config", str(cfg)]) == 2
        assert "model-out" in capsys.readouterr().err

    def test_empty_model_out_fails_before_reading(self, tmp_path, capsys):
        cfg = tmp_path / "e.cfg"
        cfg.write_text(f"train = {tmp_path / 'absent.conll'}\nmodel-out =\n", "utf-8")
        assert main(["train", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == "error: no model-out path configured (key 'model-out')\n"

    def test_empty_metrics_out_is_the_default_log(self, tmp_path, corpus_files):
        code, model = train_once(tmp_path, corpus_files, metrics_out=" ")
        assert code == 0
        assert (tmp_path / "model.bin.log").read_text("utf-8").startswith("0\t")

    def test_test_set_report(self, tmp_path, corpus_files, capsys):
        code, model = train_once(
            tmp_path, corpus_files, name="t.bin",
            test=str(corpus_files / "dev.conll"),
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "test set:" in out
        # the test-set report includes OOV recall against the training gold
        assert out.count("OOV recall") == 2
        tail = out.split("test set:")[1]
        assert "(" in tail.splitlines()[5]  # hit/total support shown

    def test_missing_test_file_fails_before_training(self, tmp_path, corpus_files, capsys):
        code, model = train_once(tmp_path, corpus_files, name="late.bin",
                                 test=str(tmp_path / "missing.conll"))
        assert code == 2
        assert "test file not found" in capsys.readouterr().err
        assert not model.exists()
        assert not model.with_name("late.bin.log").exists()

    def test_segmented_mode(self, tmp_path, corpus_files):
        code, model = train_once(
            tmp_path, corpus_files, name="seg.bin",
            mode="segfeat", segmented_text=str(corpus_files / "seg.txt"),
        )
        assert code == 0
        params = load_model(str(model))
        assert params.meta.mode == "segfeat"

    @pytest.mark.parametrize("trigger", ["integrated", "fscore"])
    def test_runs_under_different_hash_seeds_write_the_same_bytes(self, tmp_path, corpus_files,
                                                                 trigger):
        # string hashing orders sets and dicts of strings differently in each
        # process; nothing a run writes may depend on that order
        runs = []
        for hash_seed in ("0", "1", "2"):
            work = tmp_path / hash_seed
            work.mkdir()
            cfg = write_config(
                work / "train.cfg", train=str(corpus_files / "train.conll"),
                dev=str(corpus_files / "dev.conll"), test=str(corpus_files / "dev.conll"),
                model_out="model.bin", mode="segfeat", bigrams="on", trigger=trigger,
                segmented_text=str(corpus_files / "seg.txt"))
            done = run_cli("train", "--config", str(cfg), cwd=work, PYTHONHASHSEED=hash_seed)
            assert done.returncode == 0, done.stderr
            runs.append(((work / "model.bin").read_bytes(),
                         (work / "model.bin.log").read_text("utf-8"), done.stdout))
        assert runs[0] == runs[1] == runs[2]


def with_metadata(blob, patch):
    """The model file ``blob`` with its metadata JSON updated by ``patch``: a
    dict of keys to set, a function that edits the document in place, or None
    (the document becomes a JSON list)."""
    (meta_len,) = struct.unpack("<I", blob[12:16])
    doc = json.loads(blob[16:16 + meta_len])
    if patch is None:
        doc = []
    elif callable(patch):
        patch(doc)
    else:
        doc.update(patch)
    meta = json.dumps(doc).encode("utf-8")
    return blob[:12] + struct.pack("<I", len(meta)) + meta + blob[16 + meta_len:]


def swap_reserved(itos):
    itos[0], itos[1] = itos[1], itos[0]


def repeat_entry(itos):
    """Overwrite the last entry with the first regular one (length unchanged)."""
    itos[-1] = itos[2]


def replace_last(itos, entry):
    itos[-1] = entry


def run_cli(*argv, cwd=None, **env):
    env = dict(os.environ, PYTHONPATH=str(Path(mmner.__file__).resolve().parents[1]), **env)
    return subprocess.run([sys.executable, "-m", "mmner.cli", *argv],
                          capture_output=True, text=True, env=env, cwd=cwd, timeout=120)


class TestPredict:
    def test_output_round_trips(self, tmp_path, corpus_files, capsys):
        code, model = train_once(tmp_path, corpus_files)
        assert code == 0
        capsys.readouterr()
        assert main(["predict", str(model), str(corpus_files / "dev.conll")]) == 0
        out = capsys.readouterr().out
        scheme = TagScheme.from_entity_types()
        # the decoder's transition matrix is learned, not constrained, so the
        # emitted labels are whatever it predicted; they must still parse
        predicted, _ = parse_conll(out, scheme)
        gold, _ = parse_conll((corpus_files / "dev.conll").read_text("utf-8"), scheme)
        assert [s.tokens for s in predicted] == [s.tokens for s in gold]
        assert all(s.gold_labels is not None for s in predicted)

    def test_bom_is_not_part_of_the_first_token(self, tmp_path, corpus_files, capsys):
        code, model = train_once(tmp_path, corpus_files)
        dev = corpus_files / "dev.conll"
        bom = tmp_path / "bom.conll"
        bom.write_bytes(b"\xef\xbb\xbf" + dev.read_bytes())
        capsys.readouterr()
        assert main(["predict", str(model), str(dev)]) == 0
        plain = capsys.readouterr().out
        assert main(["predict", str(model), str(bom)]) == 0
        out = capsys.readouterr().out
        assert "\ufeff" not in out and out == plain

    def test_empty_input(self, tmp_path, corpus_files, capsys):
        code, model = train_once(tmp_path, corpus_files)
        capsys.readouterr()
        empty = tmp_path / "empty.conll"
        empty.write_text("", "utf-8")
        assert main(["predict", str(model), str(empty)]) == 0
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("label", ["B-FOO.NAM", ""])
    def test_reads_only_the_token_column(self, tmp_path, corpus_files, capsys, label):
        # labels the model does not know, or none after the tab, are not read
        code, model = train_once(tmp_path, corpus_files)
        lines = (corpus_files / "dev.conll").read_text("utf-8").split("\n")
        tokens = [line.split("\t")[0] for line in lines]
        labeled, raw = tmp_path / "labeled.conll", tmp_path / "raw.conll"
        labeled.write_text("\n".join(t and f"{t}\t{label}" for t in tokens), "utf-8")
        raw.write_text("\n".join(tokens), "utf-8")
        capsys.readouterr()
        assert main(["predict", str(model), str(raw)]) == 0
        plain = capsys.readouterr().out
        assert main(["predict", str(model), str(labeled)]) == 0
        captured = capsys.readouterr()
        assert captured.out == plain and plain and captured.err == ""

    def test_corrupt_model(self, tmp_path, corpus_files, capsys):
        code, model = train_once(tmp_path, corpus_files)
        blob = bytearray(model.read_bytes())
        blob[0] ^= 0xFF
        broken = tmp_path / "broken.bin"
        broken.write_bytes(bytes(blob))
        assert main(["predict", str(broken), str(corpus_files / "dev.conll")]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_model(self, tmp_path, corpus_files, capsys):
        assert main(["predict", str(tmp_path / "no.bin"), str(corpus_files / "dev.conll")]) == 2

    def test_non_utf8_input_exits_2(self, tmp_path, capsys):
        model = tmp_path / "tiny.bin"
        save_model(tiny_instance(3)[0], str(model))
        latin1 = tmp_path / "latin1.conll"
        latin1.write_bytes("caf\u00e9\tO\n".encode("latin-1"))
        assert main(["predict", str(model), str(latin1)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert str(latin1) in err and "UTF-8" in err

    @pytest.mark.parametrize("patch", [
        {"labels": 5},
        {"labels": [1, 2]},
        {"entity_types": [["PER"]]},
        {"window": "3"},
        {"window": 4},
        {"hidden_dim": True},
        {"token_itos": None},
        {"bigrams": "off"},
        None,
        pytest.param(lambda doc: swap_reserved(doc["token_itos"]), id="token-reserved-swapped"),
        pytest.param(lambda doc: repeat_entry(doc["token_itos"]), id="token-entry-repeated"),
        pytest.param(lambda doc: swap_reserved(doc["bigram_itos"]), id="bigram-reserved-swapped"),
        pytest.param(lambda doc: repeat_entry(doc["bigram_itos"]), id="bigram-entry-repeated"),
        pytest.param({"window": 3.0}, id="float-window"),
        pytest.param({"bigrams": 1}, id="int-bigrams"),
        pytest.param({"token_trainable": "no"}, id="string-token-trainable"),
        pytest.param({"token_trainable": False}, id="false-token-trainable"),
        pytest.param({"bigram_itos": []}, id="bigrams-without-vocabulary"),
    ])
    def test_malformed_metadata_exits_2_without_traceback(self, tmp_path, corpus_files, patch):
        code, model = train_once(tmp_path, corpus_files, bigrams="on")
        assert code == 0
        broken = tmp_path / "broken.bin"
        broken.write_bytes(with_metadata(model.read_bytes(), patch))
        proc = run_cli("predict", str(broken), str(corpus_files / "dev.conll"))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ")


@pytest.mark.parametrize("patch, says", [
    (None, "metadata is not a JSON object"),
    ({"bigram_itos": []}, "bigram vocabulary must be present iff bigrams are enabled"),
    (lambda doc: repeat_entry(doc["bigram_itos"]),
     "a vocabulary must hold strings, start with <unk>, <pad> and hold no duplicate"),
    *[pytest.param(lambda doc, key=key, entry=entry: replace_last(doc[key], entry),
                   "a vocabulary must hold strings, start with <unk>, <pad> and hold no duplicate",
                   id=f"{key}-{entry}")
      for key in ("token_itos", "bigram_itos") for entry in (5, None, 2.5)],
    ({"entity_types": [[1, 2]], "labels": ["O", "B-1.2", "I-1.2"]},
     "entity types must be distinct pairs of strings"),
    (lambda doc: doc["entity_types"].append(doc["entity_types"][0]),
     "entity types must be distinct pairs of strings"),
    ({"labels": ["O", "B-PER.NAM", 3]}, "labels must be strings"),
    ({"extra": 1}, "metadata key mismatch: missing [], unexpected ['extra']"),
    (lambda doc: doc.pop("labels"), "metadata key mismatch: missing ['labels'], unexpected []"),
    (lambda doc: doc.update(windw=doc.pop("window")),
     "metadata key mismatch: missing ['window'], unexpected ['windw']"),
])
def test_metadata_error_names_the_fault(tmp_path, corpus_files, capsys, patch, says):
    model = tmp_path / "bad.bin"
    save_model(tiny_instance(3)[0], str(model))
    model.write_bytes(with_metadata(model.read_bytes(), patch))
    assert main(["predict", str(model), str(corpus_files / "dev.conll")]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: bad metadata block: {says}\n" and captured.out == ""


@pytest.mark.parametrize("command", ["predict", "eval"])
def test_a_tensor_listed_twice_exits_2_naming_it(tmp_path, corpus_files, capsys, command):
    params, _ = tiny_instance(3)
    model = tmp_path / "twice.bin"
    save_model(params, str(model))
    append_tensor(model, "proj_b", np.full_like(params.proj.b_y, 7.0))
    assert main([command, str(model), str(corpus_files / "dev.conll")]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: tensor proj_b is listed twice\n" and captured.out == ""


@pytest.mark.parametrize("command", ["predict", "eval"])
def test_deeply_nested_metadata_exits_2(tmp_path, corpus_files, capsys, command):
    # json.loads gives up on this nesting with a RecursionError
    model = tmp_path / "nested.bin"
    save_model(tiny_instance(3)[0], str(model))
    blob = model.read_bytes()
    (meta_len,) = struct.unpack("<I", blob[12:16])
    meta = b"[" * 200_000
    model.write_bytes(blob[:12] + struct.pack("<I", len(meta)) + meta + blob[16 + meta_len:])
    assert main([command, str(model), str(corpus_files / "dev.conll")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: bad metadata block: ") and captured.out == ""
    assert captured.err.count("\n") == 1


class TestNonFiniteModel:
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("command", ["predict", "eval"])
    def test_exits_2_naming_the_tensor(self, tmp_path, corpus_files, capsys, command, value):
        params, _ = tiny_instance(3)
        params.proj.b_y[0] = value
        model = tmp_path / "bad.bin"
        save_model(params, str(model))
        assert main([command, str(model), str(corpus_files / "dev.conll")]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: tensor proj_b holds a NaN or infinite value\n"
        assert captured.out == ""


@pytest.mark.parametrize("name", MISSHAPEN)
def test_misshapen_tensor_exits_2_naming_it(tmp_path, corpus_files, capsys, name):
    model = tmp_path / "bad.bin"
    save_model(misshapen(name), str(model))
    assert main(["predict", str(model), str(corpus_files / "dev.conll")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: tensor {name}: expected shape")
    assert captured.out == ""


class TestEval:
    def test_report_and_tsv(self, tmp_path, corpus_files, capsys):
        code, model = train_once(tmp_path, corpus_files)
        capsys.readouterr()
        args = ["eval", str(model), str(corpus_files / "dev.conll"),
                "--train-gold", str(corpus_files / "train.conll")]
        assert main(args) == 0
        table = capsys.readouterr().out
        assert "Overall" in table and "OOV recall" in table
        assert main(args + ["--tsv"]) == 0
        tsv = capsys.readouterr().out
        rows = [line.split("\t") for line in tsv.strip().splitlines()]
        assert [r[0] for r in rows] == ["named", "nominal", "overall", "oov"]
        assert rows[-1][1] != "-"  # OOV known when training gold is given

    def test_oov_dash_without_train_gold(self, tmp_path, corpus_files, capsys):
        code, model = train_once(tmp_path, corpus_files)
        capsys.readouterr()
        assert main(["eval", str(model), str(corpus_files / "dev.conll"), "--tsv"]) == 0
        rows = [line.split("\t") for line in capsys.readouterr().out.strip().splitlines()]
        assert rows[-1][1] == "-"

    def test_missing_train_gold_exits_2_before_predicting(self, tmp_path, corpus_files, capsys,
                                                         monkeypatch):
        code, model = train_once(tmp_path, corpus_files)
        capsys.readouterr()
        calls = []
        monkeypatch.setattr("mmner.cli.predict_all", lambda *args: calls.append(args))
        missing = tmp_path / "missing.conll"
        argv = ["eval", str(model), str(corpus_files / "dev.conll"), "--train-gold", str(missing)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: training gold file not found: {missing}\n"
        assert calls == []

    def test_unlabeled_train_gold_exits_2(self, tmp_path, corpus_files, capsys):
        code, model = train_once(tmp_path, corpus_files)
        text = (corpus_files / "train.conll").read_text("utf-8")
        unlabeled = tmp_path / "train.txt"
        unlabeled.write_text("\n".join(line.split("\t")[0] for line in text.split("\n")), "utf-8")
        capsys.readouterr()
        dev = str(corpus_files / "dev.conll")
        assert main(["eval", str(model), dev, "--train-gold", str(unlabeled)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: training gold file {unlabeled} "
                                "must contain labeled sentences\n")


    @pytest.mark.parametrize("what", ["gold", "training gold"])
    def test_empty_labeled_file_exits_2(self, tmp_path, corpus_files, capsys, what):
        code, model = train_once(tmp_path, corpus_files)
        capsys.readouterr()
        dev = str(corpus_files / "dev.conll")
        files = [os.devnull] if what == "gold" else [dev, "--train-gold", os.devnull]
        assert main(["eval", str(model), *files]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {what} file {os.devnull} must contain labeled sentences\n"


class TestBetaSweep:
    def test_table(self, tmp_path, corpus_files, capsys):
        model = tmp_path / "sweep.bin"
        cfg = write_config(
            tmp_path / "sweep.cfg",
            train=str(corpus_files / "train.conll"),
            model_out=str(model),
            epochs="1",
            trigger="integrated",
        )
        code = main(["train", "--config", str(cfg), "--beta-sweep", "0,0.2"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "beta\toverall_f1"
        body = [line.split("\t") for line in lines[1:]]
        assert [row[0] for row in body] == ["0", "0.2"]
        for row in body:
            assert 0.0 <= float(row[1]) <= 1.0

    def test_no_model_out_needed(self, tmp_path, corpus_files, capsys):
        cfg = write_config(tmp_path / "nm.cfg", train=str(corpus_files / "train.conll"),
                           epochs="1", trigger="integrated")
        assert main(["train", "--config", str(cfg), "--beta-sweep", "0.5"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "beta\toverall_f1"
        assert [line.split("\t")[0] for line in lines[1:]] == ["0.5"]
        assert list(tmp_path.iterdir()) == [cfg]  # a sweep writes no model

    def test_output_directories_are_not_needed(self, tmp_path, corpus_files, capsys):
        nodir = tmp_path / "nodir"
        cfg = write_config(tmp_path / "nd.cfg", train=str(corpus_files / "train.conll"),
                           epochs="1", trigger="integrated", model_out=str(nodir / "m.bin"),
                           metrics_out=str(nodir / "m.log"))
        assert main(["train", "--config", str(cfg), "--beta-sweep", "0.5"]) == 0
        assert list(tmp_path.iterdir()) == [cfg]

    def test_outputs_may_name_an_input(self, tmp_path, corpus_files, capsys):
        train = tmp_path / "train.conll"
        train.write_bytes((corpus_files / "train.conll").read_bytes())
        cfg = write_config(tmp_path / "in.cfg", train=str(train), epochs="1",
                           trigger="integrated", model_out=str(train), metrics_out=str(train))
        assert main(["train", "--config", str(cfg), "--beta-sweep", "0.5"]) == 0
        assert train.read_bytes() == (corpus_files / "train.conll").read_bytes()

    def test_test_file_is_not_read(self, tmp_path, corpus_files, capsys):
        cfg = write_config(tmp_path / "t.cfg", train=str(corpus_files / "train.conll"),
                           epochs="1", trigger="integrated", test=str(tmp_path / "nosuch.conll"))
        assert main(["train", "--config", str(cfg), "--beta-sweep", "0.5"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "beta\toverall_f1"
        assert [line.split("\t")[0] for line in lines[1:]] == ["0.5"]

    def test_bad_list(self, tmp_path, corpus_files, capsys):
        model = tmp_path / "s.bin"
        cfg = write_config(
            tmp_path / "s.cfg",
            train=str(corpus_files / "train.conll"),
            model_out=str(model),
        )
        assert main(["train", "--config", str(cfg), "--beta-sweep", "0,zebra"]) == 2


class TestGradcheck:
    def test_passes(self, capsys):
        assert main(["gradcheck", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "gradient check passed" in out
        assert "transitions" in out

    def test_deterministic(self, capsys):
        main(["gradcheck", "--seed", "5", "--trigger", "fscore"])
        first = capsys.readouterr().out
        main(["gradcheck", "--seed", "5", "--trigger", "fscore"])
        assert capsys.readouterr().out == first

    def test_corrupt_fails(self, capsys):
        assert main(["gradcheck", "--seed", "2", "--corrupt", "proj_b"]) == 1
        assert "FAILED" in capsys.readouterr().out


class TestBadSettings:
    @pytest.mark.parametrize("argv, config, says", [
        (["train", "--window", "4"], {}, "window"),
        (["train", "--window", "0"], {}, "window"),
        (["train", "--seed", "-1"], {}, "seed"),
        (["train", "--lr", "nan"], {}, "learning_rate"),
        (["train", "--lr", "inf"], {}, "learning_rate"),
        (["train", "--l2", "inf"], {}, "l2_lambda"),
        (["train", "--decay", "nan"], {}, "decay"),
        (["train", "--epochs", "0"], {}, "epochs"),
        (["train", "--kappa", "inf"], {}, "kappa"),
        (["train"], {"mode": "bogus"}, "bogus"),
        (["train"], {"bigrams": "maybe"}, "bigrams"),
        (["gradcheck", "--seed", "-1"], None, "seed"),
        (["gradcheck", "--corrupt", "nosuch"], None, "proj_b"),
        (["train"], {"beta_sweep": ","}, "setting 'beta-sweep': empty list"),
        (["train"], {"train": os.devnull}, "must contain labeled sentences"),
        (["train"], {"dev": os.devnull}, f"dev file {os.devnull} must contain labeled sentences"),
        (["train"], {"test": os.devnull}, f"test file {os.devnull} must contain labeled sentences"),
    ])
    def test_exits_2_with_an_error_line(self, tmp_path, corpus_files, capsys, argv, config, says):
        if config is not None:
            paths = {"train": str(corpus_files / "train.conll"),
                     "model_out": str(tmp_path / "m.bin")}
            cfg = write_config(tmp_path / "c.cfg", **{**paths, **config})
            argv = argv + ["--config", str(cfg)]
        assert main(argv) == 2  # an exception escaping main would be a traceback
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert says in err
        assert not (tmp_path / "m.bin").exists()

    @pytest.mark.parametrize("where", ["train", "dev", "test", "predict", "eval"])
    def test_segmentation_tag_count_mismatch(self, tmp_path, corpus_files, capsys, where):
        # the segmented line "ab c" gives three tags to the two tokens "ab", "c"
        odd = tmp_path / "odd.conll"
        odd.write_text("ab\tO\nc\tO\n", "utf-8")
        seg = tmp_path / "seg.txt"
        seg.write_text("ab c\n", "utf-8")
        if where in ("predict", "eval"):
            code, model = train_once(tmp_path, corpus_files)
            assert code == 0
            capsys.readouterr()
            argv = [where, str(model), str(odd), "--segmented-text", str(seg)]
        else:
            files = {"train": str(corpus_files / "train.conll"), where: str(odd)}
            cfg = write_config(tmp_path / "c.cfg", model_out=str(tmp_path / "m.bin"),
                               segmented_text=str(seg), **files)
            argv = ["train", "--config", str(cfg)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("error:") == 1
        assert "'abc'" in err and "3 tags" in err and "2 tokens" in err
        assert not (tmp_path / "m.bin").exists()

    @pytest.mark.parametrize("key", ["train", "model_out", "metrics_out", "segmented_text"])
    def test_nul_in_a_path_exits_2_before_training(self, tmp_path, corpus_files, capsys, key):
        # open() raises ValueError on a NUL; for an output that came after training
        paths = {"train": str(corpus_files / "train.conll"), "model_out": str(tmp_path / "m.bin"),
                 key: str(tmp_path / "a\0b")}
        cfg = write_config(tmp_path / "c.cfg", **paths)
        assert main(["train", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        name = key.replace("_", "-")
        assert err == f"error: setting {name!r}: a path cannot hold a NUL character\n"
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_exits_1(self, tmp_path, corpus_files, capsys):
        cfg = write_config(tmp_path / "d.cfg", train=str(corpus_files / "train.conll"),
                           model_out=str(tmp_path / "m.bin"), l2="1e308")
        assert main(["train", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith("error: training diverged")
        assert not (tmp_path / "m.bin").exists()


class TestUsage:
    def test_no_command(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_trigger_flag(self, capsys):
        with pytest.raises(SystemExit):
            main(["train", "--trigger", "typo"])
