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

from mmner.cli import main, parse_config, CliError
from mmner.corpus import parse_conll, TagScheme
from mmner.synthetic import synthetic_corpus, tiny_instance, to_conll
from mmner.training import load_model, save_model


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

    def test_no_dev_renders_dashes(self, tmp_path, corpus_files):
        code, model = train_once(tmp_path, corpus_files, name="nodev.bin", dev="")
        assert code == 0
        log = model.with_name("nodev.bin.log").read_text("utf-8").strip().splitlines()
        assert all(line.split("\t")[3:] == ["-", "-", "-"] for line in log)

    def test_missing_train_file(self, tmp_path, corpus_files, capsys):
        cfg = write_config(
            tmp_path / "bad.cfg",
            train=str(tmp_path / "absent.conll"),
            model_out=str(tmp_path / "m.bin"),
        )
        assert main(["train", "--config", str(cfg)]) == 2
        assert "absent.conll" in capsys.readouterr().err

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

    def test_segmented_mode(self, tmp_path, corpus_files):
        code, model = train_once(
            tmp_path, corpus_files, name="seg.bin",
            mode="segfeat", segmented_text=str(corpus_files / "seg.txt"),
        )
        assert code == 0
        params = load_model(str(model))
        assert params.meta.mode == "segfeat"


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


def run_cli(*argv):
    env = dict(os.environ, PYTHONPATH=str(Path(mmner.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, "-m", "mmner.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)


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

    def test_empty_input(self, tmp_path, corpus_files, capsys):
        code, model = train_once(tmp_path, corpus_files)
        capsys.readouterr()
        empty = tmp_path / "empty.conll"
        empty.write_text("", "utf-8")
        assert main(["predict", str(model), str(empty)]) == 0
        assert capsys.readouterr().out == ""

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
    ])
    def test_exits_2_with_an_error_line(self, tmp_path, corpus_files, capsys, argv, config, says):
        if config is not None:
            cfg = write_config(tmp_path / "c.cfg", train=str(corpus_files / "train.conll"),
                               model_out=str(tmp_path / "m.bin"), **config)
            argv = argv + ["--config", str(cfg)]
        assert main(argv) == 2  # an exception escaping main would be a traceback
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert says in err
        assert not (tmp_path / "m.bin").exists()

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
