"""Property-based fuzzing of the input readers: whatever the input, only the
reader's own typed error may escape (the CLI maps those to exit code 2).

The runs are derandomized, so the suite sees the same examples every time.
"""

import contextlib
import io
import json
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mmner.cli import SETTINGS, CliError, main, parse_config
from mmner.corpus import CorpusError, TagScheme, build_vocab, parse_conll
from mmner.embeddings import EmbeddingFormatError, load_pretrained
from mmner.model import D_TOKEN
from mmner.synthetic import tiny_instance
from mmner.training import ModelIOError, load_model, save_model

FUZZ = settings(max_examples=150, deadline=None, derandomize=True, database=None)
SCHEME = TagScheme.from_entity_types()


def lines_of(*pieces):
    """Text built from the format's own fragments mixed with arbitrary text."""
    fragment = st.one_of(st.sampled_from(pieces), st.text(max_size=6))
    line = st.lists(fragment, max_size=6).map("".join)
    return st.lists(line, max_size=10).map("\n".join)


@FUZZ
@given(lines_of("=", " = ", "#", " ", *sorted(SETTINGS)))
def test_parse_config_raises_only_cli_error(text):
    try:
        parse_config(text)
    except CliError:
        pass


@FUZZ
@given(lines_of("\t", "", "字", "O", "B-PER.NAM", "I-PER.NAM", "I-GPE.NOM", "B-X", "I-"))
def test_parse_conll_raises_only_corpus_error(text):
    try:
        parse_conll(text, SCHEME)
    except CorpusError:
        pass


@FUZZ
@given(lines_of(" ", "a", "b", "2 2", "1", "-0.5", "1e308", "nan", "e", "\t"))
def test_load_pretrained_raises_only_embedding_format_error(text):
    try:
        load_pretrained(text, build_vocab(["a", "b"]), 2, np.random.default_rng(0))
    except EmbeddingFormatError:
        pass


@pytest.fixture(scope="module")
def model_file(tmp_path_factory):
    params, _ = tiny_instance(3)
    path = tmp_path_factory.mktemp("fuzz") / "model.bin"
    save_model(params, str(path))
    return path, path.read_bytes()


def _loads_or_model_io_error(path, blob):
    path.write_bytes(blob)
    try:
        load_model(str(path))
    except ModelIOError:
        pass


@FUZZ
@given(st.data())
def test_byte_mutated_model_raises_only_model_io_error(model_file, data):
    path, blob = model_file
    # half the mutations land in the header, metadata and first tensor header
    offset = st.one_of(st.integers(0, 400), st.integers(0, len(blob) - 1))
    edits = data.draw(st.lists(st.tuples(offset, st.integers(0, 255)), min_size=1, max_size=4))
    mutated = bytearray(blob)
    for pos, byte in edits:
        mutated[pos] = byte
    _loads_or_model_io_error(path.with_name("mutated.bin"), bytes(mutated))


@FUZZ
@given(st.data())
def test_truncated_model_raises_only_model_io_error(model_file, data):
    path, blob = model_file
    cut = data.draw(st.integers(0, len(blob) - 1))
    _loads_or_model_io_error(path.with_name("truncated.bin"), blob[:cut])


def _tensor_headers(blob):
    """(offset of the rank byte, rank) of every tensor in a model file."""
    (meta_len,) = struct.unpack("<I", blob[12:16])
    pos = 16 + meta_len
    (count,) = struct.unpack("<I", blob[pos:pos + 4])
    pos += 4
    headers = []
    for _ in range(count):
        (name_len,) = struct.unpack("<H", blob[pos:pos + 2])
        pos += 2 + name_len
        rank = blob[pos]
        shape = struct.unpack(f"<{rank}Q", blob[pos + 1:pos + 1 + 8 * rank])
        headers.append((pos, rank))
        pos += 1 + 8 * rank + 8 * math.prod(shape)
    assert pos == len(blob)
    return headers


@FUZZ
@given(st.data())
def test_rewritten_tensor_header_raises_only_model_io_error(model_file, data):
    # the reader allocates by the declared shape: any rank and dims must end
    # in a typed error, never in an allocation beyond the file's size
    path, blob = model_file
    pos, rank = data.draw(st.sampled_from(_tensor_headers(blob)))
    # low ranks and mid-sized dims reach np.empty; the rest overflow it
    new_rank = data.draw(st.one_of(st.integers(0, 3), st.integers(0, 255)))
    dim = st.one_of(st.integers(0, 2**24), st.integers(0, 2**64 - 1))
    dims = data.draw(st.lists(dim, min_size=new_rank, max_size=new_rank))
    header = struct.pack(f"<B{new_rank}Q", new_rank, *dims)
    edited = blob[:pos] + header + blob[pos + 1 + 8 * rank:]
    tracemalloc.start()
    try:
        _loads_or_model_io_error(path.with_name("header.bin"), edited)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= len(edited) + 2**20


JSON_VALUES = st.one_of(st.none(), st.booleans(), st.integers(-2, 40), st.floats(),
                        st.text(max_size=4), st.lists(st.text(max_size=3), max_size=3))


def _edit_metadata(doc, data):
    """Drop or add a key, swap or duplicate a vocabulary entry, or retype a value."""
    edit = data.draw(st.sampled_from(["drop", "add", "swap", "duplicate", "retype"]))
    if edit == "add":
        doc[data.draw(st.text(max_size=8))] = data.draw(JSON_VALUES)
    elif edit in ("drop", "retype"):
        key = data.draw(st.sampled_from(sorted(doc)))
        if edit == "drop":
            del doc[key]
        else:
            doc[key] = data.draw(JSON_VALUES)
    else:
        vocab = doc.get(data.draw(st.sampled_from(["token_itos", "bigram_itos"])))
        if isinstance(vocab, list) and vocab:
            i, j = data.draw(st.lists(st.integers(0, len(vocab) - 1), min_size=2, max_size=2))
            if edit == "swap":
                vocab[i], vocab[j] = vocab[j], vocab[i]
            else:
                vocab[i] = vocab[j]


@FUZZ
@given(st.data())
def test_edited_metadata_raises_only_model_io_error(model_file, data):
    path, blob = model_file
    (meta_len,) = struct.unpack("<I", blob[12:16])
    doc = json.loads(blob[16:16 + meta_len])
    for _ in range(data.draw(st.integers(1, 3))):
        _edit_metadata(doc, data)
    meta = json.dumps(doc).encode("utf-8")
    edited = path.with_name("edited.bin")
    edited.write_bytes(blob[:12] + struct.pack("<I", len(meta)) + meta + blob[16 + meta_len:])
    try:
        params = load_model(str(edited))
        params.meta.token_vocab, params.meta.feature_vocabs()
    except ModelIOError:
        pass


# a corpus and segmented text in the tiny_instance model's alphabet and scheme
TINY_CORPUS = "甲\tB-PER.NAM\n乙\tI-PER.NAM\n丙\tO\n\n丁\tO\n戊\tB-PER.NAM\n"
TINY_SEG = "甲乙 丙\n丁 戊\n"
FRAGMENT_LINE = st.lists(st.sampled_from(
    ["", "\t", " ", "O", "I-PER.NAM", "B-GPE.NOM", "甲", "\ufeff", "\u2028", "\r", "#"]),
    max_size=4).map("".join)


def _mutated(data, text, fragment_line=FRAGMENT_LINE):
    """The text after a few line edits (insert a line of format fragments,
    drop, repeat or swap lines), then up to two byte edits."""
    lines = text.split("\n")
    for _ in range(data.draw(st.integers(0, 3))):
        edit = data.draw(st.sampled_from(["insert", "drop", "repeat", "swap"] if lines
                                         else ["insert"]))
        i = data.draw(st.integers(0, max(len(lines) - 1, 0)))
        j = data.draw(st.integers(0, max(len(lines) - 1, 0)))
        if edit == "insert":
            lines.insert(i, data.draw(fragment_line))
        elif edit == "drop":
            del lines[i]
        elif edit == "repeat":
            lines.insert(i, lines[j])
        else:
            lines[i], lines[j] = lines[j], lines[i]
    blob = bytearray("\n".join(lines).encode("utf-8"))
    for _ in range(data.draw(st.sampled_from([0, 0, 0, 1, 2])) if blob else 0):
        blob[data.draw(st.integers(0, len(blob) - 1))] = data.draw(st.integers(0, 255))
    return bytes(blob)


@pytest.fixture(scope="module")
def cli_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    save_model(tiny_instance(3)[0], str(root / "model.bin"))
    return root


def _exit_and_errors(argv):
    """main's exit code and the error lines it wrote to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, [line for line in err.getvalue().splitlines() if line.startswith("error:")]


def _assert_exit_0_or_2(argv):
    """Exit 0 without an error line, or exit 2 with exactly one."""
    code, errors = _exit_and_errors(argv)
    if code == 1:  # the one designed exit 1 among these inputs
        assert len(errors) == 1 and errors[0].startswith("error: training diverged")
    else:
        assert (code, len(errors)) in ((0, 0), (2, 1))


@settings(FUZZ, max_examples=80)
@given(st.data())
def test_cli_on_mutated_inputs_exits_0_or_2_with_one_error_line(cli_dir, data):
    corpus, seg = cli_dir / "corpus.conll", cli_dir / "seg.txt"
    corpus.write_bytes(_mutated(data, TINY_CORPUS))
    seg.write_bytes(_mutated(data, TINY_SEG))
    command = data.draw(st.sampled_from(["predict", "eval", "train"]))
    if command == "train":
        (cli_dir / "train.cfg").write_text(
            f"train = {corpus}\nsegmented-text = {seg}\nmodel-out = {cli_dir / 'out.bin'}\n",
            "utf-8")
        argv = ["train", "--config", str(cli_dir / "train.cfg"), "--epochs", "1"]
    else:
        argv = [command, str(cli_dir / "model.bin"), str(corpus), "--segmented-text", str(seg)]
    _assert_exit_0_or_2(argv)


def _vector_line(word, value):
    return " ".join([word] + [value] * D_TOKEN)


TINY_EMBEDDINGS = "\n".join(
    ["3 %d" % D_TOKEN, _vector_line("甲", "0.1"), _vector_line("乙", "-0.25"),
     _vector_line("zz", "1e-3")]) + "\n"


@pytest.fixture(scope="module")
def inputs_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("inputs")


def _write_inputs(root):
    """A fresh corpus, segmented text and embeddings file (a mutated config
    may have overwritten them) and their paths."""
    texts = {"train.conll": TINY_CORPUS, "seg.txt": TINY_SEG, "emb.txt": TINY_EMBEDDINGS}
    for name, text in texts.items():
        (root / name).write_text(text, "utf-8")
    return {name: str(root / name) for name in texts}


@settings(FUZZ, max_examples=60)
@given(st.data())
def test_cli_on_mutated_config_exits_0_or_2_with_one_error_line(inputs_dir, data):
    paths = _write_inputs(inputs_dir)
    pieces = [*sorted(SETTINGS), " = ", "=", " ", "#", "0", "1", "-1", "0.5,1", "nan", "1e308",
              "on", "off", "fscore", "segfeat", *paths.values(), str(inputs_dir),
              str(inputs_dir / "no" / "x")]
    fragment = st.lists(st.sampled_from(pieces), max_size=4).map("".join)
    text = f"train = {paths['train.conll']}\nmodel-out = {inputs_dir / 'out.bin'}\nepochs = 1\n"
    (inputs_dir / "train.cfg").write_bytes(_mutated(data, text, fragment))
    _assert_exit_0_or_2(["train", "--config", str(inputs_dir / "train.cfg")])


@settings(FUZZ, max_examples=60)
@given(st.data())
def test_cli_on_mutated_embeddings_exits_0_or_2_with_one_error_line(inputs_dir, data):
    paths = _write_inputs(inputs_dir)
    fragment = st.one_of(
        st.sampled_from([_vector_line("丙", "0.5"), _vector_line("甲", "nan"), "3 %d" % D_TOKEN]),
        st.lists(st.sampled_from(["甲", " ", "\t", "0.5", "1e308", "-", "e"]), max_size=6)
        .map("".join))
    with open(paths["emb.txt"], "wb") as fh:
        fh.write(_mutated(data, TINY_EMBEDDINGS, fragment))
    (inputs_dir / "train.cfg").write_text(
        f"train = {paths['train.conll']}\nembeddings = {paths['emb.txt']}\n"
        f"model-out = {inputs_dir / 'out.bin'}\n", "utf-8")
    _assert_exit_0_or_2(["train", "--config", str(inputs_dir / "train.cfg"), "--epochs", "1"])


@settings(FUZZ, max_examples=60)
@given(st.data())
def test_cli_on_byte_mutated_model_exits_0_or_2_with_one_error_line(cli_dir, inputs_dir, data):
    blob = (cli_dir / "model.bin").read_bytes()
    paths = _write_inputs(inputs_dir)
    # half the mutations land in the header, metadata and first tensor header
    offset = st.one_of(st.integers(0, 400), st.integers(0, len(blob) - 1))
    mutated = bytearray(blob)
    for pos, byte in data.draw(st.lists(st.tuples(offset, st.integers(0, 255)),
                                        min_size=1, max_size=4)):
        mutated[pos] = byte
    (inputs_dir / "mutated.bin").write_bytes(bytes(mutated))
    command = data.draw(st.sampled_from(["predict", "eval"]))
    _assert_exit_0_or_2([command, str(inputs_dir / "mutated.bin"), paths["train.conll"],
                         "--segmented-text", paths["seg.txt"]])
