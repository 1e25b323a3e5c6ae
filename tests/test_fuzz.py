"""Property-based fuzzing of the input readers: whatever the input, only the
reader's own typed error may escape (the CLI maps those to exit code 2).

The runs are derandomized, so the suite sees the same examples every time.
"""

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mmner.cli import CONFIG_KEYS, CliError, parse_config
from mmner.corpus import CorpusError, TagScheme, build_vocab, parse_conll
from mmner.embeddings import EmbeddingFormatError, load_pretrained
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
@given(lines_of("=", " = ", "#", " ", *sorted(CONFIG_KEYS)))
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
