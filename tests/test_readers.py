"""Property test: every file reader fails closed on damaged input.

A truncated copy of a WAV, checkpoint, model header, manifest or eval.tsv,
or one with 1 to 4 bytes changed, either loads or raises MalformedHeader or
UnsupportedEncoding. A manifest whose WAV path was changed may also name a
file that does not exist. A damaged WAV that loads writes back with
write_wav and reads back with the same samples and rate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxtag.audio import read_wav, write_wav
from voxtag.errors import MalformedHeader, UnsupportedEncoding
from voxtag.evaluation import read_eval_tsv, write_eval_tsv
from voxtag.model import ModelConfig, TranslationModel, load_model, save_model
from voxtag.synthdata import (SynthSpec, build_vocabulary, generate_corpus, read_manifest,
                              write_manifest)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Each format's intact bytes, and a function that loads a copy of them."""
    root = tmp_path_factory.mktemp("readers")
    corpus, entries = generate_corpus(SynthSpec(n_utterances=3, seed=1))
    manifest = write_manifest(corpus, str(root))
    write_eval_tsv(entries, root / "eval.tsv")
    cfg = ModelConfig(hidden_dim=4, disc_hidden=4, encoder_layers=1)
    save_model(TranslationModel(build_vocabulary(), cfg), root / "model.vxck")
    ckpt = (root / "model.vxck").read_bytes()
    meta = (root / "model.vxck.meta").read_bytes()

    def load_copy(name, read, blob):
        (root / name).write_bytes(blob)
        return read(root / name)

    def load_model_copy(ckpt_blob, meta_blob):
        (root / "copy.vxck.meta").write_bytes(meta_blob)
        return load_copy("copy.vxck", load_model, ckpt_blob)

    return {
        "wav": ((root / "wav" / "utt00000.wav").read_bytes(),
                lambda blob: load_copy("copy.wav", read_wav, blob)),
        "vxck": (ckpt, lambda blob: load_model_copy(blob, meta)),
        "meta": (meta, lambda blob: load_model_copy(ckpt, blob)),
        "manifest": (open(manifest, "rb").read(),
                     lambda blob: load_copy("copy.tsv", read_manifest, blob)),
        "eval.tsv": ((root / "eval.tsv").read_bytes(),
                     lambda blob: load_copy("copy_eval.tsv", read_eval_tsv, blob)),
    }


def wav_path_spans(manifest):
    """Byte ranges of the WAV path field, the second of each manifest line."""
    spans, start = [], 0
    for line in manifest.split(b"\n"):
        fields = line.split(b"\t")
        if len(fields) > 1:
            lo = start + len(fields[0]) + 1
            spans.append((lo, lo + len(fields[1])))
        start += len(line) + 1
    return spans


def damaged(blob):
    """A strict prefix of blob, or blob with 1 to 4 bytes XORed with nonzero
    values; each comes with the positions it changed."""
    n = len(blob)

    def flip(edits):
        out = bytearray(blob)
        for i, x in edits:
            out[i] ^= x
        return bytes(out), [i for i, _ in edits]

    cuts = st.integers(0, n - 1).map(lambda k: (blob[:k], []))
    flips = st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, 255)),
                     min_size=1, max_size=4).map(flip)
    return st.one_of(cuts, flips)


@pytest.mark.parametrize("fmt", ["wav", "vxck", "meta", "manifest", "eval.tsv"])
@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_damaged_file_loads_or_fails_closed(files, fmt, data):
    intact, load = files[fmt]
    blob, changed = data.draw(damaged(intact))
    try:
        load(blob)
    except (MalformedHeader, UnsupportedEncoding):
        pass
    except FileNotFoundError:
        spans = wav_path_spans(intact) if fmt == "manifest" else []
        assert any(lo <= i < hi for i in changed for lo, hi in spans)



def assert_writes_back(w, path):
    """write_wav writes w, and it reads back with the same samples and rate."""
    write_wav(w, path)
    back = read_wav(path)
    assert back.sample_rate == w.sample_rate
    assert np.array_equal(back.samples, w.samples)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_damaged_wav_that_loads_writes_back(files, tmp_path_factory, data):
    intact, load = files["wav"]
    blob, _ = data.draw(damaged(intact))
    try:
        w = load(blob)
    except (MalformedHeader, UnsupportedEncoding):
        return
    assert_writes_back(w, tmp_path_factory.getbasetemp() / "written_back.wav")


def test_wav_with_a_changed_header_byte_that_loads_writes_back(files, tmp_path):
    """Each byte of the 44-byte header XORed with 0x01, 0x80 or 0xFF: among
    them, a sample rate of 2^31 Hz or more, whose byte rate no header holds."""
    intact, load = files["wav"]
    for i in range(44):
        for x in (0x01, 0x80, 0xFF):
            blob = bytearray(intact)
            blob[i] ^= x
            try:
                w = load(bytes(blob))
            except (MalformedHeader, UnsupportedEncoding):
                continue
            assert_writes_back(w, tmp_path / "written_back.wav")
