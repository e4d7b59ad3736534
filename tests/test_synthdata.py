import os
import re
from dataclasses import replace

import numpy as np
import pytest

from voxtag import synthdata
from voxtag.audio import Waveform, harmonic_rows, synth_harmonic
from voxtag.dsp import estimate_f0_contour, logmel_features, voiced_median
from voxtag.errors import InvalidSpec, MalformedHeader
from voxtag.model import pool4
from voxtag.perturb import SpeakerGender
from voxtag.synthdata import (F_PEAKS, GENDERED_STEMS, M_PEAKS, MAX_GENDERED, MAX_LEN, MIN_LEN,
                              NEUTRAL_TOKENS, SAMPLE_RATE, SynthSpec, build_vocabulary,
                              gendered_form, generate_corpus, grammar_tokens,
                              read_manifest, synth_utterance, token_peaks,
                              write_manifest)


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(SynthSpec(n_utterances=60, seed=7))


def test_grammar_size_and_forms():
    tokens = grammar_tokens()
    assert len(tokens) == len(NEUTRAL_TOKENS) + 2 * len(GENDERED_STEMS)
    assert gendered_form("amat", SpeakerGender.F) == "amata"
    assert gendered_form("amat", SpeakerGender.M) == "amato"
    assert "amata" in tokens and "amato" in tokens
    vocab = build_vocabulary()
    assert vocab.encode(["il"])[0] >= 5  # after the reserved ids


def test_spec_validation():
    with pytest.raises(InvalidSpec):
        SynthSpec(n_utterances=0)
    with pytest.raises(InvalidSpec):
        SynthSpec(n_utterances=1, gender_split=1.0)
    for duration in (0.0, 1e-5, 0.5 / SAMPLE_RATE):
        with pytest.raises(InvalidSpec, match=f"token_duration {duration} s holds no sample"):
            SynthSpec(n_utterances=1, token_duration=duration)
    SynthSpec(n_utterances=1, token_duration=0.6 / SAMPLE_RATE)  # rounds to one sample
    for duration in (float("inf"), float("nan")):
        with pytest.raises(InvalidSpec, match=f"token_duration {duration} is not finite"):
            SynthSpec(n_utterances=1, token_duration=duration)


def test_sentence_shape(corpus):
    utterances, _ = corpus
    for utt in utterances:
        assert MIN_LEN <= len(utt.target_tokens) <= MAX_LEN
        gendered = [t for t in utt.target_tokens if t not in NEUTRAL_TOKENS]
        assert 1 <= len(gendered) <= MAX_GENDERED
        suffix = "a" if utt.gender is SpeakerGender.F else "o"
        assert all(t.endswith(suffix) for t in gendered)
        # the spoken side carries the bare stems, not the gendered endings
        assert len(utt.source_tokens) == len(utt.target_tokens)
        for src, tgt in zip(utt.source_tokens, utt.target_tokens):
            assert src == tgt or tgt == src + suffix


def test_references_differ_only_at_gendered_slots(corpus):
    _, entries = corpus
    for e in entries:
        assert len(e.reference) == len(e.wrong_reference)
        swap = dict(e.term_pairs)
        assert all(w == swap.get(r, r)
                   for r, w in zip(e.reference, e.wrong_reference))
        assert any(r != w for r, w in zip(e.reference, e.wrong_reference))


def test_gender_split_is_binomial():
    utterances, _ = generate_corpus(SynthSpec(n_utterances=400, seed=1))
    n_f = sum(u.gender is SpeakerGender.F for u in utterances)
    # Binomial(400, 0.3): mean 120, std ~9.2; allow 4 sigma.
    assert abs(n_f - 120) < 37


def test_f0_medians_separate_at_170hz(corpus):
    utterances, _ = corpus
    for utt in utterances:
        med = voiced_median(estimate_f0_contour(utt.waveform))
        if utt.gender is SpeakerGender.F:
            assert med > 170.0
        else:
            assert med < 170.0


def test_waveform_length_tracks_sentence(corpus):
    utterances, _ = corpus
    spec = SynthSpec(n_utterances=60, seed=7)
    for utt in utterances[:10]:
        expected = len(utt.source_tokens) * int(round(spec.token_duration
                                                      * SAMPLE_RATE))
        assert len(utt.waveform.samples) == expected


def test_token_peaks_deterministic_and_high_band():
    for token in grammar_tokens():
        peaks = token_peaks(token)
        assert peaks == token_peaks(token)
        for hz, _gain in peaks:
            assert hz >= 1500.0  # above the gendered formant region


def test_generation_is_deterministic():
    a, ea = generate_corpus(SynthSpec(n_utterances=8, seed=42))
    b, eb = generate_corpus(SynthSpec(n_utterances=8, seed=42))
    assert ea == eb
    for ua, ub in zip(a, b):
        assert ua.target_tokens == ub.target_tokens
        assert ua.gender is ub.gender
        np.testing.assert_array_equal(ua.waveform.samples, ub.waveform.samples)


def test_manifest_roundtrip(tmp_path, corpus):
    utterances, _ = corpus
    path = write_manifest(utterances[:5], tmp_path / "a")
    loaded = read_manifest(path)
    assert len(loaded) == 5
    for orig, back in zip(utterances, loaded):
        assert back.id == orig.id
        assert back.gender is orig.gender
        assert back.source_tokens == orig.source_tokens
        assert back.target_tokens == orig.target_tokens
        # 16-bit PCM roundtrip
        np.testing.assert_allclose(back.waveform.samples, orig.waveform.samples,
                                   atol=1.0 / 32767)

    # Writing what was read goes only under the new directory: the source
    # WAVs are not touched, and the new manifest names its own copies.
    sources = sorted((tmp_path / "a" / "wav").iterdir())
    before = [(p.read_bytes(), p.stat().st_mtime_ns) for p in sources]
    again = read_manifest(write_manifest(loaded, tmp_path / "b"))
    assert [(p.read_bytes(), p.stat().st_mtime_ns) for p in sources] == before
    wav_paths = [line.split("\t")[1] for line in
                 (tmp_path / "b" / "manifest.tsv").read_text(encoding="utf-8").splitlines()]
    assert wav_paths == [str(tmp_path / "b" / "wav" / f"{u.id}.wav") for u in loaded]
    for orig, back in zip(loaded, again):
        np.testing.assert_array_equal(back.waveform.samples, orig.waveform.samples)


@pytest.mark.parametrize("sep", ["\t", "\n", "\r"])
def test_write_manifest_refuses_a_path_it_cannot_record(tmp_path, monkeypatch, corpus, sep):
    """WAV paths are recorded absolute, so a tab or line break in the working
    directory would split a manifest line; the write fails before any file."""
    work = tmp_path / f"a{sep}b"
    work.mkdir()
    monkeypatch.chdir(work)
    with pytest.raises(ValueError, match="cannot record a path holding a tab or line break"):
        write_manifest(corpus[0][:1], "out")
    assert list(work.iterdir()) == []


@pytest.mark.parametrize("corrupt, message", [
    (lambda f: f[:3], "3 fields, expected 5"),
    (lambda f: f + ["extra"], "6 fields, expected 5"),
    (lambda f: f[:2] + ["X"] + f[3:], "gender 'X' is not F or M"),
    (lambda f: f[:1] + [f[1] + "\0"] + f[2:], "wav path holds a NUL byte"),
    (lambda f: f[:1] + [os.path.dirname(f[1])] + f[2:],
     "wav path is not a file (Is a directory)"),
    (lambda f: f[:1] + [os.path.join(f[1], "u0.wav")] + f[2:],
     "wav path is not a file (Not a directory)"),
    (lambda f: ["utt00000"] + f[1:], "duplicate utterance id 'utt00000' (first on line 1)"),
    (lambda f: ["../../u1"] + f[1:], "utterance id '../../u1' is not a file name"),
    (lambda f: ["u\0"] + f[1:], "utterance id 'u\\x00' is not a file name"),
])
def test_read_manifest_names_file_and_line(tmp_path, corpus, corrupt, message):
    path = write_manifest(corpus[0][:3], tmp_path)
    lines = open(path, encoding="utf-8").read().splitlines()
    lines[1] = "\t".join(corrupt(lines[1].split("\t")))
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")
    with pytest.raises(MalformedHeader, match=re.escape(f"manifest.tsv:2: {message}")):
        read_manifest(path)


def test_read_manifest_skips_blank_lines_and_counts_them(tmp_path, corpus):
    """Blank lines are skipped, and a later bad line is named by its line
    number in the file."""
    path = write_manifest(corpus[0][:2], tmp_path)
    lines = open(path, encoding="utf-8").read().splitlines()
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n" + lines[0] + "\n\n" + lines[1] + "\n\n")
    assert [u.id for u in read_manifest(path)] == [corpus[0][0].id, corpus[0][1].id]
    with open(path, "a", encoding="utf-8") as f:
        f.write("u9\tx.wav\n")
    with pytest.raises(MalformedHeader, match=re.escape("manifest.tsv:6: 2 fields, expected 5")):
        read_manifest(path)


def test_pooled_is_pool4_of_logmels_computed_once():
    utt = generate_corpus(SynthSpec(n_utterances=1, seed=4))[0][0]
    first = utt.pooled
    assert utt.pooled is first
    np.testing.assert_array_equal(first, pool4(logmel_features(utt.waveform).frames))
    w2 = Waveform(utt.waveform.samples[::-1].copy(), utt.waveform.sample_rate)
    other = replace(utt, waveform=w2)
    np.testing.assert_array_equal(other.pooled, pool4(logmel_features(w2).frames))
    assert not np.array_equal(other.pooled, first)
    assert utt.pooled is first


def _reference_synth_harmonic(f0, formant_peaks, duration, sample_rate=16000):
    """synth_harmonic as one signal per call: the reference that the shared
    multi-row kernel must reproduce bit for bit."""
    n = int(round(duration * sample_rate))
    t = np.arange(n) / sample_rate
    nyquist = sample_rate / 2.0
    harmonics = np.arange(1, int(nyquist // f0) + 1) * f0
    harmonics = harmonics[harmonics < nyquist]
    if formant_peaks:
        envelope = 0.4 / (1.0 + (harmonics / 3000.0) ** 2)
        for hz, gain in formant_peaks:
            bw = max(80.0, 0.12 * hz)
            envelope = envelope + gain * np.exp(-0.5 * ((harmonics - hz) / bw) ** 2)
    else:
        envelope = np.ones_like(harmonics)
    out = np.zeros(n)
    for hz, gain in zip(harmonics, envelope):
        out += gain * np.sin(2.0 * np.pi * hz * t)
    peak = np.max(np.abs(out))
    if peak > 0:
        out *= 0.9 / peak
    return Waveform(out, sample_rate)


def _reference_synth_utterance(f0, gender_peaks, source_tokens, token_duration):
    """synth_utterance as one synth_harmonic call per token."""
    n_seg = int(round(token_duration * SAMPLE_RATE))
    fade = min(int(0.005 * SAMPLE_RATE), n_seg // 4)
    window = np.ones(n_seg)
    if fade > 0:
        window[:fade] = np.linspace(0.0, 1.0, fade)
        window[-fade:] = np.linspace(1.0, 0.0, fade)
    segments = []
    for token in source_tokens:
        peaks = tuple(gender_peaks) + token_peaks(token)
        seg = _reference_synth_harmonic(f0, peaks, token_duration, SAMPLE_RATE)
        segments.append(seg.samples * window)
    return Waveform(np.concatenate(segments), SAMPLE_RATE)


# Segments of 16 samples (a 4-sample fade), 208, 960, 594 (rounded up from
# 593.6) and 597, an odd count.
@pytest.mark.parametrize("f0", [50.0, 130.0, 250.0, 500.0])
@pytest.mark.parametrize("token_duration", [0.001, 0.013, 0.06, 0.0371, 0.0373])
def test_synthesis_equals_per_token_reference(f0, token_duration):
    tokens = grammar_tokens()
    for n_tokens in (1, 12):
        source = [tokens[(7 * k) % len(tokens)] for k in range(n_tokens)]
        for gender_peaks in ((), M_PEAKS):
            got = synth_utterance(f0, gender_peaks, source, token_duration).samples
            want = _reference_synth_utterance(f0, gender_peaks, source, token_duration).samples
            assert np.array_equal(got, want)
    for peaks in ([], list(M_PEAKS)):
        assert np.array_equal(synth_harmonic(f0, peaks, token_duration).samples,
                              _reference_synth_harmonic(f0, peaks, token_duration).samples)


# Row by row, the batched synthesiser against the one-signal reference: peak
# sets of 0, 2 and 4 peaks, one row or several, and one harmonic (at 1 kHz,
# f0 400 Hz) as well as many.
@pytest.mark.parametrize("f0, sample_rate", [(50.0, 16000), (173.3, 16000), (400.0, 1000)])
@pytest.mark.parametrize("n_peaks", [0, 2, 4])
@pytest.mark.parametrize("n_rows", [1, 5])
def test_harmonic_rows_equal_the_one_signal_reference(f0, sample_rate, n_peaks, n_rows):
    tokens = grammar_tokens()
    peak_sets = [(token_peaks(tokens[3 * r]) + F_PEAKS)[:n_peaks] for r in range(n_rows)]
    for duration in (0.0031, 0.05):
        rows = harmonic_rows(f0, peak_sets, duration, sample_rate)
        assert rows.shape == (n_rows, int(round(duration * sample_rate)))
        for row, peaks in zip(rows, peak_sets):
            want = _reference_synth_harmonic(f0, peaks, duration, sample_rate).samples
            assert np.array_equal(row, want)


# Segments of 1, 2 and 3 samples (no fade), 5 (a 1-sample fade), 17 and 597.
@pytest.mark.parametrize("token_duration", [6e-5, 1.2e-4, 1.9e-4, 3.1e-4, 1.06e-3, 0.0373])
def test_short_and_odd_segments_equal_the_per_token_reference(token_duration):
    source = grammar_tokens()[:7]
    for f0, peaks in ((130.0, M_PEAKS), (240.0, F_PEAKS)):
        got = synth_utterance(f0, peaks, source, token_duration).samples
        want = _reference_synth_utterance(f0, peaks, source, token_duration).samples
        assert len(got) == 7 * round(token_duration * SAMPLE_RATE)
        assert np.array_equal(got, want)


def test_generated_corpus_equals_the_per_token_reference(monkeypatch):
    calls = []

    def recorded(*args):
        calls.append(args)
        return synth_utterance(*args)

    monkeypatch.setattr(synthdata, "synth_utterance", recorded)
    utterances, _ = generate_corpus(SynthSpec(n_utterances=40, seed=11))
    assert len(calls) == len(utterances) == 40
    for utt, (f0, peaks, source, token_duration) in zip(utterances, calls):
        assert source == utt.source_tokens
        want = _reference_synth_utterance(f0, peaks, source, token_duration).samples
        assert np.array_equal(utt.waveform.samples, want)


@pytest.mark.parametrize("n_seg", [2, 3, 5, 16, 597, 960])
def test_fade_ramps_cached_read_only(n_seg):
    fade_in, fade_out = synthdata._fade_ramps(n_seg)
    assert synthdata._fade_ramps(n_seg)[0] is fade_in
    fade = min(int(0.005 * SAMPLE_RATE), n_seg // 4)
    assert np.array_equal(fade_in, np.linspace(0.0, 1.0, fade))
    assert np.array_equal(fade_out, np.linspace(1.0, 0.0, fade))
    for ramp in (fade_in, fade_out):
        assert not ramp.flags.writeable
        if len(ramp):
            with pytest.raises(ValueError):
                ramp[0] = 0.5
