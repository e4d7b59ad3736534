import re
import struct

import numpy as np
import pytest

from voxtag.audio import (MIN_SAMPLE_RATE, PCM_SCALE, Waveform, harmonic_rows, read_wav,
                          synth_harmonic, write_wav)
from voxtag.dsp import F0Contour, estimate_f0_contour, voiced_median
from voxtag.errors import InvalidF0, MalformedHeader, UnsupportedEncoding


def test_silence_roundtrip(tmp_path):
    w = Waveform(np.zeros(16000), 16000)
    path = tmp_path / "z.wav"
    write_wav(w, path)
    back = read_wav(path)
    assert back.sample_rate == 16000
    assert len(back) == 16000
    assert np.all(back.samples == 0.0)


def test_max_amplitude_normalization(tmp_path):
    path = tmp_path / "m.wav"
    write_wav(Waveform(np.array([1.0, -1.0]), 16000), path)
    back = read_wav(path)
    assert back.samples[0] == 32767 / PCM_SCALE
    assert back.samples[1] == -1.0


def test_full_scale_writes_the_int16_extremes(tmp_path):
    """Waveform clips on construction and its samples are read-only, so
    write_wav only clips the scaled ints: +1.0 * 32768 overflows int16."""
    for name, samples in (("unit", [1.0, -1.0]), ("beyond", [1.5, -2.0])):
        w = Waveform(np.array(samples), 16000)
        assert not w.samples.flags.writeable
        path = tmp_path / f"{name}.wav"
        write_wav(w, path)
        assert np.frombuffer(path.read_bytes()[44:], "<i2").tolist() == [32767, -32768]


def test_roundtrip_quantization_bound(tmp_path):
    rng = np.random.default_rng(0)
    for trial in range(5):
        w = Waveform(rng.uniform(-1, 1, 3000), 16000)
        path = tmp_path / f"r{trial}.wav"
        write_wav(w, path)
        back = read_wav(path)
        assert np.max(np.abs(back.samples - w.samples)) <= 1 / PCM_SCALE


def test_rejects_garbage(tmp_path):
    path = tmp_path / "bad.wav"
    path.write_bytes(b"not a wav file at all")
    with pytest.raises(MalformedHeader):
        read_wav(path)


def _wav_bytes(fmt_tag=1, channels=1, bits=16, sample_rate=16000):
    body = struct.pack("<IHHIIHH", 16, fmt_tag, channels, sample_rate, 32000, 2, bits)
    data = b"\x00\x00" * 4
    return (b"RIFF" + struct.pack("<I", 36 + len(data)) + b"WAVE"
            + b"fmt " + body + b"data" + struct.pack("<I", len(data)) + data)


@pytest.mark.parametrize("kwargs", [
    {"fmt_tag": 3},
    {"channels": 2},
    {"bits": 8},
])
def test_rejects_unsupported_encodings(tmp_path, kwargs):
    path = tmp_path / "enc.wav"
    path.write_bytes(_wav_bytes(**kwargs))
    with pytest.raises(UnsupportedEncoding):
        read_wav(path)


def test_synth_duration_and_f0():
    w = synth_harmonic(120.0, [], 1.0, 16000)
    assert len(w) == 16000
    assert abs(voiced_median(estimate_f0_contour(w)) - 120.0) <= 2.0


def test_synth_rejects_out_of_range_f0():
    with pytest.raises(InvalidF0):
        synth_harmonic(30.0, [], 0.5)
    with pytest.raises(InvalidF0):
        synth_harmonic(600.0, [], 0.5)


@pytest.mark.parametrize("duration", [1e-5, 0.0, -0.5])
def test_synth_rejects_duration_without_a_sample(duration):
    with pytest.raises(ValueError, match=f"duration {duration} s holds no sample at 16000 Hz"):
        synth_harmonic(150.0, [], duration)


@pytest.mark.parametrize("peak_sets", [
    [((650.0, 8.0), (950.0, 5.0)), ((650.0, 8.0),)],
    [(), ((800.0, 8.0),)],
    [((700.0, 8.0),), ((700.0, 8.0),), ((700.0, 8.0), (1900.0, 6.0), (4300.0, 6.0))],
])
def test_harmonic_rows_refuses_peak_sets_of_unequal_length(peak_sets):
    with pytest.raises(ValueError, match=r"formant-peak sets of unequal length: \[\d, \d\]"):
        harmonic_rows(150.0, peak_sets, 0.01, 16000)


def test_synth_envelope_maximum_at_formant():
    w = synth_harmonic(100.0, [(700.0, 8.0)], 0.5)
    n = 512
    spec = np.zeros(n // 2 + 1)
    for start in range(0, len(w) - n, n // 2):
        spec += np.abs(np.fft.rfft(w.samples[start:start + n] * np.hanning(n))) ** 2
    freqs = np.fft.rfftfreq(n, 1 / 16000)
    band = (freqs > 300) & (freqs < 3000)
    peak_hz = freqs[band][np.argmax(spec[band])]
    assert abs(peak_hz - 700.0) <= 16000 / 512  # one FFT bin at N=512


def test_synth_periodicity():
    f0, sr = 160.0, 16000
    w = synth_harmonic(f0, [], 0.5, sr)
    x = w.samples - np.mean(w.samples)
    lag = int(round(sr / f0))
    r = np.dot(x[:-lag], x[lag:]) / np.sqrt(np.dot(x[:-lag], x[:-lag]) * np.dot(x[lag:], x[lag:]))
    assert r > 0.95


def test_waveform_clips_on_construction():
    w = Waveform(np.array([2.0, -3.0, 0.5]), 8000)
    assert np.max(np.abs(w.samples)) <= 1.0


def test_rejects_zero_sample_rate(tmp_path):
    path = tmp_path / "rate.wav"
    path.write_bytes(_wav_bytes(sample_rate=0))
    with pytest.raises(MalformedHeader, match="sample rate"):
        read_wav(path)


@pytest.mark.parametrize("rate", [10, 40, 150, 999, 1000, 2000, 3999])
def test_rejects_sample_rate_below_floor(tmp_path, rate):
    """Below 4000 Hz the tracker reads many harmonic voices an octave off;
    3999 Hz is just below the floor."""
    path = tmp_path / "rate.wav"
    path.write_bytes(_wav_bytes(sample_rate=rate))
    with pytest.raises(UnsupportedEncoding,
                       match=f"sample rate {rate} Hz, expected at least 4000"):
        read_wav(path)


def test_loads_sample_rate_at_floor(tmp_path):
    assert MIN_SAMPLE_RATE == 4000
    path = tmp_path / "rate.wav"
    path.write_bytes(_wav_bytes(sample_rate=MIN_SAMPLE_RATE))
    w = read_wav(path)
    assert w.sample_rate == MIN_SAMPLE_RATE and len(w) == 4


@pytest.mark.parametrize("f0", [100.0, 150.0, 250.0, 400.0])
def test_tracker_reads_f0_at_floor(f0):
    """At the floor the tracker reads a voice with one formant at 2 f0 within
    0.5 Hz; at 3900 Hz it reads the 250 Hz one as 499.5 Hz."""
    w = synth_harmonic(f0, [(2 * f0, 8.0)], 0.7, sample_rate=MIN_SAMPLE_RATE)
    assert abs(voiced_median(estimate_f0_contour(w)) - f0) <= 0.5


def test_rejects_chunk_running_past_end_of_file(tmp_path):
    w = Waveform(np.linspace(-0.5, 0.5, 20), 16000)
    path = tmp_path / "w.wav"
    write_wav(w, path)
    blob = path.read_bytes()
    assert len(read_wav(path)) == 20
    cut_path = tmp_path / "cut.wav"
    for cut in range(len(blob)):
        cut_path.write_bytes(blob[:cut])
        with pytest.raises(MalformedHeader):
            read_wav(cut_path)
    cut_path.write_bytes(blob[:-6])
    with pytest.raises(MalformedHeader, match="data"):
        read_wav(cut_path)


@pytest.mark.parametrize("pad", [b"", b"\x00"], ids=["unpadded", "padded"])
def test_rejects_odd_sized_data_chunk(tmp_path, pad):
    """A 16-bit data chunk of an odd byte count holds a partial sample; it
    fails closed, with or without its RIFF pad byte, and is never truncated."""
    path = tmp_path / "w.wav"
    write_wav(Waveform(np.linspace(-0.5, 0.5, 1000), 16000), path)
    blob = path.read_bytes()
    assert blob[36:40] == b"data"
    odd = tmp_path / "odd.wav"
    odd.write_bytes(blob[:40] + struct.pack("<I", 1999) + blob[44:-1] + pad)
    with pytest.raises(MalformedHeader, match=f"^{re.escape(str(odd))}: data chunk of 1999 bytes"):
        read_wav(odd)


@pytest.mark.parametrize("chunk", [b"fmt ", b"data"])
def test_rejects_a_repeated_fmt_or_data_chunk(tmp_path, chunk):
    """A second fmt or data chunk fails closed instead of replacing the
    first: a 1000-sample WAV with a 2-sample data chunk appended does not
    read as 2 samples."""
    path = tmp_path / "w.wav"
    write_wav(Waveform(np.linspace(-0.5, 0.5, 1000), 16000), path)
    blob = path.read_bytes()
    extra = blob[12:36] if chunk == b"fmt " else b"data" + struct.pack("<I", 4) + b"\x01\x00" * 2
    assert extra.startswith(chunk)
    twice = tmp_path / "twice.wav"
    twice.write_bytes(b"RIFF" + struct.pack("<I", len(blob) - 8 + len(extra)) + blob[8:] + extra)
    message = f"{twice}: repeated {chunk!r} chunk"
    with pytest.raises(MalformedHeader, match=f"^{re.escape(message)}$"):
        read_wav(twice)


def _riff_size(blob, size):
    return blob[:4] + struct.pack("<I", size) + blob[8:]


@pytest.mark.parametrize("damage, message", [
    (lambda blob: blob + bytes(7), "RIFF size 2036, expected 2043 for a file of 2051 bytes"),
    (lambda blob: _riff_size(blob, 99999), "RIFF size 99999, expected 2036"),
    (lambda blob: _riff_size(blob, 10), "RIFF size 10, expected 2036"),
    (lambda blob: _riff_size(blob + bytes(7), 2043), "7 bytes after the last chunk"),
    # an odd-sized last chunk whose pad byte is missing
    (lambda blob: _riff_size(blob + b"LIST" + struct.pack("<I", 3) + b"abc", 2047),
     "last chunk lacks its pad byte"),
], ids=["junk-appended", "size-too-large", "size-too-small", "junk-counted", "pad-missing"])
def test_rejects_a_riff_size_or_tail_that_is_not_the_chunks(tmp_path, damage, message):
    """A 1000-sample WAV whose RIFF size does not count the bytes after it,
    that holds bytes after its last chunk, or whose last chunk lacks its pad
    byte, fails closed instead of reading as its 1000 samples."""
    path = tmp_path / "w.wav"
    write_wav(Waveform(np.linspace(-0.5, 0.5, 1000), 16000), path)
    bad = tmp_path / "bad.wav"
    bad.write_bytes(damage(path.read_bytes()))
    with pytest.raises(MalformedHeader, match=f"^{re.escape(str(bad))}: {re.escape(message)}"):
        read_wav(bad)


def test_rejects_a_fmt_chunk_shorter_than_16_bytes(tmp_path):
    blob = _wav_bytes()
    short = blob[:16] + struct.pack("<I", 14) + blob[20:34] + blob[36:]
    path = tmp_path / "short_fmt.wav"
    path.write_bytes(_riff_size(short, len(short) - 8))
    with pytest.raises(MalformedHeader, match=f"^{re.escape(str(path))}: truncated fmt chunk$"):
        read_wav(path)


@pytest.mark.parametrize("samples, rate, error, message", [
    (np.zeros((2, 3)), 16000, UnsupportedEncoding, "only mono"),
    (np.array([0.0, np.nan, 0.1]), 16000, ValueError, "non-finite"),
    (np.array([0.0, np.inf]), 16000, ValueError, "non-finite"),
    (np.zeros(4), 0, ValueError, "sample_rate must be positive"),
    (np.zeros(4), -16000, ValueError, "sample_rate must be positive"),
    (np.zeros(4), 16000.0, ValueError, "sample_rate must be an integer"),
    (np.zeros(4), True, ValueError, "sample_rate must be an integer"),
])
def test_waveform_rejects_invalid_construction(samples, rate, error, message):
    with pytest.raises(error, match=message):
        Waveform(samples, rate)


@pytest.mark.parametrize("make", [lambda: Waveform(np.zeros(4), 16000),
                                  lambda: F0Contour(np.zeros(4), 160, 640)],
                         ids=["waveform", "contour"])
def test_equality_and_hashing_go_by_identity(make):
    """Two objects of equal content are distinct; comparing, hashing and list
    membership neither compare their arrays nor raise."""
    a, b = make(), make()
    assert a == a and a != b
    assert hash(a) == hash(a) and len({a, b}) == 2
    assert a in [a] and a not in [b]
