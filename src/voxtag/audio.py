"""Mono 16-bit PCM audio container, WAV I/O and harmonic test-signal synthesis."""

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidF0, MalformedHeader, UnsupportedEncoding

PCM_SCALE = 32768.0
# the lowest sample rate read_wav accepts. Sweeping 1000-4000 Hz in 100 Hz
# steps, the pitch tracker read harmonic signals of 100, 150, 250 and 400 Hz
# within 0.5 Hz at 4000 Hz; below it, octave errors were common
MIN_SAMPLE_RATE = 4000


@dataclass(frozen=True, eq=False)
class Waveform:
    """Mono audio. Samples are float64 in [-1, 1]; immutable after construction."""

    samples: np.ndarray
    sample_rate: int
    # the default-analysis F0Contour, filled by dsp.estimate_f0_contour on its
    # first call: the samples never change, so neither does their f0
    _f0: object = field(default=None, init=False, repr=False)

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            raise UnsupportedEncoding("only mono (1-D) audio is supported")
        if not np.all(np.isfinite(samples)):
            raise ValueError("waveform contains non-finite samples")
        rate = self.sample_rate
        if isinstance(rate, bool) or not isinstance(rate, (int, np.integer)):
            raise ValueError(f"sample_rate must be an integer, got {rate!r}")
        if rate <= 0:
            raise ValueError("sample_rate must be positive")
        samples = np.clip(samples, -1.0, 1.0)
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)

    def __len__(self):
        return len(self.samples)


def read_wav(path) -> Waveform:
    """Read a RIFF/WAVE file. Only 16-bit PCM mono is accepted, with one fmt
    chunk and one data chunk."""
    with open(path, "rb") as f:
        data = f.read()
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise MalformedHeader(f"{path}: not a RIFF/WAVE file")

    fmt = None
    pcm_bytes = None
    pos = 12
    while pos + 8 <= len(data):
        chunk_id = data[pos:pos + 4]
        (chunk_size,) = struct.unpack_from("<I", data, pos + 4)
        if chunk_size > len(data) - pos - 8:
            raise MalformedHeader(f"{path}: {chunk_id!r} chunk declares {chunk_size} bytes, "
                                  f"{len(data) - pos - 8} present")
        body = data[pos + 8:pos + 8 + chunk_size]
        if (chunk_id == b"fmt " and fmt is not None
                or chunk_id == b"data" and pcm_bytes is not None):
            raise MalformedHeader(f"{path}: repeated {chunk_id!r} chunk")
        if chunk_id == b"fmt ":
            if len(body) < 16:
                raise MalformedHeader(f"{path}: truncated fmt chunk")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
        elif chunk_id == b"data":
            pcm_bytes = body
        pos += 8 + chunk_size + (chunk_size & 1)

    if fmt is None or pcm_bytes is None:
        raise MalformedHeader(f"{path}: missing fmt or data chunk")
    audio_format, channels, sample_rate, _, _, bits = fmt
    if audio_format != 1:
        raise UnsupportedEncoding(f"{path}: format tag {audio_format}, expected PCM (1)")
    if channels != 1:
        raise UnsupportedEncoding(f"{path}: {channels} channels, expected mono")
    if bits != 16:
        raise UnsupportedEncoding(f"{path}: {bits} bits/sample, expected 16")
    if sample_rate == 0:
        raise MalformedHeader(f"{path}: sample rate 0")
    if sample_rate < MIN_SAMPLE_RATE:
        raise UnsupportedEncoding(f"{path}: sample rate {sample_rate} Hz, "
                                  f"expected at least {MIN_SAMPLE_RATE}")
    if sample_rate >= 2 ** 31:
        raise UnsupportedEncoding(f"{path}: sample rate {sample_rate} Hz, whose 16-bit "
                                  "byte rate does not fit a WAV header")
    if len(pcm_bytes) % 2:
        raise MalformedHeader(f"{path}: data chunk of {len(pcm_bytes)} bytes "
                              "is not a whole number of 16-bit samples")
    (riff_size,) = struct.unpack_from("<I", data, 4)
    if riff_size != len(data) - 8:
        raise MalformedHeader(f"{path}: RIFF size {riff_size}, expected {len(data) - 8} "
                              f"for a file of {len(data)} bytes")
    if pos < len(data):
        raise MalformedHeader(f"{path}: {len(data) - pos} bytes after the last chunk")
    if pos > len(data):
        raise MalformedHeader(f"{path}: last chunk lacks its pad byte")

    ints = np.frombuffer(pcm_bytes, dtype="<i2")
    return Waveform(ints.astype(np.float64) / PCM_SCALE, sample_rate)


def write_wav(w: Waveform, path) -> None:
    """Write 16-bit PCM mono. The samples, in [-1, 1] since the Waveform was
    made, are scaled by 32768 and clipped to int16, so 1.0 writes 32767."""
    ints = np.clip(np.round(w.samples * PCM_SCALE), -32768, 32767).astype("<i2")
    pcm = ints.tobytes()
    byte_rate = w.sample_rate * 2
    header = b"RIFF" + struct.pack("<I", 36 + len(pcm)) + b"WAVE"
    header += b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, w.sample_rate, byte_rate, 2, 16)
    header += b"data" + struct.pack("<I", len(pcm))
    with open(path, "wb") as f:
        f.write(header + pcm)


def synth_harmonic(f0, formant_peaks, duration, sample_rate=16000) -> Waveform:
    """Sum of harmonics of f0 up to Nyquist, shaped by an envelope interpolated
    through formant_peaks [(hz, gain), ...], peak-normalized to 0.9."""
    return Waveform(harmonic_rows(f0, [formant_peaks], duration, sample_rate)[0], sample_rate)


def harmonic_rows(f0, peak_sets, duration, sample_rate) -> np.ndarray:
    """One synth_harmonic signal per formant-peak set, all at f0 and of one
    duration, as the rows of a (len(peak_sets), samples) array. The peak sets
    must be of one length, or ValueError is raised.

    Once per call, one np.sin call takes the sine of every harmonic's phase,
    a (harmonics, samples) product, and _envelope gives every row's gains.
    The rows are then summed harmonic by harmonic, each term a gain times a
    sine, so a row holds the same sums in the same order, and so the same
    bits, as a signal synthesised on its own; a matmul or einsum would
    reorder or fuse those sums."""
    if not 50.0 <= f0 <= 500.0:
        raise InvalidF0(f"f0 {f0} Hz outside [50, 500]")
    n = int(round(duration * sample_rate))
    if n < 1:
        raise ValueError(f"duration {duration} s holds no sample at {sample_rate} Hz")

    t = np.arange(n) / sample_rate
    nyquist = sample_rate / 2.0
    harmonics = np.arange(1, int(nyquist // f0) + 1) * f0
    harmonics = harmonics[harmonics < nyquist]
    gains = _envelope(harmonics, peak_sets)

    sines = np.multiply.outer(2.0 * np.pi * harmonics, t)
    np.sin(sines, out=sines)
    rows = np.zeros((len(gains), n))
    term = np.empty_like(rows)
    for k, sine in enumerate(sines):
        rows += np.multiply(gains[:, k, None], sine, out=term)
    peak = np.max(np.abs(rows), axis=1)
    rows *= np.divide(0.9, peak, out=np.ones_like(peak), where=peak > 0)[:, None]
    return rows


def _envelope(harmonics, peak_sets):
    """Gain of each harmonic under each formant-peak set, a (sets, harmonics)
    array; flat for sets without peaks. Sets of unequal length raise
    ValueError."""
    sizes = sorted({len(peaks) for peaks in peak_sets})
    if len(sizes) > 1:
        raise ValueError(f"formant-peak sets of unequal length: {sizes}")
    if sizes in ([], [0]):
        return np.ones((len(peak_sets), len(harmonics)))
    # (peaks, sets, 1) each, so the bumps are a (peaks, sets, harmonics) array
    hz, gain = np.asarray(peak_sets, dtype=np.float64).transpose(2, 1, 0)[..., None]
    # resonance-like envelope: gentle lowpass base plus a Gaussian bump
    # per formant, so the envelope maximum sits at the stated peak
    terms = np.empty((1 + len(hz), len(peak_sets), len(harmonics)))
    terms[0] = 0.4 / (1.0 + (harmonics / 3000.0) ** 2)
    bw = np.maximum(80.0, 0.12 * hz)
    np.multiply(gain, np.exp(-0.5 * ((harmonics - hz) / bw) ** 2), out=terms[1:])
    # with the peak axis outermost, the reduction adds whole slabs left to
    # right, base + bump 1 + bump 2 + ..., the order of one set on its own.
    # Only a lone gain (one set of one harmonic, so a sample rate below
    # 3 * f0) is reduced as a single line, which numpy sums pairwise, in
    # another order, from 7 peaks on.
    return np.add.reduce(terms, axis=0)
