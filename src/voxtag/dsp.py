"""Pitch tracking, voiced statistics and log-mel feature extraction."""

import functools
from dataclasses import dataclass, field

import numpy as np

from .audio import Waveform
from .errors import AllUnvoiced, TooShort

F0_MIN = 50.0
F0_MAX = 500.0
VOICING_THRESHOLD = 0.3
RMS_GATE = 1e-4
N_MELS = 80
MEL_LO_HZ = 20.0  # the lower edge of the lowest mel filter
LOG_FLOOR = 1e-10
# the band envelope_peak_hz searches for the spectral-envelope maximum
ENVELOPE_LO_HZ, ENVELOPE_HI_HZ = 200.0, 4000.0


@dataclass(frozen=True, eq=False)
class F0Contour:
    """Per-frame fundamental frequency track; 0.0 marks unvoiced frames. Its
    arrays are read-only: a waveform's contour is shared by every caller.
    estimate_f0_contour sets marks, the tracked waveform's pitch marks (None
    when no frame is voiced)."""

    frame_hz: np.ndarray
    hop: int
    frame_len: int
    marks: object = field(default=None, init=False, repr=False)

    def __post_init__(self):
        frame_hz = np.array(self.frame_hz, dtype=np.float64)
        frame_hz.setflags(write=False)
        object.__setattr__(self, "frame_hz", frame_hz)

    @property
    def voiced(self):
        return self.frame_hz[self.frame_hz > 0]

    @functools.cached_property
    def median(self):
        """Median f0 over voiced frames only, computed once per contour."""
        voiced = self.voiced
        if len(voiced) == 0:
            raise AllUnvoiced("no voiced frame in contour")
        return float(np.median(voiced))

    def knots(self):
        """Centre sample and f0 of each voiced frame: the knots of the f0 track."""
        voiced = self.frame_hz > 0
        return self.hop * np.flatnonzero(voiced) + self.frame_len // 2, self.frame_hz[voiced]


@dataclass
class FeatureMatrix:
    """T x 80 log-mel energies, mean/variance normalized per utterance."""

    frames: np.ndarray


def frame_matrix(x, frame_len, hop):
    """Read-only (n_frames, frame_len) view of the contiguous 1-D array x
    whose row i starts at i * hop; an x shorter than one frame raises
    ValueError. It is the view sliding_window_view(x, frame_len)[::hop],
    made directly without that function's per-call checks and slicing."""
    if len(x) < frame_len:
        raise ValueError(f"{len(x)} samples hold no frame of {frame_len}")
    shape = ((len(x) - frame_len) // hop + 1, frame_len)
    frames = np.ndarray(shape, x.dtype, x, 0, (hop * x.itemsize, x.itemsize))
    frames.flags.writeable = False
    return frames


def _parabolic_peak(values, i):
    """Refine each row's discrete maximum values[row, i[row]] by fitting a
    parabola through its neighbours; returns the fractional positions."""
    n = values.shape[1]
    rows = np.arange(len(values))
    a = values[rows, np.maximum(i - 1, 0)]
    b = values[rows, i]
    c = values[rows, np.minimum(i + 1, n - 1)]
    denom = a - 2 * b + c
    fit = (i > 0) & (i < n - 1) & (np.abs(denom) >= 1e-12)
    shift = np.zeros(len(values))
    shift[fit] = np.clip(0.5 * (a - c)[fit] / denom[fit], -0.5, 0.5)
    return i + shift


def _whiten(frames, keep, cut):
    """Divide each frame's spectrum by its cepstrally-smoothed envelope (the
    first `keep` quefrencies) and zero it from bin `cut` up.

    Whitening keeps a dominant formant from turning the frame into a
    near-pure tone; the lowpass (1.2 kHz in the tracker) keeps fractional
    periods from decorrelating the high band.
    """
    fspec = np.fft.rfft(frames, axis=1)
    ceps = np.fft.irfft(np.log(np.maximum(np.abs(fspec), 1e-12)), axis=1)
    ceps[:, keep:ceps.shape[1] - keep] = 0.0
    env = np.exp(np.fft.rfft(ceps, axis=1).real)
    white = fspec / np.maximum(env, 1e-3 * env.max(axis=1, keepdims=True))
    white[:, cut:] = 0.0
    return np.fft.irfft(white, frames.shape[1], axis=1)


def _normalized_autocorrelation(frames, n_fft, lags):
    """r(tau) of each frame at the given lags, via FFT, normalized by the
    energies of the overlapping parts frame[:-tau] and frame[tau:]."""
    spec = np.fft.rfft(frames, n_fft, axis=1)
    spec *= np.conj(spec)  # in place: the largest array of the pass
    raw = np.fft.irfft(spec, axis=1)[:, lags]
    sq = np.cumsum(frames ** 2, axis=1)
    sq = np.concatenate((np.zeros((len(sq), 1)), sq), axis=1)
    head = sq[:, frames.shape[1] - lags]   # energy of frame[:-lag]
    tail = sq[:, -1:] - sq[:, lags]        # energy of frame[lag:]
    denom = np.sqrt(head * tail)
    return np.where(denom > 0, raw / np.maximum(denom, 1e-20), 0.0)


def estimate_f0_contour(w: Waveform) -> F0Contour:
    """Normalized-autocorrelation pitch tracker over [F0_MIN, F0_MAX], on
    frames two F0_MIN periods long and 10 ms apart.

    Frames with peak correlation below the voicing threshold or RMS below
    the gate are marked unvoiced (0.0). Each step is one 2-D array operation
    over all of the waveform's frames, so working memory grows with duration.

    The contour and its pitch marks are computed once per waveform and kept
    on it; later calls return that object.
    """
    if w._f0 is not None:
        return w._f0
    sr = w.sample_rate
    frame_len = int(round(2 * sr / F0_MIN))
    hop = max(1, sr // 100)
    x = w.samples
    if len(x) < frame_len:
        raise TooShort(f"waveform of {len(x)} samples shorter than one frame ({frame_len})")

    lag_min = max(2, int(np.floor(sr / F0_MAX)))
    lag_max = int(np.ceil(sr / F0_MIN))
    frames = frame_matrix(x, frame_len, hop)
    out = np.zeros(len(frames))

    n_fft = 1 << int(np.ceil(np.log2(2 * frame_len)))
    lags = np.arange(lag_min, lag_max + 1)
    keep = max(4, lag_min // 2)
    cut = int(1200.0 * frame_len / sr)
    block = frames - frames.mean(axis=1, keepdims=True)
    loud = np.sqrt(np.mean(block ** 2, axis=1)) >= RMS_GATE
    if loud.any():
        r = _normalized_autocorrelation(_whiten(block[loud], keep, cut), n_fft, lags)
        rmax = r.max(axis=1)
        # a periodic signal correlates at every multiple of its period, and an
        # integer multiple can beat a fractional true period; take the shortest
        # local maximum that is nearly as strong as the global one
        mid = r[:, 1:-1]
        strong = (mid >= r[:, :-2]) & (mid >= r[:, 2:]) & (mid >= 0.9 * rmax[:, None])
        best = np.where(strong.any(axis=1), strong.argmax(axis=1) + 1, r.argmax(axis=1))
        f0 = np.clip(sr / (lag_min + _parabolic_peak(r, best)), F0_MIN, F0_MAX)
        voiced = rmax >= VOICING_THRESHOLD
        out[np.flatnonzero(loud)[voiced]] = f0[voiced]

    contour = F0Contour(out, hop=hop, frame_len=frame_len)
    if len(contour.voiced):
        # a mark per unit of the per-sample f0 track's accumulated phase puts
        # marks one local period apart, as overlap-add needs, whatever the
        # waveform's peaks; x spans two periods at F0_MIN, so a mark is placed
        phase = np.cumsum(np.interp(np.arange(len(x)), *contour.knots())) / sr
        marks = np.searchsorted(phase, np.arange(0.5, phase[-1]))
        marks.setflags(write=False)
        object.__setattr__(contour, "marks", marks)
    object.__setattr__(w, "_f0", contour)
    return contour


def voiced_median(c: F0Contour) -> float:
    """Median f0 over voiced frames only (F0Contour.median)."""
    return c.median


def hz_to_mel(hz):
    return 2595.0 * np.log10(1.0 + np.asarray(hz) / 700.0)


def mel_to_hz(mel):
    return 700.0 * (10.0 ** (np.asarray(mel) / 2595.0) - 1.0)


@functools.lru_cache(maxsize=256)
def hann(n):
    """np.hanning(n). Every frame and PSOLA grain is windowed by one, so
    windows are cached; a cached window is shared, so it is read-only."""
    window = np.hanning(n)
    window.setflags(write=False)
    return window


@functools.lru_cache(maxsize=16)
def mel_filterbank(sample_rate, n_fft):
    """Triangular mel filters spanning [MEL_LO_HZ, Nyquist], shape
    (N_MELS, n_fft//2+1). Every log-mel extraction asks for one, so
    filterbanks are cached; a cached filterbank is shared, so it is read-only."""
    f_hi = sample_rate / 2.0
    mel_pts = np.linspace(hz_to_mel(MEL_LO_HZ), hz_to_mel(f_hi), N_MELS + 2)
    hz_pts = mel_to_hz(mel_pts)
    bins = hz_pts * n_fft / sample_rate
    fb = np.zeros((N_MELS, n_fft // 2 + 1))
    for m in range(N_MELS):
        lo, mid, hi = bins[m], bins[m + 1], bins[m + 2]
        k = np.arange(n_fft // 2 + 1)
        up = (k - lo) / max(mid - lo, 1e-9)
        down = (hi - k) / max(hi - mid, 1e-9)
        fb[m] = np.maximum(0.0, np.minimum(up, down))
    fb.setflags(write=False)
    return fb


def apply_cmvn_(frames):
    """Per-utterance, per-coefficient standardization; returns a new array and
    leaves frames unchanged. The frames are centred once, and the centred
    frames give both the variance and the output: bitwise frames.mean(0),
    frames.std(0) and (frames - mean) / std, as numpy computes them."""
    n = len(frames)
    mean = np.add.reduce(frames, 0)
    mean /= n
    centred = frames - mean
    var = np.add.reduce(centred * centred, 0)
    var /= n
    std = np.sqrt(var, out=var)
    std[std < 1e-8] = 1.0
    return np.divide(centred, std, out=centred)


def logmel_features(w: Waveform) -> FeatureMatrix:
    """80-dim log mel-filterbank features with per-utterance CMVN: 25 ms Hann
    windows, 10 ms hop."""
    sr = w.sample_rate
    frame_len = int(round(0.025 * sr))
    hop = int(round(0.010 * sr))
    x = w.samples
    if len(x) < frame_len:
        raise TooShort(f"waveform of {len(x)} samples shorter than one 25 ms frame")

    frames = frame_matrix(x, frame_len, hop) * hann(frame_len)
    spec = np.abs(np.fft.rfft(frames, n=frame_len, axis=1)) ** 2
    fb = mel_filterbank(sr, frame_len)
    mel = spec @ fb.T
    logmel = np.log(np.maximum(mel, LOG_FLOOR))
    return FeatureMatrix(apply_cmvn_(logmel))


def harmonic_windows(n_bins, bin_hz, f0):
    """Peak-search windows around the harmonics k*f0 below the top bin: an
    index matrix (row k - 1 for harmonic k) and a mask of the positions inside
    [max(1, c - half), min(n_bins, c + half + 1)) for centre bin c."""
    half = max(2, int(0.4 * f0 / bin_hz))
    # harmonic k_max lies past the top bin, and the centres never decrease, so
    # the centres below the top bin are a prefix of harmonics 1..k_max
    k_max = int((n_bins - 1) * bin_hz / f0) + 1
    centers = np.round(np.arange(1, k_max + 1) * f0 / bin_hz).astype(int)
    idx = centers[centers < n_bins - 1][:, None] + np.arange(-half, half + 1)
    return np.clip(idx, 0, n_bins - 1), (idx >= 1) & (idx < n_bins)


def envelope_peak_hz(w: Waveform, f0):
    """Frequency of the spectral-envelope maximum of a signal with fundamental
    f0, within [ENVELOPE_LO_HZ, ENVELOPE_HI_HZ].

    For harmonic signals the envelope is only sampled at multiples of f0, so
    the peak is located by a parabolic fit of log harmonic amplitudes around
    the strongest harmonic. f0 is given rather than tracked: single-formant
    signals are nearly pure tones and can defeat the tracker.
    """
    if not 0 < f0 < np.inf:
        raise ValueError(f"f0 must be finite and positive, got {f0}")
    n_fft = 1 << int(np.ceil(np.log2(max(4096, 8 * w.sample_rate / f0))))
    x = w.samples
    if len(x) < n_fft:
        x = np.pad(x, (0, n_fft - len(x)))
    spec = np.abs(np.fft.rfft(x[:n_fft] * hann(n_fft)))
    freqs = np.fft.rfftfreq(n_fft, 1.0 / w.sample_rate)

    idx, inside = harmonic_windows(len(spec), freqs[1], f0)
    band = slice(max(1, int(np.ceil(ENVELOPE_LO_HZ / f0))) - 1, int(ENVELOPE_HI_HZ / f0))
    idx, inside = idx[band], inside[band]
    if len(idx) == 0:
        raise ValueError("no harmonic inside the search band")
    # positions outside a window read -inf, so argmax returns the first
    # maximum inside it
    peaks = idx[np.arange(len(idx)), np.where(inside, spec[idx], -np.inf).argmax(axis=1)]
    amps = np.log(np.maximum(spec[peaks], 1e-20))
    hzs = freqs[peaks]
    i = int(np.argmax(amps))
    if 0 < i < len(amps) - 1:
        pos = _parabolic_peak(amps[None], np.array([i]))[0]
        return float(np.interp(pos, np.arange(len(hzs)), hzs))
    return float(hzs[i])
