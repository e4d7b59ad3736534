"""Opposite-gender voice perturbation: f0-median resampling, TD-PSOLA pitch
scaling and spectral-envelope (formant) warping."""

import bisect
import enum
from dataclasses import dataclass

import numpy as np

from .audio import Waveform
from .dsp import (RMS_GATE, estimate_f0_contour, frame_matrix, hann, harmonic_windows,
                  voiced_median)
from .errors import AllUnvoiced, OutOfRangeFactor, TooShort, ZeroSourceMedian


class SpeakerGender(enum.Enum):
    F = "F"
    M = "M"

    @property
    def opposite(self):
        return SpeakerGender.M if self is SpeakerGender.F else SpeakerGender.F


# per target gender: the (mean, std) in Hz of its f0 median, and its formant factor
TARGET_F0_HZ = {SpeakerGender.F: (250.0, 17.0), SpeakerGender.M: (140.0, 20.0)}
FORMANT_SCALE = {SpeakerGender.F: 1.2, SpeakerGender.M: 0.8}


@dataclass(frozen=True)
class PerturbConfig:
    p: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("p must be in [0, 1]")


def sample_target_median(target_gender: SpeakerGender, rng) -> float:
    """Draw a target f0 median from TARGET_F0_HZ[target_gender], redrawn until
    within mean +- 3 sigma so the quoted 99.7% ranges are hard bounds."""
    mean, std = TARGET_F0_HZ[target_gender]
    while True:
        value = rng.normal(mean, std)
        if abs(value - mean) <= 3.0 * std:
            return float(value)


def compute_alpha(source_median: float, target_median: float) -> float:
    if source_median <= 0:
        raise ZeroSourceMedian("source f0 median must be positive")
    return target_median / source_median


def _psola(x, sr, contour, alpha):
    """Pitch scaling by alpha with duration preserved.

    Resampling shifts pitch (and formants, undone later by the envelope warp)
    exactly; a pitch-synchronous overlap-add time stretch then restores the
    original duration. Stretching at constant pitch keeps neighbouring grains
    phase-coherent, which direct PSOLA loses at ratios far from 1. contour is
    x's own (estimate_f0_contour), whose marks are x's pitch marks.
    """
    n = len(x)
    marks = contour.marks
    if marks is None:
        raise AllUnvoiced("no voiced frame, cannot place pitch marks")

    # resample: y1[i] = x[alpha * i]; pitch and formants scale by alpha
    n1 = max(4, int(np.floor((n - 1) / alpha)) + 1)
    y1 = np.interp(alpha * np.arange(n1), np.arange(n), x)
    marks1 = np.round(marks / alpha).astype(int)
    gamma = n / n1
    # the grain at mark m advances by the source period at sample m * alpha,
    # over alpha. np.interp computes each position on its own, so evaluating
    # it at these positions only gives the values of a per-sample track
    at = np.minimum(np.round(marks1 * alpha), n - 1)
    steps = sr / np.interp(at, *contour.knots()) / alpha

    # grain positions are a scalar recurrence; each grain centred at output
    # sample s copies the resampled signal around the mark m nearest s / gamma.
    # The loop only places grains; their extents are array operations after it
    mark_list = marks1.tolist()
    step_list = steps.tolist()
    centres, nearest = [], []
    pos = float(marks1[0]) * gamma
    while pos < n:
        s = round(pos)
        t = s / gamma
        j = bisect.bisect_left(mark_list, t)
        if j == len(mark_list) or (j > 0 and t - mark_list[j - 1] <= mark_list[j] - t):
            j -= 1  # on a tie the lower mark, as argmin would take
        centres.append(s)
        nearest.append(j)
        pos += step_list[j]
    s = np.array(centres, dtype=np.intp)
    j = np.array(nearest, dtype=np.intp)
    m = marks1[j]
    # np.round, like round, rounds half to even
    p = np.maximum(2, np.round(steps[j])).astype(np.intp)
    lo_off = np.minimum(np.minimum(p, m), s)
    hi_off = np.minimum(np.minimum(p, n1 - m), n - s)
    kept = lo_off + hi_off > 2
    s, m, lo_off, hi_off, p = s[kept], m[kept], lo_off[kept], hi_off[kept], p[kept]

    # overlap-add every grain at once: bincount sums each output sample's
    # contributions in grain order, as adding grain by grain would
    length = lo_off + hi_off
    # with the grains laid end to end, element k is output sample k + shift[k];
    # a grain reads y1 m - s samples and its window table_start + p - s
    # samples further on
    shift = np.repeat(s - lo_off - (np.cumsum(length) - length), length)
    idx = np.arange(len(shift))
    idx += shift
    # grain windows: one hann(2p + 1) per half-length p, laid end to end
    half = sorted(set(p.tolist()))
    table = np.concatenate([hann(2 * q + 1) for q in half])
    table_start = np.cumsum([0] + [2 * q + 1 for q in half])[np.searchsorted(half, p)]
    # shift is read no more, so it holds each gather's positions in turn
    win = table[np.add(idx, np.repeat(table_start + p - s, length), out=shift)]
    grain = y1[np.add(idx, np.repeat(m - s, length), out=shift)]
    grain *= win
    out = np.bincount(idx, grain, n)
    norm = np.bincount(idx, win, n)

    covered = norm > 0.2
    np.divide(out, norm, out=out, where=covered)
    # gaps (edges, unvoiced stretches): naive stretch of the resampled signal
    gaps = np.flatnonzero(~covered)
    out[gaps] = y1[np.clip(np.round(gaps / gamma).astype(int), 0, n1 - 1)]
    return out


def _harmonic_envelope(mag, bin_hz, windows):
    """Log-linear envelope through the harmonic peak amplitudes of each frame
    (row) of mag, searching the harmonic windows of dsp.harmonic_windows."""
    n_bins = mag.shape[1]
    idx, inside = windows
    if len(idx) < 2:
        return np.repeat(np.maximum(mag.max(axis=1, keepdims=True), 1e-12), n_bins, axis=1)
    # positions outside a window read -inf, so argmax returns the first
    # maximum inside it
    cand = mag[:, idx]
    cand[:, ~inside] = -np.inf
    best = cand.argmax(axis=2)
    hz_pts = idx[np.arange(len(idx)), best] * bin_hz
    log_amp = np.log(np.maximum(np.take_along_axis(cand, best[..., None], 2)[..., 0], 1e-12))
    freqs = np.arange(n_bins) * bin_hz
    # one np.interp reads every row: row r's knots and bins move up by
    # r * span, a power of two at least four times the top bin. With bin_hz =
    # sr / 1024 at an integer rate, every shifted value and every difference
    # np.interp forms from them is exact, so each row reads what its own call
    # would. A flat knot a quarter span below each row and one half a span
    # above it hold the row's end values, as np.interp's edges do
    span = 2.0 ** np.ceil(np.log2(4 * freqs[-1] + 4))
    off = np.arange(len(mag))[:, None] * span
    knots = np.concatenate([off - span / 4, hz_pts + off, off + span / 2], axis=1)
    amps = np.concatenate([log_amp[:, :1], log_amp, log_amp[:, -1:]], axis=1)
    env = np.interp(freqs + off, knots.ravel(), amps.ravel())
    return np.exp(env, out=env)


def _stretch_rows(env, scale):
    """Each row of env read at bin b / scale, as np.interp(bins / scale, bins,
    row) would read it. On the unit bin grid the knot left of a position is its
    floor and the slope is the next bin's difference, so one gather does every
    row; positions at or past the last bin read the last bin."""
    n_bins = env.shape[1]
    at = np.arange(n_bins) / scale
    j = np.minimum(np.floor(at), n_bins - 2).astype(int)
    out = np.diff(env, axis=1)[:, j]
    out *= at - j
    out += env[:, j]
    out[:, at >= n_bins - 1] = env[:, -1:]
    return out


def _warp_gain(mag, scale, bin_hz, windows):
    """Per-bin gain that moves each frame's harmonic envelope from f to
    f*scale, clipped to [1e-3, 1e3]."""
    env = _harmonic_envelope(mag, bin_hz, windows)
    gain = _stretch_rows(env, scale)
    gain /= np.maximum(env, 1e-12, out=env)
    return np.clip(gain, 1e-3, 1e3, out=gain)


def _formant_warp(x, scale, sr, f0):
    """Stretch the spectral envelope by `scale` (a peak at f moves to f*scale),
    leaving the harmonic structure in place. f0 is the signal's (post-shift)
    median fundamental, used to sample the envelope at harmonic peaks."""
    n_fft = 1024
    hop = n_fft // 4
    window = hann(n_fft)
    pad = n_fft
    xp = np.zeros(len(x) + 2 * pad)
    xp[pad:pad + len(x)] = x
    bin_hz = sr / n_fft
    windows = harmonic_windows(n_fft // 2 + 1, bin_hz, f0)
    frames = frame_matrix(xp, n_fft, hop) * window
    spec = np.fft.rfft(frames, axis=1)
    # the frame arrays are hundreds of kB, and each fresh one costs page
    # faults, so work is done in place wherever an operand is read no more:
    # the frames are squared for the gate after their rfft
    loud = np.sqrt(np.mean(np.square(frames, out=frames), axis=1)) >= RMS_GATE
    # every frame's gain reads that frame alone, so all are computed and
    # frames below the gate keep their spectrum bit for bit
    gain = _warp_gain(np.abs(spec), scale, bin_hz, windows)
    np.multiply(spec, gain, out=spec, where=loud[:, None])
    warped = np.fft.irfft(spec, n_fft, axis=1)
    warped *= window

    # frame f covers output quarters f..f+3 (a quarter is one hop). Adding
    # phase q = 3, 2, 1, 0 adds frame b-3 first and frame b last into quarter
    # b, so each sample sums its frames in frame order.
    n_frames = len(frames)
    quarters = warped.reshape(n_frames, 4, hop)
    window_sq = (window ** 2).reshape(4, hop)
    out = np.zeros((n_frames + 3, hop))
    norm = np.zeros((n_frames + 3, hop))
    for q in (3, 2, 1, 0):
        out[q:q + n_frames] += quarters[:, q]
        norm[q:q + n_frames] += window_sq[q]
    keep = slice(pad, pad + len(x))
    return out.ravel()[keep] / np.maximum(norm.ravel()[keep], 1e-8)


def pitch_formant_shift(w: Waveform, alpha: float, formant_scale: float) -> Waveform:
    """Scale the f0 contour by alpha (TD-PSOLA) and the spectral envelope by
    formant_scale. Duration is preserved. w's f0 contour is tracked once per
    waveform (estimate_f0_contour keeps it on w), so repeated shifts of one
    waveform reuse it."""
    if not 0.25 <= alpha <= 4.0:
        raise OutOfRangeFactor(f"alpha {alpha} outside [0.25, 4]")
    if not 0.5 <= formant_scale <= 2.0:
        raise OutOfRangeFactor(f"formant_scale {formant_scale} outside [0.5, 2]")

    contour = estimate_f0_contour(w)
    y = _psola(w.samples, w.sample_rate, contour, alpha)
    # the resampling inside _psola scaled the envelope by alpha as well;
    # warp by formant_scale/alpha for a net envelope scale of formant_scale
    warp = formant_scale / alpha
    if abs(warp - 1.0) > 1e-9:
        f0_out = alpha * voiced_median(contour)
        y = _formant_warp(y, warp, w.sample_rate, f0_out)
    peak = np.max(np.abs(y))
    if peak > 1.0:
        y = y / peak
    return Waveform(y, w.sample_rate)


def apply_opposite(w: Waveform, speaker_gender: SpeakerGender, cfg: PerturbConfig, rng):
    """With probability cfg.p, shift the utterance toward the opposite gender's
    f0 distribution and scale its formants by that gender's FORMANT_SCALE.

    Returns (waveform, manipulated). A fresh decision is made on every call;
    callers invoke once per epoch per sample. An utterance with no f0 to shift
    (no voiced frame, or shorter than one tracker frame) is returned unchanged
    and counts as not manipulated.
    """
    if rng.random() >= cfg.p:
        return w, False
    target = speaker_gender.opposite
    try:
        source_median = voiced_median(estimate_f0_contour(w))
    except (AllUnvoiced, TooShort):
        return w, False
    target_median = sample_target_median(target, rng)
    alpha = float(np.clip(compute_alpha(source_median, target_median), 0.25, 4.0))
    return pitch_formant_shift(w, alpha, FORMANT_SCALE[target]), True
