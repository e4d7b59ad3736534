import numpy as np
import pytest

from voxtag.audio import Waveform, synth_harmonic
from voxtag.dsp import (
    F0_MAX,
    F0_MIN,
    RMS_GATE,
    VOICING_THRESHOLD,
    F0Contour,
    _parabolic_peak,
    apply_cmvn_,
    envelope_peak_hz,
    estimate_f0_contour,
    hann,
    harmonic_windows,
    logmel_features,
    mel_filterbank,
    voiced_median,
)
from voxtag.errors import AllUnvoiced, TooShort


def test_pure_sine_tracked():
    t = np.arange(16000) / 16000
    w = Waveform(0.5 * np.sin(2 * np.pi * 200 * t), 16000)
    c = estimate_f0_contour(w)
    voiced = c.voiced
    assert len(voiced) == len(c.frame_hz)  # every frame voiced
    assert np.all(np.abs(voiced - 200.0) <= 2.0)


def test_silence_unvoiced():
    c = estimate_f0_contour(Waveform(np.zeros(16000), 16000))
    assert np.all(c.frame_hz == 0.0)


def test_estimator_consistent_with_generator():
    w = synth_harmonic(120.0, [], 1.0)
    assert abs(voiced_median(estimate_f0_contour(w)) - 120.0) <= 2.0


def test_too_short_waveform():
    with pytest.raises(TooShort):
        estimate_f0_contour(Waveform(np.zeros(100), 16000))


def test_f0_contour_computed_once_per_waveform():
    """The default analysis is kept on the waveform and returned read-only;
    another waveform, even with equal samples, gets its own analysis."""
    from dataclasses import replace
    w = synth_harmonic(140.0, [(650.0, 8.0)], 0.3)
    c = estimate_f0_contour(w)
    assert estimate_f0_contour(w) is c
    with pytest.raises(ValueError):
        c.frame_hz[0] = 1.0
    for other in (Waveform(w.samples, w.sample_rate), replace(w)):
        d = estimate_f0_contour(other)
        assert d is not c
        assert np.array_equal(d.frame_hz, c.frame_hz)


def test_voiced_median_hand_cases():
    c = F0Contour(np.array([100.0, 110, 120, 0, 130, 140]), hop=160, frame_len=640)
    assert voiced_median(c) == 120.0
    assert voiced_median(F0Contour(np.array([0.0, 0, 250]), 160, 640)) == 250.0
    assert voiced_median(F0Contour(np.array([100.0, 200.0]), 160, 640)) == 150.0


def test_voiced_median_computed_once_per_contour():
    c = F0Contour(np.array([100.0, 0, 130, 140]), hop=160, frame_len=640)
    first = voiced_median(c)
    assert first == 130.0 and voiced_median(c) is first


def test_voiced_median_all_unvoiced():
    with pytest.raises(AllUnvoiced):
        voiced_median(F0Contour(np.zeros(5), 160, 640))


def test_voiced_median_permutation_and_unvoiced_insertion_invariance():
    rng = np.random.default_rng(3)
    values = rng.uniform(60, 400, 21)
    base = voiced_median(F0Contour(values, 160, 640))
    shuffled = rng.permutation(values)
    assert voiced_median(F0Contour(shuffled, 160, 640)) == base
    padded = np.concatenate([[0.0], values, [0.0, 0.0]])
    assert voiced_median(F0Contour(padded, 160, 640)) == base


def test_logmel_shape_one_second():
    w = synth_harmonic(150.0, [], 1.0, 16000)
    fm = logmel_features(w)
    assert fm.frames.shape == (98, 80)


def test_cmvn_standardizes():
    w = synth_harmonic(150.0, [(700.0, 5.0)], 1.0)
    fm = logmel_features(w)
    assert np.max(np.abs(fm.frames.mean(axis=0))) < 1e-5
    assert np.max(np.abs(fm.frames.var(axis=0) - 1.0)) < 1e-3


def test_cmvn_gain_invariance():
    rng = np.random.default_rng(5)
    noise = rng.uniform(-0.09, 0.09, 16000)
    a = logmel_features(Waveform(noise, 16000))
    b = logmel_features(Waveform(10 * noise, 16000))
    # clipping: scale kept within [-1, 1] so the log-gain is exactly additive
    assert np.max(np.abs(a.frames - b.frames)) < 1e-4


def test_cmvn_idempotent():
    w = synth_harmonic(180.0, [(650.0, 4.0)], 0.5)
    fm = logmel_features(w)
    again = apply_cmvn_(fm.frames)
    assert np.max(np.abs(again - fm.frames)) < 1e-5


@pytest.mark.parametrize("T", [1, 2, 3, 54, 120])
def test_cmvn_is_bitwise_the_mean_std_formula(T):
    """apply_cmvn_ centres once, yet its output is bitwise the
    frames.mean / frames.std formula, a constant column's unit divisor
    included, and it leaves its input unchanged."""
    rng = np.random.default_rng(T)
    frames = rng.normal(size=(T, 80)) * rng.uniform(0.5, 20.0, 80) + rng.uniform(-30.0, 5.0, 80)
    frames[:, 7] = -4.25
    before = frames.tobytes()
    mean = frames.mean(axis=0)
    std = frames.std(axis=0)
    std = np.where(std < 1e-8, 1.0, std)
    assert apply_cmvn_(frames).tobytes() == ((frames - mean) / std).tobytes()
    assert frames.tobytes() == before


def test_logmel_too_short():
    with pytest.raises(TooShort):
        logmel_features(Waveform(np.zeros(100), 16000))


def _loop_parabolic_peak(values, i):
    if i <= 0 or i >= len(values) - 1:
        return float(i)
    a, b, c = values[i - 1], values[i], values[i + 1]
    denom = a - 2 * b + c
    if abs(denom) < 1e-12:
        return float(i)
    return i + float(np.clip(0.5 * (a - c) / denom, -0.5, 0.5))


def _loop_f0_contour(w):
    """The per-frame tracker that the frame-batched one replaced, kept as the
    reference."""
    sr = w.sample_rate
    frame_len = int(round(2 * sr / F0_MIN))
    hop = max(1, sr // 100)
    x = w.samples
    lag_min = max(2, int(np.floor(sr / F0_MAX)))
    lag_max = int(np.ceil(sr / F0_MIN))
    n_frames = (len(x) - frame_len) // hop + 1
    out = np.zeros(n_frames)
    n_fft = 1 << int(np.ceil(np.log2(2 * frame_len)))
    lags = np.arange(lag_min, lag_max + 1)
    for fi in range(n_frames):
        frame = x[fi * hop:fi * hop + frame_len]
        frame = frame - np.mean(frame)
        if np.sqrt(np.mean(frame ** 2)) < RMS_GATE:
            continue
        fspec = np.fft.rfft(frame)
        logmag = np.log(np.maximum(np.abs(fspec), 1e-12))
        ceps = np.fft.irfft(logmag)
        keep = max(4, lag_min // 2)
        ceps[keep:len(ceps) - keep] = 0.0
        env = np.exp(np.fft.rfft(ceps).real)
        white = fspec / np.maximum(env, 1e-3 * env.max())
        white[int(1200.0 * frame_len / sr):] = 0.0
        frame = np.fft.irfft(white, frame_len)
        spec = np.fft.rfft(frame, n_fft)
        raw = np.fft.irfft(spec * np.conj(spec))[:lag_max + 1]
        sq = np.concatenate(([0.0], np.cumsum(frame ** 2)))
        denom = np.sqrt(sq[frame_len - lags] * (sq[-1] - sq[lags]))
        r = np.where(denom > 0, raw[lags] / np.maximum(denom, 1e-20), 0.0)
        rmax = float(np.max(r))
        if rmax < VOICING_THRESHOLD:
            continue
        interior = np.arange(1, len(r) - 1)
        is_peak = (r[interior] >= r[interior - 1]) & (r[interior] >= r[interior + 1])
        strong = interior[is_peak & (r[interior] >= 0.9 * rmax)]
        best = int(strong[0]) if len(strong) else int(np.argmax(r))
        f0 = sr / (lag_min + _loop_parabolic_peak(r, best))
        out[fi] = float(np.clip(f0, F0_MIN, F0_MAX))
    return out


def _f0_reference_cases():
    sr = 16000
    rng = np.random.default_rng(17)
    voice = synth_harmonic(150.0, [(650.0, 8.0), (950.0, 5.0)], 0.5).samples
    half = voice.copy()
    half[len(half) // 2:] = 0.0
    t = np.arange(8000) / sr
    cases = [
        ("silence", np.zeros(8000)),
        ("below the RMS gate", 1e-5 * voice),
        ("half silence", half),
        ("white noise", rng.uniform(-0.5, 0.5, 8000)),
        ("pure sine", 0.5 * np.sin(2 * np.pi * 200.0 * t)),
        # a period past the longest lag: the maximum sits on the last lag and
        # f0 clips to F0_MIN
        ("sine below F0_MIN", 0.5 * np.sin(2 * np.pi * 47.0 * t)),
    ]
    for f0 in (90.0, 120.0, 150.0, 200.0, 250.0, 300.0):
        peaks = [(650.0, 8.0), (950.0, 5.0)] if f0 < 180 else [(800.0, 8.0), (1150.0, 5.0)]
        cases.append((f"voice {f0:.0f} Hz", synth_harmonic(f0, peaks, 0.4).samples))
    for n_frames in (1, 16, 17, 33):  # one frame, and counts around 16 and 32
        cases.append((f"{n_frames} frames", voice[:640 + (n_frames - 1) * 160]))
    cases = [(name, Waveform(x, sr)) for name, x in cases]
    # other rates: at 11025 Hz a frame is 441 samples (odd) and the hop 110,
    # at 22050 Hz they are 882 and 220
    for rate in (11025, 22050):
        voice_at = synth_harmonic(150.0, [(650.0, 8.0), (950.0, 5.0)], 0.5, rate)
        cases.append((f"voice at {rate} Hz", voice_at))
    return cases


def test_parabolic_peak_matches_scalar_rule():
    rows = np.array([
        [0.1, 0.9, 0.5, 0.2],      # interior fit
        [0.9, 0.5, 0.2, 0.1],      # maximum on the left edge
        [0.1, 0.2, 0.5, 0.9],      # maximum on the right edge
        [0.0, 1e-13, 3e-13, 0.0],  # |denom| < 1e-12: no refinement
        [0.0, 1.0, 1.0, 0.0],      # flat top
        [0.0, 0.0, 0.0, 0.0],
        [0.3, 1.0, 0.99, 0.1],     # shift close to the 0.5 clip
    ])
    best = np.array([1, 0, 3, 2, 1, 2, 1])
    want = [_loop_parabolic_peak(r, i) for r, i in zip(rows, best)]
    assert np.array_equal(_parabolic_peak(rows, best), want)


@pytest.mark.parametrize("case", _f0_reference_cases(), ids=lambda c: c[0])
def test_f0_contour_matches_per_frame_loop(case):
    _, w = case
    got = estimate_f0_contour(w).frame_hz
    want = _loop_f0_contour(w)
    assert got.shape == want.shape
    assert np.array_equal(got, want)


def _loop_harmonic_windows(n_bins, bin_hz, f0):
    """harmonic_windows with its centres found by a loop, kept as the
    reference."""
    half = max(2, int(0.4 * f0 / bin_hz))
    centers = []
    while (c := int(round((len(centers) + 1) * f0 / bin_hz))) < n_bins - 1:
        centers.append(c)
    idx = np.array(centers, dtype=int)[:, None] + np.arange(-half, half + 1)
    return np.clip(idx, 0, n_bins - 1), (idx >= 1) & (idx < n_bins)


@pytest.mark.parametrize("n_bins, bin_hz", [(513, 16000 / 1024), (257, 11025 / 512),
                                            (1025, 16000 / 2048), (9, 31.25)])
def test_harmonic_windows_matches_centre_loop(n_bins, bin_hz):
    top_hz = (n_bins - 1) * bin_hz
    # below one bin, exact multiples of bin_hz (rounding ties at the halves),
    # arbitrary values, and one past the top bin (no window)
    f0s = [0.3 * bin_hz, bin_hz, 1.5 * bin_hz, 2.5 * bin_hz, 4 * bin_hz, 7.5 * bin_hz,
           57.3, 123.456, 333.3, top_hz / 3, top_hz, top_hz + bin_hz]
    for f0 in f0s:
        got = harmonic_windows(n_bins, bin_hz, f0)
        want = _loop_harmonic_windows(n_bins, bin_hz, f0)
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.dtype == w.dtype, f0
            assert np.array_equal(g, w), f0
    assert harmonic_windows(n_bins, bin_hz, top_hz + bin_hz)[0].shape[0] == 0


def test_harmonic_windows_of_negative_f0_is_empty():
    idx, inside = harmonic_windows(513, 15.625, -100.0)
    assert idx.shape[0] == 0 and inside.shape[0] == 0


@pytest.mark.parametrize("f0", [0.0, -100.0, np.nan, np.inf])
def test_envelope_peak_rejects_f0_not_finite_and_positive(f0):
    w = synth_harmonic(150.0, [(700.0, 5.0)], 0.3)
    with pytest.raises(ValueError, match=f"f0 must be finite and positive, got {f0}"):
        envelope_peak_hz(w, f0)


def test_envelope_peak_needs_a_harmonic_in_its_band():
    """An f0 above the 4000 Hz top of the search band has no harmonic in it."""
    w = synth_harmonic(150.0, [(700.0, 5.0)], 0.3)
    with pytest.raises(ValueError, match="^no harmonic inside the search band$"):
        envelope_peak_hz(w, 5000.0)


def test_mel_filterbank_cached_read_only():
    fb = mel_filterbank(16000, 400)
    assert mel_filterbank(16000, 400) is fb
    with pytest.raises(ValueError):
        fb[0, 0] = 1.0
    assert np.array_equal(fb, mel_filterbank.__wrapped__(16000, 400))
    w = synth_harmonic(170.0, [(700.0, 5.0)], 0.3)
    warm = logmel_features(w).frames
    mel_filterbank.cache_clear()
    assert np.array_equal(logmel_features(w).frames, warm)


@pytest.mark.parametrize("n", [1, 2, 5, 400, 1024])
def test_hann_cached_read_only(n):
    window = hann(n)
    assert hann(n) is window
    assert np.array_equal(window, np.hanning(n))
    with pytest.raises(ValueError):
        window[0] = 1.0
