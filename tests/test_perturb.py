import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from voxtag import perturb
from voxtag.audio import Waveform, synth_harmonic
from voxtag.dsp import (RMS_GATE, envelope_peak_hz, estimate_f0_contour, harmonic_windows,
                        voiced_median)
from voxtag.errors import AllUnvoiced, OutOfRangeFactor, ZeroSourceMedian
from voxtag.perturb import (
    FORMANT_SCALE,
    TARGET_F0_HZ,
    PerturbConfig,
    SpeakerGender,
    _formant_warp,
    _harmonic_envelope,
    _stretch_rows,
    apply_opposite,
    compute_alpha,
    pitch_formant_shift,
    sample_target_median,
)

M_PEAKS = [(650.0, 8.0), (950.0, 5.0)]
F_PEAKS = [(800.0, 8.0), (1150.0, 5.0)]


def test_config_settings_and_constants():
    """Only p and seed are settings; the target distributions and formant
    factors are module tables that a constructor rejects."""
    from dataclasses import fields
    assert [f.name for f in fields(PerturbConfig)] == ["p", "seed"]
    F, M = SpeakerGender.F, SpeakerGender.M
    assert (*TARGET_F0_HZ[F], *TARGET_F0_HZ[M], FORMANT_SCALE[F], FORMANT_SCALE[M]) \
        == (250.0, 17.0, 140.0, 20.0, 1.2, 0.8)
    with pytest.raises(TypeError):
        PerturbConfig(formant_up=1.3)
    with pytest.raises(ValueError):
        PerturbConfig(p=1.5)


def test_sample_target_median_feminine_range():
    rng = np.random.default_rng(11)
    draws = np.array([sample_target_median(SpeakerGender.F, rng) for _ in range(10000)])
    assert abs(draws.mean() - 250.0) <= 1.0
    assert draws.min() >= 199.0 and draws.max() <= 301.0


def test_sample_target_median_masculine_range():
    rng = np.random.default_rng(12)
    draws = np.array([sample_target_median(SpeakerGender.M, rng) for _ in range(10000)])
    assert draws.min() >= 80.0 and draws.max() <= 200.0


def test_sample_determinism():
    a = [sample_target_median(SpeakerGender.F, np.random.default_rng(5)) for _ in range(20)]
    b = [sample_target_median(SpeakerGender.F, np.random.default_rng(5)) for _ in range(20)]
    assert a == b


def test_compute_alpha():
    assert compute_alpha(120.0, 240.0) == 2.0
    assert compute_alpha(250.0, 250.0) == 1.0
    assert compute_alpha(200.0, 140.0) == pytest.approx(0.7)
    with pytest.raises(ZeroSourceMedian):
        compute_alpha(0.0, 100.0)


def test_shift_near_identity():
    w = synth_harmonic(150.0, M_PEAKS, 0.4)
    src = voiced_median(estimate_f0_contour(w))
    y = pitch_formant_shift(w, 1.0, 1.0)
    out = voiced_median(estimate_f0_contour(y))
    assert abs(out - src) / src <= 0.02
    assert abs(len(y) - len(w)) <= 160  # one hop


def test_shift_doubles_f0():
    w = synth_harmonic(120.0, M_PEAKS, 0.4)
    y = pitch_formant_shift(w, 2.0, 1.0)
    out = voiced_median(estimate_f0_contour(y))
    assert abs(out - 240.0) / 240.0 <= 0.03


def test_formant_scale_up():
    w = synth_harmonic(120.0, [(700.0, 8.0)], 0.4)
    y = pitch_formant_shift(w, 1.0, 1.2)
    peak = envelope_peak_hz(y, f0=120.0)
    assert abs(peak - 840.0) / 840.0 <= 0.05


def test_out_of_range_factors():
    w = synth_harmonic(150.0, [], 0.2)
    with pytest.raises(OutOfRangeFactor):
        pitch_formant_shift(w, 5.0, 1.0)
    with pytest.raises(OutOfRangeFactor):
        pitch_formant_shift(w, 1.0, 3.0)


def test_shift_of_an_unvoiced_waveform_fails_closed():
    with pytest.raises(AllUnvoiced, match="^no voiced frame, cannot place pitch marks$"):
        pitch_formant_shift(Waveform(np.zeros(4800), 16000), 1.5, 1.2)


def test_apply_opposite_p_zero():
    w = synth_harmonic(140.0, M_PEAKS, 0.2)
    cfg = PerturbConfig(p=0.0)
    rng = np.random.default_rng(0)
    for _ in range(10):
        out, manipulated = apply_opposite(w, SpeakerGender.M, cfg, rng)
        assert not manipulated
        assert out is w


def test_apply_opposite_m_to_f_lands_in_feminine_range():
    cfg = PerturbConfig(p=1.0)
    rng = np.random.default_rng(21)
    for trial in range(5):
        w = synth_harmonic(float(rng.uniform(110, 180)), M_PEAKS, 0.3)
        out, manipulated = apply_opposite(w, SpeakerGender.M, cfg, rng)
        assert manipulated
        med = voiced_median(estimate_f0_contour(out))
        assert 199.0 * 0.97 <= med <= 301.0 * 1.03


def test_apply_opposite_rate_concentration():
    # decision rate only; tiny waveform keeps 10,000 manipulations cheap
    w = synth_harmonic(200.0, [], 0.05)
    cfg = PerturbConfig(p=0.5)
    rng = np.random.default_rng(33)
    hits = sum(apply_opposite(w, SpeakerGender.F, cfg, rng)[1] for _ in range(10000))
    assert abs(hits / 10000 - 0.5) <= 0.02


def test_apply_opposite_passes_through_waveform_without_f0():
    """A waveform with no voiced frame, or shorter than one f0-tracker frame
    (640 samples at 16 kHz), has no f0 to shift: it is returned as it is."""
    cfg = PerturbConfig(p=1.0)
    silent = Waveform(np.zeros(4800), 16000)
    short = synth_harmonic(150.0, M_PEAKS, 0.03)
    for w in (silent, short):
        out, manipulated = apply_opposite(w, SpeakerGender.M, cfg, np.random.default_rng(0))
        assert out is w
        assert not manipulated


def test_apply_opposite_deterministic():
    w = synth_harmonic(130.0, M_PEAKS, 0.3)
    cfg = PerturbConfig(p=1.0)
    a, _ = apply_opposite(w, SpeakerGender.M, cfg, np.random.default_rng(9))
    b, _ = apply_opposite(w, SpeakerGender.M, cfg, np.random.default_rng(9))
    assert np.array_equal(a.samples, b.samples)


def test_duration_preserved():
    w = synth_harmonic(160.0, M_PEAKS, 0.37)
    y = pitch_formant_shift(w, 1.7, 1.2)
    assert abs(len(y) - len(w)) <= 160


def _loop_harmonic_envelope(mag, bin_hz, f0):
    n_bins = len(mag)
    half = max(2, int(0.4 * f0 / bin_hz))
    hz_pts, amp_pts = [], []
    k = 1
    while (center := int(round(k * f0 / bin_hz))) < n_bins - 1:
        lo, hi = max(1, center - half), min(n_bins, center + half + 1)
        j = lo + int(np.argmax(mag[lo:hi]))
        hz_pts.append(j * bin_hz)
        amp_pts.append(max(mag[j], 1e-12))
        k += 1
    if len(hz_pts) < 2:
        return np.full(n_bins, max(np.max(mag), 1e-12))
    return np.exp(np.interp(np.arange(n_bins) * bin_hz, hz_pts, np.log(amp_pts)))


def _loop_formant_warp(x, scale, sr, f0, n_fft=1024):
    """The per-frame envelope warp that the frame-batched one replaced, kept
    as the reference."""
    hop = n_fft // 4
    window = np.hanning(n_fft)
    xp = np.pad(x, (n_fft, n_fft))
    out = np.zeros(len(xp))
    norm = np.zeros(len(xp))
    bins = np.arange(n_fft // 2 + 1)
    for start in range(0, len(xp) - n_fft + 1, hop):
        frame = xp[start:start + n_fft] * window
        spec = np.fft.rfft(frame)
        if np.sqrt(np.mean(frame ** 2)) < RMS_GATE:
            frame_out = np.fft.irfft(spec, n_fft) * window
        else:
            env = _loop_harmonic_envelope(np.abs(spec), sr / n_fft, f0)
            warped = np.interp(bins / scale, bins, env)
            ratio = np.clip(warped / np.maximum(env, 1e-12), 1e-3, 1e3)
            frame_out = np.fft.irfft(spec * ratio, n_fft) * window
        out[start:start + n_fft] += frame_out
        norm[start:start + n_fft] += window ** 2
    out /= np.maximum(norm, 1e-8)
    return out[n_fft:n_fft + len(x)]


def _loop_psola(x, sr, contour, alpha, counts=None):
    """The grain-by-grain overlap-add that the one-pass version replaced, kept as
    the reference. counts, if given, tallies the grains placed at an exact tie
    between two nearest marks and those dropped as two samples or shorter."""
    n = len(x)
    marks = contour.marks
    # the per-sample period over voiced frames, as the grain loop read it
    centers = contour.hop * np.arange(len(contour.frame_hz)) + contour.frame_len // 2
    voiced = contour.frame_hz > 0
    period = sr / np.interp(np.arange(n), centers[voiced], contour.frame_hz[voiced])
    n1 = max(4, int(np.floor((n - 1) / alpha)) + 1)
    y1 = np.interp(alpha * np.arange(n1), np.arange(n), x)
    marks1 = np.round(marks / alpha).astype(int)
    gamma = n / n1
    out = np.zeros(n)
    norm = np.zeros(n)
    pos = float(marks1[0]) * gamma
    while pos < n:
        s = int(round(pos))
        dist = np.abs(marks1 - s / gamma)
        m = int(marks1[int(np.argmin(dist))])
        src_idx = min(int(round(m * alpha)), n - 1)
        p = max(2, int(round(period[src_idx] / alpha)))
        lo_off = min(p, m, s)
        hi_off = min(p, n1 - m, n - s)
        if counts is not None:
            counts["tie"] += int((dist == dist.min()).sum() > 1)
            counts["dropped"] += int(hi_off + lo_off <= 2)
        if hi_off + lo_off > 2:
            win = np.hanning(2 * p + 1)[p - lo_off:p + hi_off]
            out[s - lo_off:s + hi_off] += win * y1[m - lo_off:m + hi_off]
            norm[s - lo_off:s + hi_off] += win
        pos += period[src_idx] / alpha
    covered = norm > 0.2
    out[covered] /= norm[covered]
    fallback_idx = np.clip(np.round(np.arange(n) / gamma).astype(int), 0, n1 - 1)
    out[~covered] = y1[fallback_idx[~covered]]
    return out


def _psola_reference_cases():
    voice = synth_harmonic(130.0, M_PEAKS, 0.4).samples
    tail = voice.copy()
    tail[:int(0.7 * len(tail))] = 0.0
    cases = [
        ("alpha 0.25", voice, 16000, 0.25),
        ("alpha 4", voice, 16000, 4.0),
        ("voiced only in the tail", tail, 16000, 1.6),
        ("641 samples", synth_harmonic(210.0, F_PEAKS, 641 / 16000).samples, 16000, 0.7),
        # at 4 kHz a 450 Hz voice raised by 4 has grains of half-length 2, and
        # a grain centred on the last sample is dropped
        ("4000 Hz, voice 450 Hz, alpha 4",
         synth_harmonic(450.0, [(900.0, 8.0)], 0.3, 4000).samples, 4000, 4.0),
    ]
    for f0, peaks in ((110.0, M_PEAKS), (150.0, M_PEAKS), (220.0, F_PEAKS), (280.0, F_PEAKS)):
        x = synth_harmonic(f0, peaks, 0.35).samples
        for alpha in (0.45, 0.8, 1.0, 1.3, 2.2):
            cases.append((f"voice {f0:.0f} Hz, alpha {alpha}", x, 16000, alpha))
    return cases


def test_psola_reference_cases_reach_ties_and_dropped_grains():
    """The grain loop's two edge branches, which the one-pass PSOLA takes as
    array operations after placing every grain, are each taken by some case:
    an exact tie between two nearest marks (the lower wins) and a grain of
    two samples or fewer (dropped)."""
    counts = {"tie": 0, "dropped": 0}
    for _, x, sr, alpha in _psola_reference_cases():
        _loop_psola(x, sr, estimate_f0_contour(Waveform(x, sr)), alpha, counts)
    assert counts["tie"] > 0 and counts["dropped"] > 0, counts


@pytest.mark.parametrize("case", _psola_reference_cases(), ids=lambda c: c[0])
def test_psola_matches_grain_loop(case):
    _, x, sr, alpha = case
    contour = estimate_f0_contour(Waveform(x, sr))
    assert np.array_equal(perturb._psola(x, sr, contour, alpha),
                          _loop_psola(x, sr, contour, alpha))


def _warp_reference_cases():
    rng = np.random.default_rng(23)
    voice = synth_harmonic(150.0, M_PEAKS, 0.5).samples
    half = voice.copy()
    half[len(half) // 2:] = 0.0
    gap = voice.copy()
    gap[len(gap) // 3:2 * len(gap) // 3] = 0.0
    t = np.arange(4000) / 16000
    cases = [
        ("silence", np.zeros(4000), 0.8, 150.0, 16000),
        ("below the RMS gate", 1e-5 * voice, 1.2, 150.0, 16000),
        ("half silence", half, 1.25, 150.0, 16000),
        # loud frames on both sides of quiet ones
        ("voice, silence, voice", gap, 0.8, 150.0, 16000),
        ("white noise", rng.uniform(-0.5, 0.5, 4000), 1.2, 140.0, 16000),
        # the first harmonic's window reaches bin 0, which the search must skip
        ("DC offset, f0 below three bins", 0.6 + rng.uniform(-0.1, 0.1, 4000), 0.8, 30.0, 16000),
        ("pure sine", 0.5 * np.sin(2 * np.pi * 200.0 * t), 1.2, 200.0, 16000),
        # one strong harmonic among near-empty ones: the gain hits its clip
        ("sine as 8th harmonic", 0.5 * np.sin(2 * np.pi * 1000.0 * t), 1.25, 125.0, 16000),
        ("fewer than two harmonics", voice, 0.8, 5000.0, 16000),
    ]
    for f0 in (90.0, 120.0, 150.0, 200.0, 250.0, 300.0):
        peaks = M_PEAKS if f0 < 180 else F_PEAKS
        x = synth_harmonic(f0, peaks, 0.3).samples
        cases.append((f"voice {f0:.0f} Hz", x, 0.8 if f0 < 180 else 1.25, f0, 16000))
    # frame counts around 16 and 32: (len + 1024) // 256 + 1 frames, the last
    # one overlapping the signal's final 100 samples
    for n_frames in (16, 17, 33):
        cases.append((f"{n_frames} frames", voice[:(n_frames - 1) * 256 - 924], 1.2, 150.0, 16000))
    # other rates, with frames below the gate, but not silent, between loud
    # ones: those must keep their spectrum, not take their gain
    for sr, f0 in ((8000, 120.0), (44100, 230.0)):
        x = synth_harmonic(f0, M_PEAKS if f0 < 180 else F_PEAKS, 0.4, sr).samples.copy()
        x[len(x) // 4:len(x) // 2] *= 1e-5
        cases.append((f"{sr} Hz, voice {f0:.0f} Hz with a quiet gap", x, 1.2, f0, sr))
    return cases


@pytest.mark.parametrize("sr, f0", [pytest.param(16000, f0, id=str(f0))
                                    for f0 in (25.0, 30.0, 90.0, 150.0, 300.0, 5000.0)]
                         + [pytest.param(sr, f0, id=f"{f0} at {sr} Hz")
                            for sr in (8000, 22050, 44100) for f0 in (25.0, 30.0, 150.0, 300.0)])
def test_harmonic_envelope_matches_per_frame_loop(sr, f0):
    """One interpolation over every row, on knots and bins moved up by a
    whole span per row, reads each row as its own np.interp would. Bins and
    knots are multiples of sr / 1024, so the shifts are exact at any integer
    rate; one row alone reads the same."""
    rng = np.random.default_rng(int(f0))
    bin_hz = sr / 1024
    # small integer magnitudes tie inside most windows (first maximum wins);
    # the last row peaks at bin 0, outside every window
    mag = rng.integers(0, 3, size=(5, 513)).astype(float)
    mag[-1, 0] = 10.0
    windows = harmonic_windows(513, bin_hz, f0)
    want = [_loop_harmonic_envelope(row, bin_hz, f0) for row in mag]
    assert np.array_equal(_harmonic_envelope(mag, bin_hz, windows), want)
    assert np.array_equal(_harmonic_envelope(mag[:1], bin_hz, windows), want[:1])


@pytest.mark.parametrize("case", _warp_reference_cases(), ids=lambda c: c[0])
def test_formant_warp_matches_per_frame_loop(case):
    _, x, scale, f0, sr = case
    assert np.array_equal(_formant_warp(x, scale, sr, f0),
                          _loop_formant_warp(x, scale, sr, f0))


def test_apply_opposite_tracks_source_once(monkeypatch):
    """Every f0 contour apply_opposite reads for one waveform, over many
    calls, is the one analysis kept on that waveform; a missed draw tracks
    nothing."""
    returned = []

    def counting(w):
        returned.append(estimate_f0_contour(w))
        return returned[-1]

    monkeypatch.setattr(perturb, "estimate_f0_contour", counting)
    w = synth_harmonic(130.0, M_PEAKS, 0.3)
    cfg = PerturbConfig(p=0.5)
    seen = set()
    for seed in range(8):
        before = len(returned)
        out, manipulated = apply_opposite(w, SpeakerGender.M, cfg, np.random.default_rng(seed))
        seen.add(manipulated)
        assert (len(returned) > before) == manipulated
        assert all(c is returned[0] for c in returned)
        if not manipulated:
            continue
        # replay the same rng draws: decision, then the target median
        replay = np.random.default_rng(seed)
        replay.random()
        target = sample_target_median(SpeakerGender.F, replay)
        alpha = float(np.clip(compute_alpha(voiced_median(estimate_f0_contour(w)), target),
                              0.25, 4.0))
        want = pitch_formant_shift(w, alpha, FORMANT_SCALE[SpeakerGender.F])
        assert np.array_equal(out.samples, want.samples)
    assert seen == {True, False}


def test_shifts_with_kept_pitch_marks_match_fresh_waveforms():
    """Repeated shifts of one waveform, which reuse the marks and median kept
    on its contour, equal the same shifts of fresh copies bit for bit. The
    marks are shared and read-only, and the contour keeps no array besides
    them and frame_hz."""
    w = synth_harmonic(130.0, M_PEAKS, 0.4)
    for alpha in (0.6, 1.6, 1.0, 0.6):
        for scale in (1.2, 0.8):
            fresh = Waveform(w.samples.copy(), w.sample_rate)
            assert np.array_equal(pitch_formant_shift(w, alpha, scale).samples,
                                  pitch_formant_shift(fresh, alpha, scale).samples)
    contour = estimate_f0_contour(w)
    marks = contour.marks
    assert estimate_f0_contour(w).marks is marks
    with pytest.raises(ValueError):
        marks[0] = 0
    arrays = [v for v in vars(contour).values() if isinstance(v, np.ndarray)]
    assert len(arrays) == 2
    assert any(v is contour.frame_hz for v in arrays) and any(v is marks for v in arrays)


def test_pitch_marks_follow_the_phase_rule():
    """A tracked waveform's marks are, for k = 0, 1, ..., the first sample at
    which the per-sample f0 track (interpolated between voiced frame centres)
    has accumulated k + 1/2 periods, at any length and rate. An unvoiced
    waveform's contour has no marks."""
    voice = synth_harmonic(150.0, M_PEAKS, 0.3).samples
    tail = voice.copy()
    tail[:len(tail) // 2] = 0.0
    cases = [(voice, 16000), (voice[:-100], 16000), (voice, 8000), (tail, 16000),
             (synth_harmonic(230.0, F_PEAKS, 0.2, 4000).samples, 4000),
             (synth_harmonic(95.0, M_PEAKS, 0.15, 44100).samples, 44100)]
    for x, sr in cases:
        contour = estimate_f0_contour(Waveform(x, sr))
        centres = np.array([contour.hop * i + contour.frame_len // 2
                            for i, hz in enumerate(contour.frame_hz) if hz > 0])
        phase = np.cumsum(np.interp(np.arange(len(x)), centres,
                                    contour.frame_hz[contour.frame_hz > 0])) / sr
        want, k = [], 0.5
        while k < phase[-1]:
            want.append(int(np.argmax(phase >= k)))
            k += 1
        assert contour.marks.tolist() == want
    assert estimate_f0_contour(Waveform(np.zeros(4800), 16000)).marks is None


@st.composite
def _envelopes_and_scales(draw):
    n_bins = draw(st.integers(2, 600))
    env = np.exp(np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).uniform(
        -28.0, 7.0, (draw(st.integers(1, 4)), n_bins)))
    # besides any scale, those that put the last bin, or a bin at the last
    # bin's position, exactly on a knot
    k = draw(st.integers(max(1, -(-(n_bins - 1) // 8)), 8 * (n_bins - 1)))
    scale = draw(st.one_of(st.floats(0.125, 8.0), st.sampled_from([0.125, 0.5, 1.0, 2.0, 8.0]),
                           st.just((n_bins - 1) / k), st.just(k / (n_bins - 1))))
    return env, min(max(scale, 0.125), 8.0)


@settings(max_examples=300, deadline=None)
@given(_envelopes_and_scales())
@example((np.exp(np.random.default_rng(0).uniform(-28.0, 7.0, (3, 513))), 1.0))
@example((np.exp(np.random.default_rng(1).uniform(-28.0, 7.0, (3, 513))), 2.0))
@example((np.exp(np.random.default_rng(2).uniform(-28.0, 7.0, (3, 513))), 0.125))
def test_stretch_rows_matches_per_row_interp(case):
    env, scale = case
    bins = np.arange(env.shape[1])
    want = np.array([np.interp(bins / scale, bins, row) for row in env])
    assert np.array_equal(_stretch_rows(env, scale), want)
