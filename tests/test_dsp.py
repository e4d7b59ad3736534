import numpy as np
import pytest

from voxtag.audio import Waveform, synth_harmonic
from voxtag.dsp import (
    F0Contour,
    FeatureMatrix,
    apply_cmvn_,
    estimate_f0_contour,
    load_features,
    logmel_features,
    save_features,
    voiced_median,
)
from voxtag.errors import AllUnvoiced, MalformedHeader, TooShort


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


def test_voiced_median_hand_cases():
    c = F0Contour(np.array([100.0, 110, 120, 0, 130, 140]), hop=160, frame_len=640)
    assert voiced_median(c) == 120.0
    assert voiced_median(F0Contour(np.array([0.0, 0, 250]), 160, 640)) == 250.0
    assert voiced_median(F0Contour(np.array([100.0, 200.0]), 160, 640)) == 150.0


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
    fm = logmel_features(w, apply_cmvn=False)
    assert fm.frames.shape == (98, 80)
    assert not fm.normalized


def test_cmvn_standardizes():
    w = synth_harmonic(150.0, [(700.0, 5.0)], 1.0)
    fm = logmel_features(w, apply_cmvn=True)
    assert fm.normalized
    assert np.max(np.abs(fm.frames.mean(axis=0))) < 1e-5
    assert np.max(np.abs(fm.frames.var(axis=0) - 1.0)) < 1e-3


def test_cmvn_gain_invariance():
    rng = np.random.default_rng(5)
    noise = rng.uniform(-0.09, 0.09, 16000)
    a = logmel_features(Waveform(noise, 16000), apply_cmvn=True)
    b = logmel_features(Waveform(10 * noise, 16000), apply_cmvn=True)
    # clipping: scale kept within [-1, 1] so the log-gain is exactly additive
    assert np.max(np.abs(a.frames - b.frames)) < 1e-4


def test_cmvn_idempotent():
    w = synth_harmonic(180.0, [(650.0, 4.0)], 0.5)
    fm = logmel_features(w, apply_cmvn=True)
    again = apply_cmvn_(fm.frames)
    assert np.max(np.abs(again - fm.frames)) < 1e-5


def test_logmel_too_short():
    with pytest.raises(TooShort):
        logmel_features(Waveform(np.zeros(100), 16000), apply_cmvn=False)


def test_feature_serialization_roundtrip(tmp_path):
    w = synth_harmonic(140.0, [], 0.3)
    fm = logmel_features(w, apply_cmvn=True)
    path = tmp_path / "f.vxft"
    save_features(fm, path)
    back = load_features(path)
    assert back.frames.shape == fm.frames.shape
    assert np.max(np.abs(back.frames - fm.frames)) < 1e-5  # float32 storage


def test_feature_file_rejects_truncation_and_trailing_bytes(tmp_path):
    frames = np.random.default_rng(0).normal(size=(3, 80))
    path = tmp_path / "f.vxft"
    save_features(FeatureMatrix(frames), path)
    blob = path.read_bytes()
    assert np.array_equal(load_features(path).frames, frames.astype("<f4"))
    bad = tmp_path / "bad.vxft"
    for cut in range(len(blob)):
        bad.write_bytes(blob[:cut])
        with pytest.raises(MalformedHeader):
            load_features(bad)
    bad.write_bytes(blob + b"\x00")
    with pytest.raises(MalformedHeader, match="trailing"):
        load_features(bad)
