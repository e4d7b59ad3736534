"""Shift a synthetic masculine voice toward the feminine f0 distribution and
back, printing the measured f0 medians and formant peak at each step."""

import numpy as np

from voxtag.audio import synth_harmonic
from voxtag.dsp import envelope_peak_hz, estimate_f0_contour, voiced_median
from voxtag.perturb import (FORMANT_SCALE, SpeakerGender, compute_alpha,
                            pitch_formant_shift, sample_target_median)

rng = np.random.default_rng(0)

# A masculine vowel: 130 Hz fundamental with low formants.
voice = synth_harmonic(130.0, [(650.0, 8.0), (950.0, 5.0)], 0.5)
source = voiced_median(estimate_f0_contour(voice))
print(f"source voice: f0 median {source:.1f} Hz, "
      f"formant peak {envelope_peak_hz(voice, f0=130.0):.0f} Hz")

# Draw a feminine target median and shift pitch + formants toward it.
target = sample_target_median(SpeakerGender.F, rng)
alpha = compute_alpha(source, target)
shifted = pitch_formant_shift(voice, alpha, FORMANT_SCALE[SpeakerGender.F])
measured = voiced_median(estimate_f0_contour(shifted))
print(f"target {target:.1f} Hz (alpha={alpha:.2f}) -> measured "
      f"{measured:.1f} Hz, formant peak "
      f"{envelope_peak_hz(shifted, f0=measured):.0f} Hz")

# Round trip: shift the converted voice back toward the source median.
back = pitch_formant_shift(shifted, 1.0 / alpha, FORMANT_SCALE[SpeakerGender.M])
restored = voiced_median(estimate_f0_contour(back))
print(f"round trip -> {restored:.1f} Hz "
      f"(started at {source:.1f} Hz)")
