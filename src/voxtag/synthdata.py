"""Synthetic audio+text corpus where vocal pitch and formants carry the
speaker's gender and target sentences contain gender-marked token pairs."""

import functools
import math
import os
import zlib
from dataclasses import dataclass

import numpy as np

from .audio import Waveform, harmonic_rows, read_wav, write_wav
from .dsp import logmel_features
from .errors import InvalidSpec, MalformedHeader, TooShort, tsv_records
from .evaluation import GenderEvalEntry
from . import model
from .perturb import SpeakerGender, sample_target_median

# Two-peak spectral envelopes per gender, picked so the 1.2x / 0.8x formant
# scaling maps one set approximately onto the other.
F_PEAKS = ((800.0, 8.0), (1150.0, 5.0))
M_PEAKS = ((650.0, 8.0), (950.0, 5.0))

# Pseudo-Romance toy grammar: neutral fillers plus gendered stems realized
# as stem+"a" (feminine) or stem+"o" (masculine).
NEUTRAL_TOKENS = (
    "il", "la", "con", "per", "sempre", "ieri", "oggi", "domani", "casa",
    "strada", "mare", "sole", "luna", "voce", "tempo", "viaggio", "canto",
    "vento", "ponte", "fiume", "notte", "giorno", "cielo", "verso", "senza",
    "dopo", "prima", "quasi",
)
GENDERED_STEMS = (
    "amat", "stanc", "content", "rott", "nat", "perdut", "solitari",
    "sicur", "piccol", "onest",
)


def gendered_form(stem: str, gender: SpeakerGender) -> str:
    return stem + ("a" if gender is SpeakerGender.F else "o")


SAMPLE_RATE = 16000

# Spoken tokens are identified by two high-band spectral peaks. These sit
# above the gendered formant region (<= 1150 Hz) so token identity and
# speaker gender occupy largely separate mel bands.
TOKEN_PEAK_GAIN = 6.0


def token_peaks(token: str):
    """Deterministic pair of (hz, gain) peaks identifying a spoken token."""
    h = zlib.crc32(token.encode("utf-8"))
    p1 = 1500.0 + 200.0 * (h % 10)
    p2 = 3800.0 + 250.0 * ((h // 10) % 12)
    return ((p1, TOKEN_PEAK_GAIN), (p2, TOKEN_PEAK_GAIN))


def synth_utterance(f0, gender_peaks, source_tokens, token_duration) -> Waveform:
    """One fixed-length harmonic segment per source token, all at the
    speaker's f0 and formants, with short fades to avoid segment clicks.

    The segments are the rows of one harmonic_rows call, so each harmonic's
    sine is computed once per utterance; every token's peak set is the
    speaker's peaks plus the token's two, so all are of one length. The fades
    scale the ends of every row in place and the rest of a row is kept as it
    is, which is what multiplying it by 1.0 would give."""
    peak_sets = [tuple(gender_peaks) + token_peaks(token) for token in source_tokens]
    segments = harmonic_rows(f0, peak_sets, token_duration, SAMPLE_RATE)
    n_seg = segments.shape[1]
    fade_in, fade_out = _fade_ramps(n_seg)
    segments[:, :len(fade_in)] *= fade_in
    segments[:, n_seg - len(fade_out):] *= fade_out
    return Waveform(segments.ravel(), SAMPLE_RATE)


@functools.lru_cache(maxsize=16)
def _fade_ramps(n_seg):
    """The rising and falling ramps that start and end a segment of n_seg
    samples: 5 ms each, or a quarter of a shorter segment, empty below 4
    samples. Every segment of a corpus has one length, so ramps are cached; a
    cached ramp is shared, so it is read-only."""
    fade = min(int(0.005 * SAMPLE_RATE), n_seg // 4)
    ramps = np.linspace(0.0, 1.0, fade), np.linspace(1.0, 0.0, fade)
    for ramp in ramps:
        ramp.setflags(write=False)
    return ramps


def grammar_tokens():
    """Every surface token the corpus can emit."""
    forms = [gendered_form(s, g) for s in GENDERED_STEMS
             for g in (SpeakerGender.F, SpeakerGender.M)]
    return sorted(NEUTRAL_TOKENS) + sorted(forms)


def build_vocabulary() -> model.Vocabulary:
    return model.Vocabulary(grammar_tokens())


@dataclass(frozen=True)
class SynthSpec:
    n_utterances: int
    gender_split: float = 0.3
    token_duration: float = 0.06
    seed: int = 0

    def __post_init__(self):
        if self.n_utterances <= 0:
            raise InvalidSpec("n_utterances must be positive")
        if not 0.0 < self.gender_split < 1.0:
            raise InvalidSpec("gender_split must be in (0, 1)")
        if not math.isfinite(self.token_duration):
            raise InvalidSpec(f"token_duration {self.token_duration} is not finite")
        if round(self.token_duration * SAMPLE_RATE) < 1:
            raise InvalidSpec(f"token_duration {self.token_duration} s holds no sample "
                              f"at {SAMPLE_RATE} Hz")


@dataclass
class Utterance:
    id: str
    gender: SpeakerGender
    source_tokens: list
    target_tokens: list
    waveform: Waveform

    @functools.cached_property
    def pooled(self):
        """The encoder's input rows, model.pool4 of the waveform's (T, 80)
        log-mels, computed on first read. The audio of an utterance is not
        changed after that: a new waveform makes a new utterance,
        `dataclasses.replace(utt, waveform=w)`. A waveform too short for one
        frame raises TooShort naming the utterance."""
        try:
            frames = logmel_features(self.waveform).frames
        except TooShort as exc:
            raise TooShort(f"{self.id}: {exc}") from None
        return model.pool4(frames)


BIGRAM_BRANCHING = 3
# sentence length range and the most gendered slots in one sentence
MIN_LEN, MAX_LEN, MAX_GENDERED = 5, 12, 3


def _successor(state: int, choice: int) -> int:
    """Deterministic 3-way bigram structure over the neutral tokens, keeping
    sentence content learnable by a small language model."""
    return (5 * state + 7 * choice + 3) % len(NEUTRAL_TOKENS)


def _sample_sentence(gender: SpeakerGender, rng):
    """Neutral fillers with 1 to MAX_GENDERED gendered slots; slot index 2 is
    always gendered so that decoding reliably passes through a gender-marked
    position."""
    length = int(rng.integers(MIN_LEN, MAX_LEN + 1))
    n_gendered = int(rng.integers(1, MAX_GENDERED + 1))
    positions = {2}
    while len(positions) < n_gendered:
        positions.add(int(rng.integers(0, length)))
    target, source, pairs = [], [], []
    slot = 0
    state = int(rng.integers(BIGRAM_BRANCHING))
    for i in range(length):
        if i in positions:
            # The stem is a deterministic function of the sentence state so
            # only its gendered ending carries information about the speaker.
            stem = GENDERED_STEMS[(5 * state + 7 * slot + 3) % len(GENDERED_STEMS)]
            slot += 1
            target.append(gendered_form(stem, gender))
            source.append(stem)
            pairs.append((gendered_form(stem, gender),
                          gendered_form(stem, gender.opposite)))
        else:
            state = _successor(state, int(rng.integers(BIGRAM_BRANCHING)))
            token = NEUTRAL_TOKENS[state]
            target.append(token)
            source.append(token)
    return source, target, pairs


def generate_corpus(spec: SynthSpec):
    """Sampled utterances plus the aligned gender-evaluation entries."""
    utterances, entries = [], []
    for i in range(spec.n_utterances):
        rng = np.random.default_rng([spec.seed, i])
        gender = SpeakerGender.F if rng.random() < spec.gender_split else SpeakerGender.M
        # Redraw samples near the 170 Hz decision boundary so an f0-median
        # threshold classifier recovers the label with certainty; only the
        # masculine distribution's upper tail is affected.
        lo, hi = (175.0, np.inf) if gender is SpeakerGender.F else (0.0, 165.0)
        f0 = sample_target_median(gender, rng)
        while not lo <= f0 <= hi:
            f0 = sample_target_median(gender, rng)
        peaks = F_PEAKS if gender is SpeakerGender.F else M_PEAKS
        source, target, pairs = _sample_sentence(gender, rng)
        w = synth_utterance(f0, peaks, source, spec.token_duration)
        swap = dict(pairs)
        swapped = [swap.get(t, t) for t in target]
        uid = f"utt{i:05d}"
        utterances.append(Utterance(id=uid, gender=gender, source_tokens=source,
                                    target_tokens=target, waveform=w))
        entries.append(GenderEvalEntry(id=uid, reference=tuple(target),
                                       wrong_reference=tuple(swapped),
                                       term_pairs=tuple(dict.fromkeys(pairs))))
    return utterances, entries


def write_manifest(utterances, out_dir) -> str:
    """Write wavs plus the tab-separated manifest; returns the manifest path.
    Each WAV path is absolute, so the manifest reads from any directory."""
    wav_dir = os.path.abspath(os.path.join(out_dir, "wav"))
    if any(c in wav_dir for c in "\t\n\r"):  # manifest field and line separators
        raise ValueError(f"{wav_dir!r}: a manifest cannot record a path holding "
                         "a tab or line break")
    os.makedirs(wav_dir, exist_ok=True)
    path = os.path.join(out_dir, "manifest.tsv")
    with open(path, "w", encoding="utf-8") as f:
        for utt in utterances:
            wav_path = os.path.join(wav_dir, f"{utt.id}.wav")
            write_wav(utt.waveform, wav_path)
            f.write("\t".join([utt.id, wav_path, utt.gender.value,
                               " ".join(utt.source_tokens),
                               " ".join(utt.target_tokens)]) + "\n")
    return path


def read_manifest(path):
    """Inverse of write_manifest; a malformed line raises MalformedHeader."""
    utterances = []
    for lineno, (uid, wav_path, gender, source, target) in tsv_records(path, 5):
        if "/" in uid or "\0" in uid:  # write_manifest names each WAV after its id
            raise MalformedHeader(f"{path}:{lineno}: utterance id {uid!r} is not a file name")
        if gender not in ("F", "M"):
            raise MalformedHeader(f"{path}:{lineno}: gender {gender!r} is not F or M")
        if "\0" in wav_path:
            raise MalformedHeader(f"{path}:{lineno}: wav path holds a NUL byte")
        try:
            waveform = read_wav(wav_path)
        except (IsADirectoryError, NotADirectoryError) as exc:
            raise MalformedHeader(f"{path}:{lineno}: wav path is not a file "
                                  f"({exc.strerror}): {wav_path!r}") from None
        utterances.append(Utterance(
            id=uid, gender=SpeakerGender(gender),
            source_tokens=source.split(), target_tokens=target.split(),
            waveform=waveform))
    return utterances
