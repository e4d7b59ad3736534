"""Gender-accuracy scoring, the tag-inversion protocol, and corpus BLEU."""

import json
from collections import Counter
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad
from .errors import InvalidSpec, LengthMismatch, MalformedHeader, MissingHypothesis, tsv_records
from .model import start_token
from .perturb import SpeakerGender

# each tag-inversion decode stops at eos or after this many steps
DECODE_MAX_LEN = 20
# MuST-SHE's category-1 buckets: each one's (speaker gender, tag gender)
BUCKETS = {"1F": (SpeakerGender.F, SpeakerGender.F),
           "1M": (SpeakerGender.M, SpeakerGender.M),
           "1F-tagM": (SpeakerGender.F, SpeakerGender.M),
           "1M-tagF": (SpeakerGender.M, SpeakerGender.F)}


@dataclass(frozen=True)
class GenderEvalEntry:
    """One utterance's reference, its gender-swapped twin, and the annotated
    (correct_form, wrong_form) token pairs that differ between them."""

    id: str
    reference: tuple
    wrong_reference: tuple
    term_pairs: tuple

    def __post_init__(self):
        if not self.term_pairs:
            raise InvalidSpec(f"{self.id}: no annotated term pairs")
        # gender_accuracy matches whole whitespace-split tokens, lowercased,
        # so a pair equal up to case, or an empty or spaced form, can never
        # be scored right
        for correct, wrong in self.term_pairs:
            if correct.lower() == wrong.lower():
                raise InvalidSpec(f"{self.id}: degenerate pair {correct!r}")
            for form in (correct, wrong):
                if form.split() != [form]:
                    raise InvalidSpec(f"{self.id}: form {form!r} of pair "
                                      f"{correct + '|' + wrong!r} is empty or holds whitespace")

    def swapped(self):
        """The same entry scored from the opposite gender's point of view."""
        return GenderEvalEntry(
            id=self.id,
            reference=self.wrong_reference,
            wrong_reference=self.reference,
            term_pairs=tuple((w, c) for c, w in self.term_pairs),
        )


@dataclass(frozen=True)
class GenderAccuracyReport:
    total_terms: int
    found: int
    correct: int

    @property
    def accuracy(self) -> Optional[float]:
        return None if self.found == 0 else self.correct / self.found

    @property
    def coverage(self) -> float:
        return 0.0 if self.total_terms == 0 else self.found / self.total_terms

    def as_dict(self):
        return {"total_terms": self.total_terms, "found": self.found,
                "correct": self.correct, "accuracy": self.accuracy,
                "coverage": self.coverage}


def gender_accuracy(hypotheses, entries) -> GenderAccuracyReport:
    """Exact whole-token, case-insensitive matching of annotated forms.

    For each term pair: correct_form in the hypothesis counts as found and
    correct; otherwise wrong_form present counts as found only.
    """
    total = found = correct = 0
    for entry in entries:
        if entry.id not in hypotheses:
            raise MissingHypothesis(f"no hypothesis for {entry.id}")
        tokens = {t.lower() for t in hypotheses[entry.id]}
        for correct_form, wrong_form in entry.term_pairs:
            total += 1
            if correct_form.lower() in tokens:
                found += 1
                correct += 1
            elif wrong_form.lower() in tokens:
                found += 1
    return GenderAccuracyReport(total_terms=total, found=found, correct=correct)


def entries_for(corpus, entries):
    """Each utterance's eval entry, in corpus order. Utterances that have no
    entry raise InvalidSpec naming the first few of them."""
    by_id = {e.id: e for e in entries}
    missing = [utt.id for utt in corpus if utt.id not in by_id]
    if missing:
        shown = ", ".join(missing[:3]) + (", ..." if len(missing) > 3 else "")
        raise InvalidSpec(f"{len(missing)} utterance(s) have no eval entry: {shown}")
    return [by_id[utt.id] for utt in corpus]


def tag_inversion_eval(model, corpus, entries):
    """Greedy-decode each utterance under both gender tags.

    Returns four reports keyed 1F, 1M (tag matches the speaker) and
    1F-tagM, 1M-tagF (inverted tag), and each utterance's matched
    hypothesis. In the inverted buckets the tag defines correctness, so
    scoring flips each entry's correct/wrong forms. The corpus is encoded
    once, under no_grad, and each utterance decoded from its slice of the
    rows (see TranslationModel.encode). Each utterance is decoded once per
    distinct first token (start_token), under tag F, then tag M: twice for a
    multi_gender model, once at bos for a gender_unaware one, whose matched
    and inverted hypotheses are then that decode.
    """
    entries = entries_for(corpus, entries)
    pooled = [utt.pooled for utt in corpus]
    with ad.no_grad():
        # encode needs one utterance; an empty corpus scores four empty buckets
        stacked = model.encode(pooled).values if pooled else np.empty((0, 0))
    bounds = np.cumsum([len(rows) for rows in pooled[:-1]])
    tokens = {}
    for utt, enc in zip(corpus, np.split(stacked, bounds)):
        decoded = {}
        for tag_gender in (SpeakerGender.F, SpeakerGender.M):
            tag = start_token(model.cfg.mode, tag_gender)
            if tag not in decoded:
                ids = model.greedy_decode(enc, tag, max_len=DECODE_MAX_LEN)
                decoded[tag] = model.vocab.decode(ids)
            tokens[utt.id, tag_gender] = decoded[tag]
    reports = {}
    for key, (speaker, tag_gender) in BUCKETS.items():
        scored = [entry if tag_gender is speaker else entry.swapped()
                  for utt, entry in zip(corpus, entries) if utt.gender is speaker]
        reports[key] = gender_accuracy({e.id: tokens[e.id, tag_gender] for e in scored}, scored)
    return reports, {utt.id: tokens[utt.id, utt.gender] for utt in corpus}


def _ngram_counts(tokens, n):
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def corpus_bleu(hypotheses, references) -> float:
    """Corpus BLEU on whitespace tokens: clipped n-gram precisions (n=1..4),
    exponential smoothing on zero numerators, brevity penalty, scaled to 100."""
    if len(hypotheses) != len(references):
        raise LengthMismatch(f"{len(hypotheses)} hypotheses vs {len(references)} references")
    if not references or any(len(r) == 0 for r in references):
        raise LengthMismatch("references must be non-empty")
    numer = np.zeros(4)
    denom = np.zeros(4)
    hyp_len = ref_len = 0
    for hyp, ref in zip(hypotheses, references):
        hyp, ref = list(hyp), list(ref)
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, 5):
            hc = _ngram_counts(hyp, n)
            rc = _ngram_counts(ref, n)
            numer[n - 1] += sum(min(c, rc.get(g, 0)) for g, c in hc.items())
            denom[n - 1] += max(len(hyp) - n + 1, 0)
    log_prec = np.zeros(4)
    smooth = 1.0
    for n in range(4):
        if denom[n] == 0:
            return 0.0
        if numer[n] > 0:
            log_prec[n] = np.log(numer[n] / denom[n])
        else:
            smooth *= 2.0
            log_prec[n] = np.log(1.0 / (smooth * denom[n]))
    bp = 1.0 if hyp_len >= ref_len else np.exp(1.0 - ref_len / max(hyp_len, 1))
    return float(100.0 * bp * np.exp(log_prec.mean()))


def read_eval_tsv(path):
    """Inverse of write_eval_tsv; a malformed line raises MalformedHeader."""
    entries = []
    for lineno, (uid, ref, wrong, pairs) in tsv_records(path, 4):
        term_pairs = tuple(tuple(p.split("|")) for p in pairs.split(";"))
        if any(len(pair) != 2 for pair in term_pairs):
            raise MalformedHeader(f"{path}:{lineno}: term pairs {pairs!r} are not "
                                  "correct|wrong separated by ';'")
        try:
            entry = GenderEvalEntry(
                id=uid, reference=tuple(ref.split()),
                wrong_reference=tuple(wrong.split()), term_pairs=term_pairs)
        except InvalidSpec as exc:
            raise MalformedHeader(f"{path}:{lineno}: {exc}") from None
        entries.append(entry)
    return entries


def write_eval_tsv(entries, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for e in entries:
            pairs = ";".join(f"{c}|{w}" for c, w in e.term_pairs)
            f.write(f"{e.id}\t{' '.join(e.reference)}\t{' '.join(e.wrong_reference)}\t{pairs}\n")


def write_report(reports, bleu, path) -> None:
    doc = {key: r.as_dict() for key, r in reports.items()}
    doc["bleu"] = bleu
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
