import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from voxtag.errors import InvalidSpec, LengthMismatch, MalformedHeader, MissingHypothesis
from voxtag.evaluation import (GenderEvalEntry, corpus_bleu, gender_accuracy,
                               read_eval_tsv, tag_inversion_eval,
                               write_eval_tsv)
from voxtag.model import (BOS_ID, MODES, TAG_F_ID, TAG_M_ID, ModelConfig, TranslationModel,
                          load_model)
from voxtag.perturb import SpeakerGender
from voxtag.synthdata import SynthSpec, build_vocabulary, generate_corpus


def entry(uid, pairs, reference=("x",)):
    wrong = tuple(w for _, w in pairs) + tuple(reference)
    return GenderEvalEntry(id=uid, reference=tuple(reference),
                           wrong_reference=wrong, term_pairs=tuple(pairs))


# Hand-counted (hypothesis tokens, term pairs, expected found/correct/total)
# covering hits, misses, wrong forms, case folding, and substring traps.
GENDER_CASES = [
    (["amata"], [("amata", "amato")], 1, 1, 1),
    (["amato"], [("amata", "amato")], 1, 0, 1),
    (["casa"], [("amata", "amato")], 0, 0, 1),
    ([], [("amata", "amato")], 0, 0, 1),
    (["AMATA"], [("amata", "amato")], 1, 1, 1),
    (["amata"], [("AMATA", "AMATO")], 1, 1, 1),
    (["amatamente"], [("amata", "amato")], 0, 0, 1),  # whole token only
    (["amata", "amato"], [("amata", "amato")], 1, 1, 1),  # correct wins
    (["amata", "stanca"], [("amata", "amato"), ("stanca", "stanco")], 2, 2, 2),
    (["amata", "stanco"], [("amata", "amato"), ("stanca", "stanco")], 2, 1, 2),
    (["amato", "stanco"], [("amata", "amato"), ("stanca", "stanco")], 2, 0, 2),
    (["amata", "casa"], [("amata", "amato"), ("stanca", "stanco")], 1, 1, 2),
    (["casa", "il"], [("amata", "amato"), ("stanca", "stanco")], 0, 0, 2),
    (["amata", "amata"], [("amata", "amato")], 1, 1, 1),  # duplicates count once
    (["rotta"], [("rotta", "rotto"), ("nata", "nato")], 1, 1, 2),
    (["nato"], [("rotta", "rotto"), ("nata", "nato")], 1, 0, 2),
    (["rotta", "nato", "il"], [("rotta", "rotto"), ("nata", "nato")], 2, 1, 2),
    (["Rotta", "NATO"], [("rotta", "rotto"), ("nata", "nato")], 2, 1, 2),
    (["sola"], [("sola", "solo"), ("sola", "solo")], 2, 2, 2),
    (["perduta", "x", "perduto"], [("perduto", "perduta")], 1, 1, 1),
]


@pytest.mark.parametrize("tokens,pairs,found,correct,total", GENDER_CASES)
def test_gender_accuracy_hand_counted(tokens, pairs, found, correct, total):
    report = gender_accuracy({"u0": tokens}, [entry("u0", pairs)])
    assert (report.found, report.correct, report.total_terms) == (found, correct, total)
    if found == 0:
        assert report.accuracy is None
    else:
        assert report.accuracy == pytest.approx(correct / found)
    assert report.coverage == pytest.approx(found / total)


def test_gender_accuracy_aggregates_across_entries():
    hyps = {"a": ["amata"], "b": ["stanco"]}
    entries = [entry("a", [("amata", "amato")]),
               entry("b", [("stanca", "stanco")])]
    report = gender_accuracy(hyps, entries)
    assert report.found == 2 and report.correct == 1
    assert report.accuracy == pytest.approx(0.5)


def test_gender_accuracy_missing_hypothesis():
    with pytest.raises(MissingHypothesis):
        gender_accuracy({}, [entry("a", [("amata", "amato")])])


def test_entry_validation_and_swap():
    with pytest.raises(InvalidSpec):
        GenderEvalEntry(id="a", reference=("x",), wrong_reference=("y",),
                        term_pairs=())
    with pytest.raises(InvalidSpec):
        GenderEvalEntry(id="a", reference=("x",), wrong_reference=("y",),
                        term_pairs=(("amata", "amata"),))
    e = GenderEvalEntry(id="a", reference=("amata", "il"),
                        wrong_reference=("amato", "il"),
                        term_pairs=(("amata", "amato"),))
    s = e.swapped()
    assert s.reference == ("amato", "il")
    assert s.term_pairs == (("amato", "amata"),)
    assert s.swapped() == e


def test_bleu_identity_is_100():
    refs = [["il", "mare", "canta"], ["la", "luna", "dorme", "ora"]]
    assert corpus_bleu([list(r) for r in refs], refs) == pytest.approx(100.0)


def test_bleu_two_sentence_hand_computation():
    # Sentence 1: hyp "the cat sat on the mat" vs ref "the cat is on the mat"
    #   1-grams 5/6, 2-grams 3/5, 3-grams 1/4, 4-grams 0/3
    # Sentence 2: identity over "a b c d": 4/4, 3/3, 2/2, 1/1
    # Pooled precisions: 9/10, 6/8, 3/6, 1/4; lengths match so BP = 1.
    hyps = [["the", "cat", "sat", "on", "the", "mat"], ["a", "b", "c", "d"]]
    refs = [["the", "cat", "is", "on", "the", "mat"], ["a", "b", "c", "d"]]
    expected = 100.0 * (0.9 * 0.75 * 0.5 * 0.25) ** 0.25
    assert corpus_bleu(hyps, refs) == pytest.approx(expected, abs=1e-6)


def test_bleu_zero_numerator_smoothing():
    # hyp "a b c d" vs ref "a x c y": 1-grams 2/4; all higher n-grams miss,
    # so smoothed precisions are 1/(2*3), 1/(4*2), 1/(8*1).
    val = corpus_bleu([["a", "b", "c", "d"]], [["a", "x", "c", "y"]])
    expected = 100.0 * np.exp(np.mean(np.log(
        [2 / 4, 1 / (2 * 3), 1 / (4 * 2), 1 / (8 * 1)])))
    assert val == pytest.approx(expected, abs=1e-6)


def test_bleu_brevity_penalty():
    # Same clipped counts, shorter hypothesis: BP = exp(1 - 6/4).
    full = [["a", "b", "c", "d", "e", "f"]]
    short = [["a", "b", "c", "d"]]
    ratio = corpus_bleu(short, full) / corpus_bleu(full, full)
    # identical-prefix precision terms differ too; just check penalty applies
    assert corpus_bleu(short, full) < corpus_bleu(full, full)
    assert ratio < np.exp(1 - 6 / 4) + 1e-9


def test_bleu_disjoint_is_low():
    assert corpus_bleu([["a", "b", "c", "d"]], [["w", "x", "y", "z"]]) < 10.0


def test_bleu_without_a_4gram_is_zero():
    """No hypothesis has four tokens, so the 4-gram precision has no
    denominator and the score is 0, even for exact matches."""
    assert corpus_bleu([["a", "b", "c"], ["d"]], [["a", "b", "c"], ["d"]]) == 0.0


def test_bleu_length_mismatch():
    with pytest.raises(LengthMismatch):
        corpus_bleu([["a"]], [["a"], ["b"]])
    with pytest.raises(LengthMismatch):
        corpus_bleu([["a"]], [[]])


def test_eval_tsv_roundtrip(tmp_path):
    entries = [
        GenderEvalEntry(id="u0", reference=("amata", "il"),
                        wrong_reference=("amato", "il"),
                        term_pairs=(("amata", "amato"),)),
        GenderEvalEntry(id="u1", reference=("stanca", "nata"),
                        wrong_reference=("stanco", "nato"),
                        term_pairs=(("stanca", "stanco"), ("nata", "nato"))),
    ]
    path = tmp_path / "eval.tsv"
    write_eval_tsv(entries, path)
    assert read_eval_tsv(path) == entries


@pytest.mark.parametrize("line, message", [
    ("u1\tstanca\tstanco\tstanca-stanco", "term pairs 'stanca-stanco'"),
    ("u1\tstanca\tstanco\tstanca|stanco|x", "term pairs 'stanca|stanco|x'"),
    ("u1\tstanca\tstanca|stanco", "3 fields, expected 4"),
    ("u1\tstanca\tstanco\tstanca|stanco\textra", "5 fields, expected 4"),
    ("u1\tamata\tamato\tamata|amato;amata|amata", "u1: degenerate pair 'amata'"),
    ("u1\tamata\tamato\t|", "u1: degenerate pair ''"),
    ("u1\tamata\tamato\tAmata|amata", "u1: degenerate pair 'Amata'"),
    ("u\tamata\tamato\tamata|", "u: form '' of pair 'amata|' is empty or holds whitespace"),
    ("u0\tstanca\tstanco\tstanca|stanco", "duplicate utterance id 'u0' (first on line 1)"),
])
def test_read_eval_tsv_names_file_and_line(tmp_path, line, message):
    path = tmp_path / "eval.tsv"
    path.write_text("u0\tamata\tamato\tamata|amato\n" + line + "\n", encoding="utf-8")
    with pytest.raises(MalformedHeader, match=re.escape(f"eval.tsv:2: {message}")):
        read_eval_tsv(path)


def test_read_eval_tsv_skips_blank_lines_and_counts_them(tmp_path):
    """Blank lines are skipped, and a later bad line is named by its line
    number in the file."""
    path = tmp_path / "eval.tsv"
    good = "u0\tamata\tamato\tamata|amato\n"
    path.write_text("\n" + good + "\n\n", encoding="utf-8")
    assert [e.id for e in read_eval_tsv(path)] == ["u0"]
    path.write_text("\n" + good + "\n\nu1\tstanca\n", encoding="utf-8")
    with pytest.raises(MalformedHeader, match=re.escape("eval.tsv:5: 2 fields, expected 4")):
        read_eval_tsv(path)


def test_tag_inversion_scores_a_gender_unaware_model():
    """Both of a gender_unaware model's tags start at bos, so each utterance
    is decoded once, its matched and inverted hypotheses are that decode, and
    an inverted bucket finds the same terms as its matched one."""
    corpus, entries = generate_corpus(SynthSpec(n_utterances=6, gender_split=0.5, seed=3))
    assert {u.gender for u in corpus} == {SpeakerGender.F, SpeakerGender.M}
    model = TranslationModel(build_vocabulary(), ModelConfig(mode="gender_unaware"), seed=0)
    decodes = []
    greedy_decode = model.greedy_decode

    def recording_greedy_decode(enc, first_token, max_len):
        ids = greedy_decode(enc, first_token, max_len=max_len)
        decodes.append((first_token, ids))
        return ids

    model.greedy_decode = recording_greedy_decode
    reports, matched = tag_inversion_eval(model, corpus, entries)
    assert [tag for tag, _ in decodes] == [BOS_ID] * len(corpus)
    assert matched == {u.id: model.vocab.decode(ids) for u, (_, ids) in zip(corpus, decodes)}
    for same, inverted in (("1F", "1F-tagM"), ("1M", "1M-tagF")):
        assert reports[same].total_terms == reports[inverted].total_terms > 0
        assert reports[same].found == reports[inverted].found


def test_tag_inversion_decodes_a_multi_gender_model_under_f_then_m():
    """A multi_gender model's tags differ, so each utterance is decoded
    twice, under tag F and then tag M, and the matched hypothesis is the
    decode under the speaker's own tag."""
    corpus, entries = generate_corpus(SynthSpec(n_utterances=6, gender_split=0.5, seed=3))
    model = TranslationModel(build_vocabulary(), ModelConfig(mode="multi_gender"), seed=0)
    decodes = []
    greedy_decode = model.greedy_decode

    def recording_greedy_decode(enc, first_token, max_len):
        ids = greedy_decode(enc, first_token, max_len=max_len)
        decodes.append((first_token, ids))
        return ids

    model.greedy_decode = recording_greedy_decode
    _, matched = tag_inversion_eval(model, corpus, entries)
    assert [tag for tag, _ in decodes] == [TAG_F_ID, TAG_M_ID] * len(corpus)
    own = [decodes[2 * i + (u.gender is SpeakerGender.M)][1] for i, u in enumerate(corpus)]
    assert matched == {u.id: model.vocab.decode(ids) for u, ids in zip(corpus, own)}


@pytest.mark.parametrize("spec, one_row", [
    (SynthSpec(n_utterances=6, gender_split=0.5, seed=3), 0),
    # short tokens: a quarter of these utterances pool to a single row
    (SynthSpec(n_utterances=24, gender_split=0.5, token_duration=0.009, seed=0), 6),
], ids=["multi-row", "mixed"])
def test_tag_inversion_encodes_the_corpus_once_off_the_tape(monkeypatch, spec, one_row):
    """In both modes tag_inversion_eval encodes the corpus once, plus each
    one-row utterance on its own, under no_grad, so no encode records a
    tape; every decode reads rows bitwise those of its utterance's own
    taped encode."""
    corpus, entries = generate_corpus(spec)
    assert sum(len(u.pooled) == 1 for u in corpus) == one_row
    encodes, decodes = [], []
    encode, greedy_decode = TranslationModel.encode, TranslationModel.greedy_decode

    def spy_encode(self, batch):
        out = encode(self, batch)
        encodes.append(out)
        return out

    def spy_greedy_decode(self, enc, first_token, max_len=32):
        decodes.append(enc.tobytes())
        return greedy_decode(self, enc, first_token, max_len=max_len)

    # the benchmark's trained weights, whose decodes stop at eos, in each mode
    trained = load_model(Path(__file__).resolve().parents[1] / "bench" / "model" / "model.vxck")
    for mode in MODES:
        model = TranslationModel(trained.vocab, replace(trained.cfg, mode=mode))
        model.load_state_dict(trained.state_dict())
        own = [model.encode([u.pooled]) for u in corpus]
        assert all(e._parents for e in own)
        encodes.clear()
        decodes.clear()
        with monkeypatch.context() as m:
            m.setattr(TranslationModel, "encode", spy_encode)
            m.setattr(TranslationModel, "greedy_decode", spy_greedy_decode)
            tag_inversion_eval(model, corpus, entries)
        assert len(encodes) == 1 + one_row
        assert not any(e._parents for e in encodes)
        per_utt = 2 if mode == "multi_gender" else 1
        assert decodes == [e.values.tobytes() for e in own for _ in range(per_utt)]
