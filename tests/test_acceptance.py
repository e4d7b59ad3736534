"""End-to-end acceptance suite: exact formula checks plus a scaled-down
ordering experiment over the synthetic corpus. One test per criterion; each
prints a single summary line on success."""

import json
import time

import numpy as np
import pytest

from voxtag import autodiff as ad
from voxtag.audio import synth_harmonic
from voxtag import model as mdl
from voxtag.autodiff import LambdaSchedule, lambda_at
from voxtag.cli import main as cli_main
from voxtag.dsp import estimate_f0_contour, voiced_median, envelope_peak_hz
from voxtag.evaluation import (GenderEvalEntry, corpus_bleu, gender_accuracy,
                               tag_inversion_eval)
from voxtag.perturb import (FORMANT_SCALE, PerturbConfig, SpeakerGender, apply_opposite,
                            compute_alpha, pitch_formant_shift,
                            sample_target_median)
from voxtag.synthdata import (F_PEAKS, M_PEAKS, SynthSpec, build_vocabulary,
                              generate_corpus)
from voxtag.train import TrainConfig, probe_discriminator, train_loop

SEEDS = (0, 1, 2)
DESK = dict(total_updates=2000, warmup_updates=200, lr_peak=1e-3)


def report(line):
    print(f"\n[acceptance] {line}")


# ---------------------------------------------------------------------------
# Shared desk-scale experiment: one corpus, per-seed scratch / baseline /
# fine-tuned / adversarial models, reused by criteria 8 and 9.
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def experiment():
    corpus, entries = generate_corpus(SynthSpec(n_utterances=200, seed=11))
    probe_corpus, _ = generate_corpus(
        SynthSpec(n_utterances=80, gender_split=0.5, seed=2003))
    vocab = build_vocabulary()
    held, held_entries = corpus[:40], entries[:40]

    def run(model_cfg, train_cfg, init=None):
        return train_loop(corpus, model_cfg, train_cfg, init=init, vocab=vocab).model

    models = {}
    for seed in SEEDS:
        scratch = run(mdl.ModelConfig(mode="multi_gender"),
                      TrainConfig(seed=seed, **DESK))
        baseline = run(mdl.ModelConfig(mode="gender_unaware"),
                       TrainConfig(seed=seed, **DESK))
        finetune = run(mdl.ModelConfig(mode="multi_gender"),
                       TrainConfig(seed=seed, **DESK),
                       init=baseline.state_dict())
        models[seed] = {"scratch": scratch, "baseline": baseline,
                        "finetune": finetune}
    models[0]["grl"] = run(
        mdl.ModelConfig(mode="multi_gender"),
        TrainConfig(seed=0, use_grl=True,
                    grl_schedule=LambdaSchedule(total_updates=DESK["total_updates"],
                                                fixed_lambda=0.5),
                    **DESK))
    return {"models": models, "held": held, "held_entries": held_entries,
            "probe_corpus": probe_corpus}


# ---------------------------------------------------------------------------
# 1. Gradient reversal contract on random micro-networks
# ---------------------------------------------------------------------------

def test_criterion_01_grl_contract():
    start = time.time()
    rng = np.random.default_rng(0)
    for _ in range(100):
        m, k, n = rng.integers(2, 6, size=3)
        x = rng.normal(size=(m, k))
        w0 = rng.normal(size=(k, n))
        b0 = rng.normal(size=(n,))
        scale = rng.normal(size=(m, n))
        lam = float(rng.uniform(0.1, 5.0))
        act = [ad.relu, ad.tanh, lambda t: ad.softmax(t, axis=-1)][int(rng.integers(3))]

        def forward(with_grl):
            w = ad.Tensor(w0.copy(), requires_grad=True)
            b = ad.Tensor(b0.copy(), requires_grad=True)
            wu = ad.grl_apply(w, lam) if with_grl else w
            out = act(ad.add(ad.matmul(ad.Tensor(x), wu), b))
            ad.backward(ad.mean(ad.mul(out, scale)))
            return out.values, w.grad

        plain_out, plain_grad = forward(False)
        grl_out, grl_grad = forward(True)
        assert np.array_equal(plain_out, grl_out)  # identity forward
        assert np.array_equal(grl_grad, -lam * plain_grad)  # exact reversal
    elapsed = time.time() - start
    assert elapsed < 10.0
    report(f"criterion 1 PASS: 100 micro-networks, exact -lambda reversal, "
           f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. Finite-difference gradient checks: primitives + combined loss
# ---------------------------------------------------------------------------

def _numeric_grad(f, x, eps=1e-4):
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + eps
        hi = f(x)
        x[idx] = orig - eps
        lo = f(x)
        x[idx] = orig
        g[idx] = (hi - lo) / (2 * eps)
        it.iternext()
    return g


def test_criterion_02_gradient_checks():
    start = time.time()
    rng = np.random.default_rng(1)
    other = rng.normal(size=(3, 4))
    right = rng.normal(size=(4, 5))
    builders = {
        "add": lambda x: ad.sum_(ad.tanh(ad.add(x, other))),
        "mul": lambda x: ad.sum_(ad.mul(x, other)),
        "matmul": lambda x: ad.sum_(ad.tanh(ad.matmul(x, ad.Tensor(right)))),
        "relu": lambda x: ad.sum_(ad.relu(x)),
        "tanh": lambda x: ad.sum_(ad.tanh(x)),
        "softmax": lambda x: ad.sum_(ad.mul(ad.softmax(x, axis=-1), other)),
        "log": lambda x: ad.sum_(ad.log(ad.add(ad.mul(x, x), 1.0))),
        "mean": lambda x: ad.mean(x),
        "mean_axis": lambda x: ad.sum_(ad.mean(ad.mul(x, other), axis=0)),
        "concat": lambda x: ad.sum_(ad.tanh(ad.concat([x, ad.Tensor(other)], axis=0))),
    }
    for name, build in builders.items():
        x0 = rng.normal(size=(3, 4))
        x = ad.Tensor(x0.copy(), requires_grad=True)
        ad.backward(build(x))
        num = _numeric_grad(lambda v: float(build(ad.Tensor(v)).values), x0.copy())
        rel = np.max(np.abs(x.grad - num) / np.maximum(np.abs(num), 1e-8))
        assert rel < 1e-4, f"{name}: rel err {rel}"
    # embedding: gradient accumulation over repeated ids
    table = ad.Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    ad.backward(ad.sum_(ad.mul(ad.embedding(table, np.array([0, 2, 2])), 1.5)))
    expected = np.zeros((5, 3))
    expected[0] = 1.5
    expected[2] = 3.0
    assert np.allclose(table.grad, expected)

    # Full combined-loss graph. Encoder parameters see the discriminator
    # gradient through the reversal layer, so their reference value is
    # FD(translation) - lambda * weight * FD(disc); all other parameters
    # check against FD of the combined loss directly.
    lam = 0.5
    vocab = mdl.Vocabulary([f"t{i}" for i in range(6)])
    cfg = mdl.ModelConfig(feature_dim=10, hidden_dim=8, disc_hidden=6)
    model = mdl.TranslationModel(vocab, cfg, seed=3)
    feats = [np.random.default_rng(s).normal(size=(9, 10)) for s in (4, 5)]
    targets = [[5, 6, mdl.EOS_ID], [7, mdl.EOS_ID, mdl.PAD_ID]]
    prefixes = [[mdl.TAG_F_ID, 5, 6], [mdl.TAG_M_ID, 7, mdl.EOS_ID]]
    genders = [SpeakerGender.F, SpeakerGender.M]
    weights = mdl.compute_class_weights(0.5, 0.5)

    def losses(m):
        tl, dl = ad.Tensor(0.0), ad.Tensor(0.0)
        for f, pre, tgt, g in zip(feats, prefixes, targets, genders):
            enc = m.encode([mdl.pool4(f)])
            rows = [enc.shape[0]]
            tl = ad.add(tl, mdl.sequence_loss(m.decode_all(enc, [pre], rows), [tgt], 0.1))
            dl = ad.add(dl, mdl.weighted_disc_loss(m.discriminate(enc, lam, rows),
                                                   [g], weights))
        return tl, dl

    model.zero_grad()
    tl, dl = losses(model)
    ad.backward(mdl.combined_loss(tl, dl, cfg))
    state = model.state_dict()
    twin = mdl.TranslationModel(vocab, cfg, seed=3)
    rng2 = np.random.default_rng(6)
    for name in state:
        flat = rng2.integers(state[name].size)
        idx = np.unravel_index(flat, state[name].shape)
        eps = 1e-4
        tl_vals, dl_vals = [], []
        for delta in (eps, -eps):
            probe = {k: v.copy() for k, v in state.items()}
            probe[name][idx] += delta
            twin.load_state_dict(probe)
            tv, dv = losses(twin)
            tl_vals.append(float(tv.values))
            dl_vals.append(float(dv.values))
        fd_tl = (tl_vals[0] - tl_vals[1]) / (2 * eps)
        fd_dl = (dl_vals[0] - dl_vals[1]) / (2 * eps)
        sign = -lam if name.startswith("enc.") else 1.0
        numeric = fd_tl + cfg.disc_loss_weight * sign * fd_dl
        analytic = model.params[name].grad[idx]
        assert abs(analytic - numeric) / max(abs(numeric), 1e-8) < 1e-4, name
    elapsed = time.time() - start
    assert elapsed < 60.0
    report(f"criterion 2 PASS: primitives + combined loss vs finite "
           f"differences, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. Lambda schedule endpoints and monotonicity
# ---------------------------------------------------------------------------

def test_criterion_03_lambda_schedule():
    sched = LambdaSchedule(gamma=10.0, total_updates=1000)
    assert lambda_at(sched, 0) == 0.0
    assert lambda_at(sched, 1000) == pytest.approx(0.999909, abs=1e-6)
    values = [lambda_at(sched, s) for s in range(1001)]
    assert all(b >= a for a, b in zip(values, values[1:]))
    report("criterion 3 PASS: lambda(0)=0, lambda(1)=0.999909+-1e-6, monotone")


# ---------------------------------------------------------------------------
# 4. Class-weight solution
# ---------------------------------------------------------------------------

def test_criterion_04_class_weights():
    rng = np.random.default_rng(4)
    for _ in range(1000):
        f_f = float(rng.uniform(0.01, 0.99))
        w = mdl.compute_class_weights(f_f, 1.0 - f_f)
        assert abs(w.w_f * f_f + w.w_m * (1.0 - f_f) - 1.0) < 1e-9
    balanced = mdl.compute_class_weights(0.5, 0.5)
    assert (balanced.w_f, balanced.w_m) == (1.0, 1.0)
    skewed = mdl.compute_class_weights(0.357, 0.643)
    assert abs(skewed.w_f - 1.4) < 0.05 and abs(skewed.w_m - 0.8) < 0.05
    report("criterion 4 PASS: 1000 random pairs at 1e-9; (0.357,0.643) -> "
           f"({skewed.w_f:.3f},{skewed.w_m:.3f})")


# ---------------------------------------------------------------------------
# 5. Pitch manipulation fidelity and target ranges
# ---------------------------------------------------------------------------

def test_criterion_05_pitch_manipulation():
    rng = np.random.default_rng(5)
    checked = 0
    for i in range(50):
        to_f = i % 2 == 0  # alternate M->F and F->M
        if to_f:
            f0 = float(rng.uniform(110, 165))
            peaks, target_gender, scale = M_PEAKS, SpeakerGender.F, FORMANT_SCALE[SpeakerGender.F]
            lo, hi = 199.0, 301.0
        else:
            f0 = float(rng.uniform(200, 290))
            peaks, target_gender, scale = F_PEAKS, SpeakerGender.M, FORMANT_SCALE[SpeakerGender.M]
            lo, hi = 80.0, 200.0
        w = synth_harmonic(f0, peaks, 0.4)
        pre = voiced_median(estimate_f0_contour(w))
        target = sample_target_median(target_gender, rng)
        assert lo <= target <= hi  # truncated sampling stays in range
        alpha = compute_alpha(pre, target)
        post = voiced_median(estimate_f0_contour(pitch_formant_shift(w, alpha, scale)))
        assert abs(post - alpha * pre) / (alpha * pre) <= 0.03
        checked += 1
    assert checked == 50
    report("criterion 5 PASS: 50 shifts, post median within 3% of alpha x pre, "
           "targets inside gender ranges")


# ---------------------------------------------------------------------------
# 6. Formant scaling
# ---------------------------------------------------------------------------

def test_criterion_06_formant_scaling():
    m_vowel = synth_harmonic(120.0, [(700.0, 8.0)], 0.4)
    up = pitch_formant_shift(m_vowel, 1.0, 1.2)
    peak_up = envelope_peak_hz(up, f0=120.0)
    assert abs(peak_up - 1.2 * 700.0) / (1.2 * 700.0) <= 0.05
    f_vowel = synth_harmonic(240.0, [(900.0, 8.0)], 0.4)
    down = pitch_formant_shift(f_vowel, 1.0, 0.8)
    peak_down = envelope_peak_hz(down, f0=240.0)
    assert abs(peak_down - 0.8 * 900.0) / (0.8 * 900.0) <= 0.05
    report(f"criterion 6 PASS: x1.2 -> {peak_up:.0f} Hz, x0.8 -> "
           f"{peak_down:.0f} Hz, both within 5%")


# ---------------------------------------------------------------------------
# 7. Perturbation decorrelates the audible gender cue
# ---------------------------------------------------------------------------

def test_criterion_07_decorrelation():
    corpus, _ = generate_corpus(SynthSpec(n_utterances=1000, gender_split=0.5,
                                          seed=17))
    labels = np.array([u.gender is SpeakerGender.F for u in corpus], dtype=float)

    def classifier_outputs(p, salt):
        cfg = PerturbConfig(p=p)
        outs = np.zeros(len(corpus))
        for i, utt in enumerate(corpus):
            rng = np.random.default_rng([salt, i])
            w, _ = apply_opposite(utt.waveform, utt.gender, cfg, rng)
            outs[i] = voiced_median(estimate_f0_contour(w)) > 170.0
        return outs

    corr_half = np.corrcoef(labels, classifier_outputs(0.5, 1))[0, 1]
    assert abs(corr_half) < 0.1
    corr_most = np.corrcoef(labels, classifier_outputs(0.8, 2))[0, 1]
    assert corr_most < -0.4
    report(f"criterion 7 PASS: corr(p=0.5)={corr_half:+.3f}, "
           f"corr(p=0.8)={corr_most:+.3f}")


# ---------------------------------------------------------------------------
# 8. Ordering experiment: scratch obeys the tag, fine-tuned does not
# ---------------------------------------------------------------------------

def _bucket_accuracies(model, held, entries):
    reports, _ = tag_inversion_eval(model, held, entries)
    return {k: r.accuracy for k, r in reports.items()}


def test_criterion_08_tag_ordering(experiment):
    held, entries = experiment["held"], experiment["held_entries"]
    scratch = {k: [] for k in ("1F", "1M", "1F-tagM", "1M-tagF")}
    tuned = {k: [] for k in scratch}
    for seed in SEEDS:
        for name, accs in (("scratch", scratch), ("finetune", tuned)):
            for key, val in _bucket_accuracies(
                    experiment["models"][seed][name], held, entries).items():
                assert val is not None, f"{name} seed {seed}: empty bucket {key}"
                accs[key].append(val)
    mean = {name: {k: float(np.mean(v)) for k, v in accs.items()}
            for name, accs in (("scratch", scratch), ("finetune", tuned))}
    # (a) from-scratch: inverted buckets high and close to matched
    for inv, match in (("1F-tagM", "1F"), ("1M-tagF", "1M")):
        assert mean["scratch"][inv] >= 0.80
        assert mean["scratch"][match] - mean["scratch"][inv] <= 0.15
    # (b) fine-tuned at least 20 points lower on one inverted bucket
    assert any(mean["scratch"][k] - mean["finetune"][k] >= 0.20
               for k in ("1F-tagM", "1M-tagF"))
    report("criterion 8 PASS: scratch inverted "
           f"({mean['scratch']['1F-tagM']:.2f}, {mean['scratch']['1M-tagF']:.2f}) "
           f"vs fine-tuned ({mean['finetune']['1F-tagM']:.2f}, "
           f"{mean['finetune']['1M-tagF']:.2f}), 3-seed means")


# ---------------------------------------------------------------------------
# 9. Equalized-odds probe
# ---------------------------------------------------------------------------

def test_criterion_09_probe(experiment):
    probe_corpus = experiment["probe_corpus"]
    adversarial = probe_discriminator(experiment["models"][0]["grl"],
                                      probe_corpus, seed=0)
    baseline = probe_discriminator(experiment["models"][0]["baseline"],
                                   probe_corpus, seed=0)
    assert adversarial <= 0.65
    assert baseline > 0.90
    report(f"criterion 9 PASS: probe {adversarial:.3f} (reversal-trained) "
           f"vs {baseline:.3f} (gender-unaware)")


# ---------------------------------------------------------------------------
# 10. Metric oracles
# ---------------------------------------------------------------------------

def test_criterion_10_metric_oracles():
    # Twenty hand-counted gender-accuracy cases.
    def entry(pairs):
        return GenderEvalEntry(id="u", reference=("x",),
                               wrong_reference=tuple(w for _, w in pairs) + ("x",),
                               term_pairs=tuple(pairs))

    cases = [
        (["amata"], [("amata", "amato")], (1, 1, 1)),
        (["amato"], [("amata", "amato")], (1, 0, 1)),
        (["casa"], [("amata", "amato")], (0, 0, 1)),
        ([], [("amata", "amato")], (0, 0, 1)),
        (["AMATA"], [("amata", "amato")], (1, 1, 1)),
        (["amata"], [("AMATA", "AMATO")], (1, 1, 1)),
        (["amatamente"], [("amata", "amato")], (0, 0, 1)),
        (["amata", "amato"], [("amata", "amato")], (1, 1, 1)),
        (["amata", "stanca"], [("amata", "amato"), ("stanca", "stanco")], (2, 2, 2)),
        (["amata", "stanco"], [("amata", "amato"), ("stanca", "stanco")], (2, 1, 2)),
        (["amato", "stanco"], [("amata", "amato"), ("stanca", "stanco")], (2, 0, 2)),
        (["amata", "casa"], [("amata", "amato"), ("stanca", "stanco")], (1, 1, 2)),
        (["casa", "il"], [("amata", "amato"), ("stanca", "stanco")], (0, 0, 2)),
        (["amata", "amata"], [("amata", "amato")], (1, 1, 1)),
        (["rotta"], [("rotta", "rotto"), ("nata", "nato")], (1, 1, 2)),
        (["nato"], [("rotta", "rotto"), ("nata", "nato")], (1, 0, 2)),
        (["rotta", "nato", "il"], [("rotta", "rotto"), ("nata", "nato")], (2, 1, 2)),
        (["Rotta", "NATO"], [("rotta", "rotto"), ("nata", "nato")], (2, 1, 2)),
        (["sola"], [("sola", "solo"), ("sola", "solo")], (2, 2, 2)),
        (["perduta", "x", "perduto"], [("perduto", "perduta")], (1, 1, 1)),
    ]
    assert len(cases) == 20
    for tokens, pairs, (found, correct, total) in cases:
        rep = gender_accuracy({"u": tokens}, [entry(pairs)])
        assert (rep.found, rep.correct, rep.total_terms) == (found, correct, total)

    # Two-sentence BLEU by hand: pooled clipped precisions 9/10, 6/8, 3/6,
    # 1/4 with equal lengths (no brevity penalty).
    hyps = [["the", "cat", "sat", "on", "the", "mat"], ["a", "b", "c", "d"]]
    refs = [["the", "cat", "is", "on", "the", "mat"], ["a", "b", "c", "d"]]
    expected = 100.0 * (0.9 * 0.75 * 0.5 * 0.25) ** 0.25
    assert corpus_bleu(hyps, refs) == pytest.approx(expected, abs=1e-6)
    assert corpus_bleu([list(r) for r in refs], refs) == pytest.approx(100.0)
    report("criterion 10 PASS: 20 gender-accuracy cases, hand BLEU to 1e-6, "
           "identity = 100.0")


# ---------------------------------------------------------------------------
# 11. CLI determinism
# ---------------------------------------------------------------------------

def test_criterion_11_cli_determinism(tmp_path):
    corpus = tmp_path / "corpus"
    assert cli_main(["synth-data", "--n-utterances", "24", "--seed", "6",
                     "--out", str(corpus)]) == 0
    manifest = str(corpus / "manifest.tsv")
    train_argv = ["train", "--manifest", manifest, "--mode", "multi_gender",
                  "--total-updates", "80", "--warmup-updates", "20",
                  "--batch-size", "4", "--seed", "3"]
    for run in ("a", "b"):
        assert cli_main(train_argv + ["--out", str(tmp_path / run)]) == 0
        assert cli_main(["evaluate", "--model", str(tmp_path / run / "model.vxck"),
                         "--manifest", manifest,
                         "--eval-tsv", str(corpus / "eval.tsv"),
                         "--out", str(tmp_path / f"report_{run}.json")]) == 0
    a, b = tmp_path / "a", tmp_path / "b"
    for name in sorted(p.name for p in a.iterdir()):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    assert (tmp_path / "report_a.json").read_bytes() == \
        (tmp_path / "report_b.json").read_bytes()
    json.loads((tmp_path / "report_a.json").read_text())  # well-formed
    report("criterion 11 PASS: repeated CLI runs byte-identical "
           "(checkpoints, metrics, reports)")
