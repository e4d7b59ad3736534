import numpy as np
import pytest

from voxtag.autodiff import LambdaSchedule
from voxtag.errors import ConfigInvalid, DivergedLoss, SingleClassData
from voxtag.model import ModelConfig, TranslationModel
from voxtag.perturb import SpeakerGender
from voxtag.synthdata import SynthSpec, build_vocabulary, generate_corpus
from voxtag.train import (PROBE_STEPS, Adam, TrainConfig, average_checkpoints, noam_lr,
                          probe_discriminator, train_loop)


@pytest.fixture(scope="module")
def tiny_corpus():
    utterances, _ = generate_corpus(SynthSpec(n_utterances=16, seed=9))
    return utterances


def tiny_cfg(**kw):
    base = dict(total_updates=20, warmup_updates=5, batch_size=4,
                average_last=2, seed=0)
    base.update(kw)
    return TrainConfig(**base)


def test_noam_shape():
    peak, warmup = 2e-3, 200
    assert noam_lr(warmup, warmup, peak) == pytest.approx(peak)
    assert noam_lr(warmup // 2, warmup, peak) == pytest.approx(peak / 2)
    assert noam_lr(4 * warmup, warmup, peak) == pytest.approx(peak / 2)
    steps = np.arange(1, 1000)
    lrs = np.array([noam_lr(s, warmup, peak) for s in steps])
    assert np.argmax(lrs) == warmup - 1
    assert np.all(np.diff(lrs[warmup:]) < 0)


def test_config_validation():
    with pytest.raises(ConfigInvalid):
        TrainConfig(warmup_updates=100, total_updates=50)
    with pytest.raises(ConfigInvalid):
        TrainConfig(batch_size=0)
    with pytest.raises(ConfigInvalid, match="^average_last 20 exceeds the 10 checkpoints saved"):
        TrainConfig(total_updates=100, warmup_updates=10, checkpoint_interval=10, average_last=20)
    # the default interval saves average_last checkpoints once the run is long enough
    assert TrainConfig(total_updates=100, warmup_updates=10, average_last=20).interval == 5
    assert TrainConfig(total_updates=200, average_last=20).interval == 10
    for kw, key in (({"average_last": 0}, "average_last"), ({"average_last": -3}, "average_last"),
                    ({"checkpoint_interval": -5}, "checkpoint_interval"),
                    ({"lr_peak": 0.0}, "lr_peak"), ({"lr_peak": -1.0}, "lr_peak"),
                    ({"lr_peak": float("inf")}, "lr_peak"), ({"lr_peak": float("nan")}, "lr_peak")):
        with pytest.raises(ConfigInvalid, match=f"^{key} must be"):
            TrainConfig(**kw)
    with pytest.raises(ConfigInvalid, match="^average_last 7 exceeds the 4 checkpoints saved, "
                                            "one every 1 of 4 updates; at that interval "
                                            "total_updates must be at least 7$"):
        TrainConfig(total_updates=4, warmup_updates=2)
    with pytest.raises(ConfigInvalid, match="^average_last 3 exceeds the 2 checkpoints saved, "
                                            "one every 40 of 100 updates; at that interval "
                                            "total_updates must be at least 120$"):
        TrainConfig(total_updates=100, warmup_updates=10, checkpoint_interval=40, average_last=3)
    with pytest.raises(ConfigInvalid, match="^grl_schedule is set but use_grl is False$"):
        TrainConfig(grl_schedule=LambdaSchedule(total_updates=2000, fixed_lambda=0.5))


@pytest.mark.parametrize("kw, hint, suggested", [
    # below average_last updates the default interval saves one per update
    ({"total_updates": 15, "warmup_updates": 5, "average_last": 20},
     "at that interval total_updates must be at least 20", {"total_updates": 20}),
    ({"total_updates": 60, "warmup_updates": 10, "checkpoint_interval": 4, "average_last": 16},
     "at that interval total_updates must be at least 64", {"total_updates": 64}),
    ({"total_updates": 4, "warmup_updates": 2}, "at that interval total_updates must be at least 7",
     {"total_updates": 7}),
    ({"total_updates": 100, "warmup_updates": 10, "checkpoint_interval": 40, "average_last": 3},
     "at that interval total_updates must be at least 120", {"total_updates": 120}),
])
def test_too_few_checkpoints_hint_names_a_config_that_is_accepted(kw, hint, suggested):
    with pytest.raises(ConfigInvalid) as info:
        TrainConfig(**kw)
    assert str(info.value).endswith(f"; {hint}")
    cfg = TrainConfig(**{**kw, **suggested})
    assert cfg.total_updates // cfg.interval >= cfg.average_last


@pytest.mark.parametrize("p", [-0.1, 1.5, float("nan")])
def test_perturb_p_outside_unit_interval_is_rejected(p):
    with pytest.raises(ConfigInvalid, match="^perturb_p must be in \\[0, 1\\]"):
        TrainConfig(perturb_p=p)


def test_perturb_p_accepts_both_ends():
    assert TrainConfig(perturb_p=0.0).perturb_p == 0.0
    assert TrainConfig(perturb_p=1.0).perturb_p == 1.0


def test_default_lambda_is_fixed_and_harder_from_init(tiny_corpus, tmp_path):
    import json
    vocab = build_vocabulary()
    init = TranslationModel(vocab, ModelConfig(), seed=5).state_dict()
    cfg = tiny_cfg(total_updates=5, warmup_updates=2, average_last=1, use_grl=True)
    for start, lam in ((None, 0.5), (init, 10.0)):
        path = tmp_path / "metrics.jsonl"
        train_loop(tiny_corpus, ModelConfig(), cfg, init=start, vocab=vocab,
                   metrics_path=path)
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert [row["lambda"] for row in rows] == [lam] * 5


def test_training_is_seed_deterministic(tiny_corpus):
    vocab = build_vocabulary()
    runs = [train_loop(tiny_corpus, ModelConfig(mode="multi_gender"),
                       tiny_cfg(seed=3), vocab=vocab) for _ in range(2)]
    for name in runs[0].model.params:
        np.testing.assert_array_equal(runs[0].model.params[name].values,
                                      runs[1].model.params[name].values)
    assert runs[0].val_losses == runs[1].val_losses


def test_checkpoint_cadence_and_averaging(tiny_corpus):
    cfg = tiny_cfg(total_updates=20, checkpoint_interval=5, average_last=4)
    res = train_loop(tiny_corpus, ModelConfig(), cfg)
    assert len(res.checkpoints) == 4
    avg = average_checkpoints(res.checkpoints)
    for name in avg:
        expected = np.mean([c[name] for c in res.checkpoints], axis=0)
        np.testing.assert_allclose(avg[name], expected)
        np.testing.assert_array_equal(res.model.params[name].values, avg[name])


def test_a_run_keeps_its_last_checkpoints_and_returns_their_average(tiny_corpus):
    """Run A keeps every checkpoint it saves, run B of the same seed only its
    last two; B's model is their mean, bit for bit."""
    a, b = [train_loop(tiny_corpus, ModelConfig(),
                       tiny_cfg(total_updates=20, checkpoint_interval=5, average_last=last))
            for last in (4, 2)]
    assert len(a.checkpoints) == 4 and len(b.checkpoints) == 2
    for kept, full in zip(b.checkpoints, a.checkpoints[-2:]):
        assert list(kept) == list(full)
        for name in full:
            assert kept[name].tobytes() == full[name].tobytes()
    avg = average_checkpoints(b.checkpoints)
    assert list(b.model.params) == list(avg)
    for name, values in avg.items():
        assert b.model.params[name].values.tobytes() == values.tobytes()


def test_fine_tune_starts_from_init(tiny_corpus):
    vocab = build_vocabulary()
    base = train_loop(tiny_corpus, ModelConfig(mode="gender_unaware"),
                      tiny_cfg(seed=1), vocab=vocab)
    init = base.model.state_dict()
    donor = {name: values.copy() for name, values in init.items()}
    ft = train_loop(tiny_corpus, ModelConfig(mode="gender_unaware"),
                    tiny_cfg(seed=1),
                    init=init, vocab=vocab)
    # The model wraps init's arrays without copying; updates must not write them.
    for name in donor:
        np.testing.assert_array_equal(init[name], donor[name])
    # The fine-tune run's initial validation loss is the donor's final state.
    direct = train_loop(tiny_corpus, ModelConfig(mode="gender_unaware"),
                        tiny_cfg(seed=2),
                        init=init, vocab=vocab)
    assert ft.val_losses[0][1] == pytest.approx(direct.val_losses[0][1])
    assert ft.val_losses[0][1] != pytest.approx(base.val_losses[0][1])


def test_metrics_jsonl(tiny_corpus, tmp_path):
    import json
    path = tmp_path / "metrics.jsonl"
    train_loop(tiny_corpus, ModelConfig(mode="multi_gender"),
               tiny_cfg(use_grl=True), metrics_path=path)
    lines = [json.loads(l) for l in path.read_text().splitlines()]
    assert len(lines) == 20
    assert [l["step"] for l in lines] == list(range(1, 21))
    for l in lines:
        assert set(l) == {"step", "lr", "translation_loss", "disc_loss", "lambda"}
        assert l["lambda"] == pytest.approx(0.5)
        assert np.isfinite(l["translation_loss"])


@pytest.mark.parametrize("bad_val", [10.5, float("nan")])
def test_diverged_validation_loss_stops_training(tiny_corpus, tmp_path, monkeypatch, bad_val):
    """A validation loss above 10x the initial one, or not finite, raises
    DivergedLoss at the first interval; metrics.jsonl is closed and holds
    exactly the steps run before the raise."""
    import json
    from voxtag import train
    # the initial validation loss, then the first interval's; a third read
    # would raise StopIteration
    val_losses = iter([1.0, bad_val])
    opened = []

    def recording_open(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(train, "_val_loss", lambda *args: next(val_losses))
    monkeypatch.setattr(train, "open", recording_open, raising=False)
    path = tmp_path / "metrics.jsonl"
    cfg = tiny_cfg(checkpoint_interval=3, average_last=1)
    with pytest.raises(DivergedLoss, match="at step 3"):
        train_loop(tiny_corpus, ModelConfig(mode="multi_gender"), cfg, metrics_path=path)
    assert len(opened) == 1 and opened[0].closed
    steps = [json.loads(l)["step"] for l in path.read_text().splitlines()]
    assert steps == [1, 2, 3]


def test_perturbation_redrawn_each_epoch(tiny_corpus, monkeypatch):
    """With perturb active, each epoch makes fresh opposite-shift decisions."""
    from voxtag import train as train_mod
    calls = []

    def spy(w, gender, cfg, rng):
        calls.append(rng.random())
        return w, False

    monkeypatch.setattr(train_mod, "apply_opposite", spy)
    cfg = tiny_cfg(total_updates=8, batch_size=8, average_last=1, perturb_p=0.5)
    train_loop(tiny_corpus, ModelConfig(), cfg)
    n_train = len(tiny_corpus) - max(2, round(0.1 * len(tiny_corpus)))
    epochs = len(calls) // n_train
    assert epochs >= 2
    first = calls[:n_train]
    second = calls[n_train:2 * n_train]
    assert first != second  # fresh draws, not replayed ones


def test_perturb_p_zero_never_perturbs_and_trains_as_unperturbed(tiny_corpus, monkeypatch):
    """perturb_p=0 is the default: no example goes through apply_opposite and
    the run is bitwise the run that never names perturbation."""
    from voxtag import train as train_mod
    calls = []

    def spy(*args):
        calls.append(args)
        return args[0], False

    monkeypatch.setattr(train_mod, "apply_opposite", spy)
    runs = [train_loop(tiny_corpus, ModelConfig(mode="multi_gender"), cfg)
            for cfg in (tiny_cfg(total_updates=8, perturb_p=0.0), tiny_cfg(total_updates=8))]
    assert calls == []
    states = [{k: v.tobytes() for k, v in r.model.state_dict().items()} for r in runs]
    assert states[0] == states[1]
    assert runs[0].val_losses == runs[1].val_losses


def test_perturbation_runs_once_per_trained_example_on_its_own_generator(tiny_corpus,
                                                                        monkeypatch):
    """14 training utterances at batch 4 make 4 batches an epoch; 10 updates
    end two batches into the third epoch. apply_opposite runs once for each
    example a batch trains on, in batch order, and never for the rest of that
    partial epoch; each call draws from default_rng([seed, 7919, epoch, i]),
    where i is the example's index in the training set."""
    from voxtag import train as train_mod
    calls, batches = [], []

    def spy(w, gender, cfg, rng):
        calls.append((id(w), rng.bit_generator.state))
        return w, False

    backward_batch = train_mod._backward_batch

    def recording_backward_batch(model, batch, *args):
        batches.append([id(u.waveform) for u in batch])
        return backward_batch(model, batch, *args)

    monkeypatch.setattr(train_mod, "apply_opposite", spy)
    monkeypatch.setattr(train_mod, "_backward_batch", recording_backward_batch)
    seed, n_val = 5, 2
    cfg = tiny_cfg(total_updates=10, batch_size=4, average_last=1, seed=seed, perturb_p=0.5)
    train_loop(tiny_corpus, ModelConfig(), cfg)
    assert [len(b) for b in batches] == [4, 4, 4, 2] * 2 + [4, 4]
    assert [w for w, _ in calls] == [w for b in batches for w in b]
    index = {id(u.waveform): i for i, u in enumerate(tiny_corpus[n_val:])}
    expected = [np.random.default_rng([seed, 7919, k // 4, index[w]]).bit_generator.state
                for k, batch in enumerate(batches) for w in batch]
    assert [state for _, state in calls] == expected


def test_manipulated_utterances_train_on_perturbed_features(monkeypatch):
    """Every row matrix the encoder sees is the pooled log-mel of the waveform
    that utterance trains on: the returned one when apply_opposite
    manipulated it, the clean one otherwise."""
    from voxtag import train as train_mod
    from voxtag.audio import Waveform
    from voxtag.dsp import logmel_features
    from voxtag.model import pool4
    corpus, _ = generate_corpus(SynthSpec(n_utterances=16, seed=9))
    n_val = 2  # the held-out head of a 16-utterance corpus, never perturbed
    manipulate = {id(u.waveform): u.id for u in corpus[n_val::2]}
    returned = {}

    def fake(w, gender, cfg, rng):
        if id(w) not in manipulate:
            return w, False
        uid = manipulate[id(w)]
        returned.setdefault(uid, Waveform(w.samples[::-1].copy(), w.sample_rate))
        return returned[uid], True

    seen = []
    encode = TranslationModel.encode

    def recording_encode(self, pooled):
        seen.extend(pooled)
        return encode(self, pooled)

    monkeypatch.setattr(train_mod, "apply_opposite", fake)
    monkeypatch.setattr(TranslationModel, "encode", recording_encode)
    cfg = tiny_cfg(total_updates=12, batch_size=4, perturb_p=1.0)
    train_loop(corpus, ModelConfig(mode="multi_gender"), cfg)

    expected = {u.id: pool4(logmel_features(u.waveform).frames) for u in corpus}
    expected.update({uid: pool4(logmel_features(w).frames) for uid, w in returned.items()})
    assert set(returned) == set(manipulate.values())
    used = set()
    for f in seen:
        match = [uid for uid, e in expected.items() if np.array_equal(f, e)]
        assert len(match) == 1
        used.update(match)
    assert used == set(expected)


def test_perturbed_training_leaves_caller_corpus_clean():
    """Perturbation makes new utterances: the caller's keep their waveform
    objects and their encoder input stays the pooled clean log-mels."""
    from voxtag.dsp import logmel_features
    from voxtag.model import pool4
    corpus, _ = generate_corpus(SynthSpec(n_utterances=16, seed=9))
    waveforms = [u.waveform for u in corpus]
    samples = [u.waveform.samples.copy() for u in corpus]
    cfg = tiny_cfg(total_updates=8, batch_size=4, perturb_p=1.0)
    train_loop(corpus, ModelConfig(mode="multi_gender"), cfg)
    for utt, w, x in zip(corpus, waveforms, samples):
        assert utt.waveform is w
        np.testing.assert_array_equal(utt.waveform.samples, x)
        np.testing.assert_array_equal(utt.pooled, pool4(logmel_features(w).frames))


def test_probe_requires_both_classes(tiny_corpus):
    vocab = build_vocabulary()
    model = TranslationModel(vocab, ModelConfig(), seed=0)
    only_f = [u for u in tiny_corpus if u.gender is SpeakerGender.F]
    with pytest.raises(SingleClassData):
        probe_discriminator(model, only_f)


def test_adversary_and_probe_classify_with_one_gender_head(tiny_corpus, monkeypatch):
    """discriminate runs gender_head on the model's disc.* parameters; the
    probe runs it on its own, once per step and once on the test split."""
    from voxtag import model as mdl
    on_model_params = []
    gender_head = mdl.gender_head

    def spy(params, x, pool):
        on_model_params.append(params is model.params)
        return gender_head(params, x, pool)

    monkeypatch.setattr(mdl, "gender_head", spy)
    model = TranslationModel(build_vocabulary(), ModelConfig(), seed=0)
    pooled = [utt.pooled for utt in tiny_corpus[:2]]
    logits = model.discriminate(model.encode(pooled), 0.5, [len(rows) for rows in pooled])
    assert logits.shape == (2, 2)
    probe_discriminator(model, tiny_corpus)
    assert on_model_params == [True] + [False] * (PROBE_STEPS + 1)


def test_adam_moves_toward_minimum():
    from voxtag import autodiff as ad
    x = ad.Tensor(np.array([5.0]), requires_grad=True)
    opt = Adam({"x": x})
    for _ in range(400):
        x.zero_grad()
        loss = ad.mul(ad.mul(x, x), 0.5)
        ad.backward(ad.mean(loss))
        opt.step(0.05)
    assert abs(float(x.values[0])) < 1e-2


def test_adam_step_matches_reference_update():
    """Adam folds both bias corrections into a step size lr * sqrt(c2) / c1
    and a floor eps * sqrt(c2) (Kingma & Ba, 2015, section 2). Its parameters
    equal that folded update bit for bit and its moments the textbook ones;
    over 3001 steps its parameters stay within rtol 1e-12 of the textbook
    update, which divides by both corrections. Each step gives each parameter
    a fresh values array."""
    from voxtag import autodiff as ad
    rng = np.random.default_rng(8)
    params = {"enc.w": ad.Tensor(rng.normal(size=(3, 4))), "disc.b": ad.Tensor(rng.normal(size=4))}
    opt = Adam(params, lr_scale={"disc": 10.0})
    m = {k: np.zeros_like(t.values) for k, t in params.items()}
    v = {k: np.zeros_like(t.values) for k, t in params.items()}
    textbook = {k: t.values for k, t in params.items()}
    for t in range(1, 3002):
        c1, c2 = 1 - 0.9 ** t, 1 - 0.98 ** t
        step_size, eps_hat = 1e-2 * np.sqrt(c2) / c1, 1e-9 * np.sqrt(c2)
        folded = {}
        for name, p in params.items():
            p.grad = rng.normal(size=p.values.shape)
            g = p.grad
            m[name] = 0.9 * m[name] + (1 - 0.9) * g
            v[name] = 0.98 * v[name] + (1 - 0.98) * g ** 2
            scale = 10.0 if name.startswith("disc.") else 1.0
            folded[name] = p.values - m[name] / (np.sqrt(v[name]) + eps_hat) * (scale * step_size)
            m_hat, v_hat = m[name] / c1, v[name] / c2
            textbook[name] = textbook[name] - scale * 1e-2 * m_hat / (np.sqrt(v_hat) + 1e-9)
        held = {k: p.values for k, p in params.items()}
        opt.step(1e-2)
        for name, p in params.items():
            assert p.values is not held[name]
            assert p.values.tobytes() == folded[name].tobytes(), (t, name)
            assert opt.m[name].tobytes() == m[name].tobytes(), (t, name)
            assert opt.v[name].tobytes() == v[name].tobytes(), (t, name)
    for name, p in params.items():
        np.testing.assert_allclose(p.values, textbook[name], rtol=1e-12, atol=0, err_msg=name)


@pytest.mark.parametrize("batch_size", [1, 3, 8])
def test_chunked_val_loss_is_mean_of_utterance_losses(tiny_corpus, batch_size):
    from voxtag import model as mdl
    from voxtag import train as train_mod
    vocab = build_vocabulary()
    model = TranslationModel(vocab, ModelConfig(mode="multi_gender"), seed=4)
    per_utt = []
    for utt in tiny_corpus:
        targets = vocab.encode(utt.target_tokens) + [mdl.EOS_ID]
        tag = mdl.TAG_F_ID if utt.gender is SpeakerGender.F else mdl.TAG_M_ID
        enc = model.encode([utt.pooled])
        loss = mdl.sequence_loss(model.decode_all(enc, [[tag] + targets[:-1]], [enc.shape[0]]),
                                 [targets], model.cfg.label_smoothing)
        per_utt.append(loss.values.item())
    chunked = train_mod._val_loss(model, tiny_corpus, vocab, batch_size)
    assert chunked == pytest.approx(np.mean(per_utt), rel=1e-10, abs=0)


@pytest.mark.parametrize("batch_size", [1, 3, 8])
def test_val_loss_runs_off_the_tape_bitwise(tiny_corpus, batch_size, monkeypatch):
    """_val_loss builds no tape, and its value is bitwise that of the taped
    forward it replaced."""
    import contextlib

    from voxtag import autodiff as ad
    from voxtag import train as train_mod
    vocab = build_vocabulary()
    model = TranslationModel(vocab, ModelConfig(mode="multi_gender"), seed=4)
    losses = []
    translation_loss = train_mod._translation_loss

    def spy(*args):
        out = translation_loss(*args)
        losses.append(out[2])
        return out

    monkeypatch.setattr(train_mod, "_translation_loss", spy)
    off_tape = train_mod._val_loss(model, tiny_corpus, vocab, batch_size)
    assert losses and all(loss._parents == () for loss in losses)
    losses.clear()
    monkeypatch.setattr(ad, "no_grad", contextlib.nullcontext)
    taped = train_mod._val_loss(model, tiny_corpus, vocab, batch_size)
    assert all(loss._parents for loss in losses)
    assert float(off_tape).hex() == float(taped).hex()


def test_probe_encodes_each_split_once_off_the_tape(tiny_corpus, monkeypatch):
    from voxtag import model as mdl
    encodes = []
    encode = mdl.TranslationModel.encode

    def spy(self, batch):
        out = encode(self, batch)
        encodes.append((len(batch), out))
        return out

    monkeypatch.setattr(mdl.TranslationModel, "encode", spy)
    model = TranslationModel(build_vocabulary(), ModelConfig(), seed=0)
    accuracy = probe_discriminator(model, tiny_corpus)
    assert 0.0 <= accuracy <= 1.0
    assert [n for n, _ in encodes] == [len(tiny_corpus[0::2]), len(tiny_corpus[1::2])]
    assert all(out._parents == () for _, out in encodes)


def test_perturbed_training_survives_unvoiced_utterance():
    """An utterance with no voiced frame cannot be pitch-shifted; it trains on
    its clean features instead of aborting the run."""
    from voxtag.audio import Waveform
    corpus, _ = generate_corpus(SynthSpec(n_utterances=24, seed=5))
    silent = corpus[10]
    silent.waveform = Waveform(np.zeros(len(silent.waveform)), silent.waveform.sample_rate)
    cfg = tiny_cfg(total_updates=12, batch_size=8, average_last=2, perturb_p=1.0)
    res = train_loop(corpus, ModelConfig(mode="multi_gender"), cfg)
    assert len(res.val_losses) == 1 + 12 // cfg.interval
    assert len(res.checkpoints) == cfg.average_last
    assert all(np.isfinite(v) for _, v in res.val_losses)


def test_perturbed_training_survives_too_short_utterance():
    """An utterance long enough for one log-mel frame (400 samples) but not for
    one f0-tracker frame (640) cannot be pitch-shifted; it trains on its clean
    features instead of aborting the run."""
    from voxtag.audio import Waveform
    corpus, _ = generate_corpus(SynthSpec(n_utterances=24, seed=5))
    short = corpus[10]
    sr = short.waveform.sample_rate
    short.waveform = Waveform(0.5 * np.sin(2 * np.pi * 150.0 * np.arange(500) / sr), sr)
    cfg = tiny_cfg(total_updates=12, batch_size=8, average_last=2, perturb_p=1.0)
    res = train_loop(corpus, ModelConfig(mode="multi_gender"), cfg)
    assert len(res.val_losses) == 1 + 12 // cfg.interval
    assert len(res.checkpoints) == cfg.average_last
    assert all(np.isfinite(v) for _, v in res.val_losses)


def test_perturbed_training_is_identical_with_warm_f0_contours(tmp_path):
    """A perturbed run on a corpus whose f0 contours were kept from an earlier
    run matches a run on a freshly generated corpus, byte for byte."""
    def run(corpus, name):
        path = tmp_path / f"{name}.jsonl"
        cfg = tiny_cfg(total_updates=30, batch_size=8, checkpoint_interval=10, perturb_p=0.5)
        res = train_loop(corpus, ModelConfig(mode="multi_gender"), cfg, metrics_path=path)
        state = {k: v.tobytes() for k, v in res.model.state_dict().items()}
        return state, res.val_losses, path.read_bytes()

    spec = SynthSpec(n_utterances=24, seed=13)
    corpus, _ = generate_corpus(spec)
    cold = run(corpus, "cold")
    assert any(u.waveform._f0 is not None for u in corpus)
    warm = run(corpus, "warm")
    fresh = run(generate_corpus(spec)[0], "fresh")
    assert cold == warm == fresh


def _count_pooled(monkeypatch):
    """Wrap model.pool4; return the list of the row arrays it returns. The
    list keeps each array alive, so no two entries can share an id."""
    from voxtag import model as mdl
    pooled, pool4 = [], mdl.pool4

    def counting_pool4(features):
        pooled.append(pool4(features))
        return pooled[-1]

    monkeypatch.setattr(mdl, "pool4", counting_pool4)
    return pooled


def test_training_pools_each_utterance_once(monkeypatch):
    """A 30-update run pools each utterance's log-mels exactly once, the
    validation head's included, although every utterance is read in ten
    epochs and the head in eleven validation passes."""
    corpus, _ = generate_corpus(SynthSpec(n_utterances=24, seed=9))
    pooled = _count_pooled(monkeypatch)
    train_loop(corpus, ModelConfig(mode="multi_gender"), tiny_cfg(total_updates=30, batch_size=8))
    assert sorted(map(id, pooled)) == sorted(id(u.pooled) for u in corpus)


def test_perturbed_training_pools_each_manipulated_copy_once(monkeypatch):
    """With perturbation each epoch's manipulated copy is a new utterance: it
    is pooled once, and so is each utterance of the corpus, which the run
    pools before its first update whether or not a draw leaves it
    unmanipulated."""
    from voxtag import train as train_mod
    corpus, _ = generate_corpus(SynthSpec(n_utterances=24, seed=9))
    manipulated = []
    apply_opposite = train_mod.apply_opposite

    def recording_apply_opposite(w, gender, cfg, rng):
        out, changed = apply_opposite(w, gender, cfg, rng)
        if changed:
            manipulated.append(out)
        return out, changed

    monkeypatch.setattr(train_mod, "apply_opposite", recording_apply_opposite)
    pooled = _count_pooled(monkeypatch)
    cfg = tiny_cfg(total_updates=30, batch_size=8, perturb_p=0.5)
    train_loop(corpus, ModelConfig(mode="multi_gender"), cfg)
    assert len(manipulated) > 0
    assert len(set(map(id, pooled))) == len(pooled) == len(corpus) + len(manipulated)
