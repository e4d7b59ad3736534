import re
from pathlib import Path

import numpy as np
import pytest

from voxtag import autodiff as ad
from voxtag import model as M
from voxtag.errors import (
    DegenerateFrequency,
    EmptyPrefix,
    MalformedHeader,
    NonFinite,
    ShapeMismatch,
    UnknownToken,
)
from voxtag.perturb import SpeakerGender


@pytest.fixture(scope="module")
def small_model():
    vocab = M.Vocabulary([f"w{i}" for i in range(10)])
    cfg = M.ModelConfig(hidden_dim=16, disc_hidden=16, encoder_layers=2)
    return M.TranslationModel(vocab, cfg, seed=0)


def test_vocabulary_reserved_ids():
    vocab = M.Vocabulary(["casa", "rotto", "rotta"])
    assert vocab.encode(["<pad>", "<bos>", "<eos>", "<tag_F>", "<tag_M>", "casa"]) == \
        [0, 1, 2, 3, 4, 5]
    assert vocab.decode([5, 6]) == ["casa", "rotto"]
    with pytest.raises(UnknownToken):
        vocab.encode(["missing"])
    assert vocab.encode(["rotta", "casa"]) == [7, 5]
    with pytest.raises(UnknownToken, match="^token 'missing' not in vocabulary$"):
        vocab.encode(["casa", "missing", "other"])


@pytest.mark.parametrize("bad", [-1, 8])
def test_vocabulary_decode_rejects_an_id_out_of_range(bad):
    vocab = M.Vocabulary(["casa", "rotto", "rotta"])
    with pytest.raises(UnknownToken, match=f"^id {bad} out of range$"):
        vocab.decode([5, bad])


@pytest.mark.parametrize("field", ["feature_dim", "hidden_dim", "encoder_layers", "disc_hidden"])
@pytest.mark.parametrize("value", [0, -4])
def test_model_config_rejects_a_non_positive_dimension(field, value):
    with pytest.raises(ValueError, match="^dimensions and layer counts must be positive$"):
        M.ModelConfig(**{field: value})


def test_encode_output_length(small_model):
    enc = small_model.encode([M.pool4(np.zeros((98, 80)))])
    assert enc.shape == (25, 16)
    assert small_model.encode([M.pool4(np.zeros((4, 80)))]).shape == (1, 16)


def test_encode_rejects_wrong_width(small_model):
    with pytest.raises(ShapeMismatch):
        small_model.encode([np.zeros((10, 40))])


def test_decode_all_is_deterministic_distribution(small_model):
    enc = small_model.encode([M.pool4(np.random.default_rng(1).normal(size=(20, 80)))])
    logits = small_model.decode_all(enc, [[M.TAG_F_ID, 6, 7]], [enc.shape[0]])
    dist = ad.softmax(ad.Tensor(logits.values[-1]), axis=-1)
    assert abs(dist.values.sum() - 1.0) < 1e-9
    assert dist.values.min() > 0
    again = small_model.decode_all(enc, [[M.TAG_F_ID, 6, 7]], [enc.shape[0]])
    assert np.array_equal(logits.values, again.values)


@pytest.mark.parametrize("frames", [[3], [1], [2, 0], []])
def test_decode_all_rejects_frames_that_do_not_count_the_encoder_rows(small_model, frames):
    enc = small_model.encode([M.pool4(np.zeros((8, 80)))])
    assert enc.shape[0] == 2
    with pytest.raises(ShapeMismatch, match="^frames must count each prefix's rows"):
        small_model.decode_all(enc, [[M.TAG_F_ID, 6]], frames)


def test_decode_all_prefix_validation(small_model):
    enc = small_model.encode([M.pool4(np.zeros((8, 80)))])
    with pytest.raises(EmptyPrefix):
        small_model.decode_all(enc, [[]], [enc.shape[0]])
    with pytest.raises(UnknownToken):
        small_model.decode_all(enc, [[M.BOS_ID, 999]], [enc.shape[0]])
    with pytest.raises(UnknownToken):
        small_model.decode_all(enc, [[7, 8]], [enc.shape[0]])


@pytest.mark.parametrize("bad, error, message", [
    ([], EmptyPrefix, "decoder prefix is empty"),
    ([M.TAG_M_ID, 6, 999, -1], UnknownToken, "token id 999 out of range"),
    ([M.BOS_ID, -1, 6], UnknownToken, "token id -1 out of range"),
    ([7, 8], UnknownToken, "prefix must start with bos or a gender tag"),
])
@pytest.mark.parametrize("where", [0, 1, 2])
def test_decode_all_names_the_one_bad_prefix_of_a_batch(small_model, bad, error, message, where):
    prefixes = [[M.TAG_F_ID, 6, 7], [M.BOS_ID], [M.TAG_M_ID, 8]]
    prefixes[where] = bad
    enc = small_model.encode([M.pool4(np.zeros((8, 80)))] * 3)
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        small_model.decode_all(enc, prefixes, [2, 2, 2])


def _rows(model, pooled):
    """One utterance's encoder rows, the input greedy_decode takes."""
    with ad.no_grad():
        return model.encode([pooled]).values


def _greedy_decode_rerun(model, features, first_token, max_len):
    """Reference greedy decode: every step reruns decode_all over the whole
    prefix and takes the argmax of the softmax of its last row."""
    enc = model.encode([M.pool4(features)])
    prefix = [first_token]
    for _ in range(max_len):
        last = model.decode_all(enc, [prefix], [enc.shape[0]]).values[-1]
        nxt = int(np.argmax(ad.softmax(ad.Tensor(last), axis=-1).values))
        if nxt == M.EOS_ID:
            break
        prefix.append(nxt)
    return prefix[1:]


@pytest.fixture(scope="module")
def eos_model(small_model):
    """small_model with its eos bias raised by 2.5, so that some greedy decodes
    stop at eos after a few tokens and others run to max_len 32. A random-init
    small_model never emits eos."""
    twin = M.TranslationModel(small_model.vocab, small_model.cfg, seed=0)
    twin.params["dec.out_b"].values[M.EOS_ID] += 2.5
    return twin


@pytest.mark.parametrize("max_len", [1, 3, 32])
def test_greedy_decode_matches_prefix_rerun(small_model, eos_model, max_len):
    rng = np.random.default_rng(12)
    feats = [rng.normal(size=(T, 80)) for T in (5, 17, 40, 63)]
    stopped_at_eos = set()
    for model in (small_model, eos_model):
        for f in feats:
            for first_token in (M.TAG_F_ID, M.TAG_M_ID, M.BOS_ID):
                ids = model.greedy_decode(_rows(model, M.pool4(f)), first_token, max_len=max_len)
                assert ids == _greedy_decode_rerun(model, f, first_token, max_len)
                stopped_at_eos.add(len(ids) < max_len)
    assert stopped_at_eos == ({True, False} if max_len == 32 else {False})


def test_greedy_step_logits_equal_decode_all_rows(small_model, eos_model):
    rng = np.random.default_rng(13)
    table = M.sinusoidal_positions(32, small_model.cfg.hidden_dim)
    for model in (small_model, eos_model):
        for first_token in (M.TAG_F_ID, M.TAG_M_ID, M.BOS_ID):
            feats = rng.normal(size=(29, 80))
            # The tokens greedy_decode's steps read: first_token and every
            # emitted token except a 32nd, which no step reads.
            enc = model.encode([M.pool4(feats)])
            prefix = ([first_token] + model.greedy_decode(enc.values, first_token))[:32]
            rows = model.decode_all(enc, [prefix], [enc.shape[0]]).values
            step = model._greedy_step(enc.values, first_token)
            for k, token in enumerate(prefix):
                np.testing.assert_allclose(step(token, table[k]), rows[k], rtol=1e-12, atol=0)


def _next_logits_reference(model, enc, tag, token, position):
    """The greedy step as it was written before _greedy_step: every call
    re-reads the parameter arrays, the tag row and the scale, and builds the
    hidden input with np.concatenate. _greedy_step must match it bit for
    bit."""
    p = model.params
    emb = p["dec.emb"].values
    d_in = (emb[token] + emb[tag]) + position
    scores = (d_in @ enc.T) * (1.0 / np.sqrt(model.cfg.hidden_dim))
    e = np.exp(scores - scores.max())
    ctx = (e / e.sum()) @ enc
    hid = np.concatenate([ctx, d_in]) @ p["dec.l0.w1"].values + p["dec.l0.b1"].values
    hid = np.maximum(hid, 0.0)
    return hid @ p["dec.out_w"].values + p["dec.out_b"].values


@pytest.fixture(scope="module")
def bench_model():
    """The trained checkpoint the benchmark's evaluate workload decodes with.
    It is only read."""
    return M.load_model(Path(__file__).resolve().parents[1] / "bench" / "model" / "model.vxck")


def test_greedy_step_equals_the_reference_step_bitwise(small_model, eos_model, bench_model):
    """Each step's logits, and so each decode's ids, are byte for byte those
    of the reference step, for random and trained weights, under every first
    token, at several positions. A hidden_dim of 12 makes the attention scale
    inexact, so the order of the scale's product is pinned too: at 16 and 64
    it is a power of two, and any order rounds alike."""
    from voxtag.synthdata import SynthSpec, generate_corpus
    rng = np.random.default_rng(24)
    corpus = generate_corpus(SynthSpec(n_utterances=4, gender_split=0.5, seed=4242))[0]
    odd_model = M.TranslationModel(small_model.vocab, M.ModelConfig(hidden_dim=12, disc_hidden=8),
                                   seed=1)
    for model in (small_model, eos_model, odd_model, bench_model):
        pooled = [u.pooled for u in corpus] + [M.pool4(rng.normal(size=(T, 80))) for T in (5, 31)]
        table = M.sinusoidal_positions(32, model.cfg.hidden_dim)
        tokens = [M.BOS_ID, M.EOS_ID, M.TAG_F_ID, M.TAG_M_ID, len(model.vocab) - 1]
        for rows in pooled:
            with ad.no_grad():
                enc = model.encode([rows]).values
            for first_token in (M.TAG_F_ID, M.TAG_M_ID, M.BOS_ID):
                step = model._greedy_step(enc, first_token)
                for k in (0, 1, 7, 19, 31):
                    for token in tokens:
                        want = _next_logits_reference(model, enc, first_token, token, table[k])
                        assert step(token, table[k]).tobytes() == want.tobytes()
                reference, token = [], first_token
                for k in range(32):
                    token = int(np.argmax(
                        _next_logits_reference(model, enc, first_token, token, table[k])))
                    if token == M.EOS_ID:
                        break
                    reference.append(token)
                assert model.greedy_decode(enc, first_token) == reference


@pytest.fixture(scope="module")
def residual_model(small_model):
    """small_model's twin with non-zero residual branches: a fresh model's
    enc.l*.w2 are zeros, which would hide any row coupling in encode."""
    twin = M.TranslationModel(small_model.vocab, small_model.cfg, seed=0)
    rng = np.random.default_rng(21)
    for i in range(twin.cfg.encoder_layers):
        twin.params[f"enc.l{i}.w2"].values = rng.normal(scale=0.3, size=(16, 16))
    return twin


def test_batched_encode_equals_utterance_encodes_bitwise(residual_model):
    """The encoder is row-wise: each utterance's block of a batch's encode
    equals its own encode bit for bit, for utterances of two rows or more.
    The probe encodes each split in one call on the strength of this. numpy
    multiplies a one-row input as a matrix-vector product, so a one-row
    utterance agrees to rounding only."""
    from voxtag.synthdata import SynthSpec, generate_corpus
    rng = np.random.default_rng(22)
    corpus = generate_corpus(SynthSpec(n_utterances=6, seed=3))[0]
    pooled = [u.pooled for u in corpus] + [M.pool4(rng.normal(size=(T, 80)))
                                           for T in (5, 8, 13, 63, 160, 9)]
    with ad.no_grad():
        batch = residual_model.encode(pooled).values
        singles = [residual_model.encode([p]).values for p in pooled]
    starts = np.cumsum([0] + [len(p) for p in pooled])
    for lo, single in zip(starts, singles):
        assert batch[lo:lo + len(single)].tobytes() == single.tobytes()
    one_row = [M.pool4(rng.normal(size=(4, 80)))]
    with ad.no_grad():
        batch = residual_model.encode(one_row + pooled[:2]).values
        single = residual_model.encode(one_row).values
    np.testing.assert_allclose(batch[:1], single, rtol=1e-12, atol=0)


def test_greedy_decode_validates_inputs(small_model):
    """greedy_decode checks its first token; its rows are encode's output, so
    their width is checked by encode."""
    rows = _rows(small_model, M.pool4(np.zeros((8, 80))))
    with pytest.raises(UnknownToken, match="^prefix must start with bos or a gender tag$"):
        small_model.greedy_decode(rows, 7)
    with pytest.raises(UnknownToken, match="^prefix must start with bos or a gender tag$"):
        small_model.greedy_decode(rows, 999)
    with pytest.raises(ShapeMismatch):
        small_model.encode([M.pool4(np.zeros((8, 40)))])


def test_an_utterance_with_no_encoder_rows_fails_closed(small_model):
    """An utterance with no rows gives its prefix nothing to attend to, so
    encode, alone or in a batch, and decode_all raise ShapeMismatch rather
    than lend it the batch's other rows or fail inside numpy."""
    empty = np.zeros((0, 80))
    with pytest.raises(ShapeMismatch, match="^an utterance has no encoder rows$"):
        small_model.encode([M.pool4(np.ones((8, 80))), empty])
    with pytest.raises(ShapeMismatch, match="^an utterance has no encoder rows$"):
        small_model.encode([empty])
    enc = small_model.encode([M.pool4(np.ones((12, 80)))])
    with pytest.raises(ShapeMismatch, match="^attention needs .* a kv row in each$"):
        small_model.decode_all(enc, [[M.TAG_F_ID, 5], [M.TAG_M_ID, 6]], [3, 0])


@pytest.mark.parametrize("shape", [(8,), (8, 80, 1), ()])
def test_wrong_rank_input_is_a_shape_mismatch(small_model, shape):
    """encode checks its rows, and tag_inversion_eval hands each utterance's
    rows to encode before any decode, so input of the wrong rank never
    reaches numpy's indexing."""
    from voxtag.evaluation import tag_inversion_eval
    from voxtag.synthdata import SynthSpec, generate_corpus
    with pytest.raises(ShapeMismatch):
        small_model.encode([np.zeros(shape)])
    corpus, entries = generate_corpus(SynthSpec(n_utterances=2, seed=3))
    corpus[0].pooled = np.zeros(shape)
    with pytest.raises(ShapeMismatch):
        tag_inversion_eval(small_model, corpus[:1], entries)


def test_target_forcing():
    """A multi_gender model starts from the speaker's tag; every other mode
    starts from bos."""
    tags = {SpeakerGender.F: M.TAG_F_ID, SpeakerGender.M: M.TAG_M_ID}
    for mode in M.MODES:
        for gender, tag in tags.items():
            expected = tag if mode == "multi_gender" else M.BOS_ID
            assert M.start_token(mode, gender) == expected


def test_discriminator_constant_input_pooling(small_model):
    row = np.random.default_rng(2).normal(size=16)
    enc = ad.Tensor(np.tile(row, (6, 1)))
    pooled = small_model.discriminate(enc, 0.0, [6])
    single = small_model.discriminate(ad.Tensor(row[None, :]), 0.0, [1])
    assert np.allclose(pooled.values, single.values)
    assert pooled.shape == (1, 2)


def test_grl_blocks_encoder_gradient_at_lambda_zero(small_model):
    small_model.zero_grad()
    enc = small_model.encode([M.pool4(np.random.default_rng(3).normal(size=(12, 80)))])
    loss = M.weighted_disc_loss(small_model.discriminate(enc, 0.0, [enc.shape[0]]),
                                [SpeakerGender.F], M.ClassWeights(1.0, 1.0))
    ad.backward(loss)
    assert np.allclose(small_model.params["enc.in_w"].grad, 0.0)
    assert np.linalg.norm(small_model.params["disc.w1"].grad) > 0
    small_model.zero_grad()


def test_grl_flips_and_scales_encoder_gradient(small_model):
    feats = np.random.default_rng(4).normal(size=(12, 80))
    grads = {}
    for lam in (0.5, 1.0):
        small_model.zero_grad()
        enc = small_model.encode([M.pool4(feats)])
        loss = M.weighted_disc_loss(small_model.discriminate(enc, lam, [enc.shape[0]]),
                                    [SpeakerGender.M], M.ClassWeights(1.0, 1.0))
        ad.backward(loss)
        grads[lam] = small_model.params["enc.in_w"].grad.copy()
    assert np.allclose(grads[0.5], 0.5 * grads[1.0])
    small_model.zero_grad()


def test_class_weights_examples_and_errors():
    assert M.compute_class_weights(0.5, 0.5) == M.ClassWeights(1.0, 1.0)
    w = M.compute_class_weights(0.3, 0.7)
    assert abs(w.w_f - 1.6667) < 1e-4 and abs(w.w_m - 0.7143) < 1e-4
    assert abs(w.w_f * 0.3 + w.w_m * 0.7 - 1.0) < 1e-9
    with pytest.raises(DegenerateFrequency):
        M.compute_class_weights(0.0, 1.0)
    with pytest.raises(DegenerateFrequency):
        M.compute_class_weights(0.3, 0.6)


def test_class_weights_normalization_property():
    rng = np.random.default_rng(5)
    for _ in range(200):
        f = rng.uniform(0.01, 0.99)
        w = M.compute_class_weights(f, 1.0 - f)
        assert abs(w.w_f * f + w.w_m * (1.0 - f) - 1.0) < 1e-9


def test_label_smoothed_ce_examples():
    # sequence_loss on one target: its logits row is log of a distribution
    one_hot = np.zeros(8)
    one_hot[3] = 1.0
    assert M.sequence_loss(ad.Tensor(np.log(one_hot + 1e-300)[None]), [[3]], 0.0).values < 1e-9
    logits = ad.Tensor(np.log(np.full((1, 8), 0.125)))
    assert abs(M.sequence_loss(logits, [[5]], 0.1).values - np.log(8)) < 1e-9
    assert abs(M.sequence_loss(logits, [[5]], 0.0).values - np.log(8)) < 1e-9
    assert M.sequence_loss(logits, [[M.PAD_ID]], 0.1).values == 0.0
    with pytest.raises(ShapeMismatch):
        M.sequence_loss(logits, [[3, 4]], 0.1)


def test_weighted_disc_loss_examples():
    zero_logits = ad.Tensor(np.zeros((1, 2)))
    loss = M.weighted_disc_loss(zero_logits, [SpeakerGender.F], M.ClassWeights(1.0, 1.0))
    assert abs(loss.values - np.log(2)) < 1e-12
    loss = M.weighted_disc_loss(zero_logits, [SpeakerGender.F], M.ClassWeights(1.4, 0.8))
    assert abs(loss.values - 1.4 * np.log(2)) < 1e-12
    confident = ad.Tensor(np.array([[-50.0, 50.0]]))
    loss = M.weighted_disc_loss(confident, [SpeakerGender.M], M.ClassWeights(1.4, 0.8))
    assert loss.values < 1e-9


def test_weighted_disc_loss_saturated_logits():
    logits = ad.Tensor(np.array([[0.0, 800.0]]), requires_grad=True)
    loss = M.weighted_disc_loss(logits, [SpeakerGender.F], M.ClassWeights(1.0, 1.0))
    ad.backward(loss)
    assert loss.values == 800.0
    assert np.array_equal(logits.grad, [[-1.0, 1.0]])


def _gender_targets_by_label(labels, weights):
    """Reference: one label at a time, F in column 0 and M in column 1, each
    row its class weight over B."""
    q = np.zeros((len(labels), 2))
    for u, g in enumerate(labels):
        female = g is SpeakerGender.F
        q[u, 0 if female else 1] = (weights.w_f if female else weights.w_m) / len(labels)
    return q


def _random_labels(seed):
    rng = np.random.default_rng(seed)
    f = rng.uniform(0.01, 0.99)
    labels = [SpeakerGender.F if rng.random() < f else SpeakerGender.M
              for _ in range(int(rng.integers(2, 40)))]
    return labels, M.compute_class_weights(f, 1.0 - f)


@pytest.mark.parametrize("labels, weights", [
    *(_random_labels(seed) for seed in range(8)),
    ([SpeakerGender.F], M.ClassWeights(1.4, 0.8)),
    ([SpeakerGender.M], M.ClassWeights(1.4, 0.8)),
    ([SpeakerGender.F] * 5, M.ClassWeights(1.0, 1.0)),
    ([SpeakerGender.M] * 7, M.compute_class_weights(0.3, 0.7)),
])
def test_gender_targets_match_the_per_label_rule(labels, weights):
    q = M.gender_targets(labels, weights)
    assert q.shape == (len(labels), 2)
    assert q.tobytes() == _gender_targets_by_label(labels, weights).tobytes()


@pytest.mark.parametrize("first", [-1, M.PAD_ID, M.BOS_ID, M.EOS_ID, M.TAG_F_ID, M.TAG_M_ID,
                                   5, 99])
def test_decode_all_and_greedy_decode_refuse_the_same_first_tokens(small_model, first):
    enc = small_model.encode([M.pool4(np.zeros((8, 80)))])

    def refusal(call):
        try:
            call()
        except UnknownToken as exc:
            return str(exc)
        return None

    refusals = {refusal(lambda: small_model.decode_all(enc, [[first, 6]], [enc.shape[0]])),
                refusal(lambda: small_model.greedy_decode(enc.values, first, max_len=2))}
    legal = first in (M.BOS_ID, M.TAG_F_ID, M.TAG_M_ID)
    assert refusals == ({None} if legal else {"prefix must start with bos or a gender tag"})


def test_combined_loss():
    cfg = M.ModelConfig()
    out = M.combined_loss(ad.Tensor(2.0), ad.Tensor(1.0), cfg)
    assert abs(out.values - 2.5) < 1e-12
    assert M.combined_loss(ad.Tensor(3.0), None, cfg).values == 3.0
    assert M.combined_loss(ad.Tensor(0.0), ad.Tensor(0.0), cfg).values == 0.0
    bad = ad.Tensor(1.0)
    bad.values = np.array(np.inf)
    with pytest.raises(NonFinite):
        M.combined_loss(bad, None, cfg)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_combined_loss_rejects_a_non_finite_discriminator_loss(value):
    disc = ad.Tensor(1.0)
    disc.values = np.array(value)
    with pytest.raises(NonFinite, match="^discriminator loss is not finite$"):
        M.combined_loss(ad.Tensor(2.0), disc, M.ModelConfig())


def test_end_to_end_gradient_matches_finite_differences(small_model):
    # The GRL makes the analytic gradient of encoder parameters deliberately
    # disagree with plain finite differences: the discriminator contribution
    # arrives scaled by -lambda. So encoder params are checked against
    # FD(translation) - lambda * weight * FD(disc); everything downstream of
    # the GRL (decoder, discriminator head) against FD of the combined loss.
    lam = 0.5
    feats = [np.random.default_rng(s).normal(size=(14, 80)) for s in (6, 7)]
    targets = [[6, 7, M.EOS_ID], [8, M.EOS_ID, M.PAD_ID]]
    prefixes = [[M.TAG_F_ID, 6, 7], [M.TAG_M_ID, 8, M.EOS_ID]]
    genders = [SpeakerGender.F, SpeakerGender.M]
    weights = M.compute_class_weights(0.5, 0.5)

    def losses(m):
        tl_total, dl_total = ad.Tensor(0.0), ad.Tensor(0.0)
        for f, pre, tgt, g in zip(feats, prefixes, targets, genders):
            enc = m.encode([M.pool4(f)])
            rows = [enc.shape[0]]
            tl_total = ad.add(tl_total,
                              M.sequence_loss(m.decode_all(enc, [pre], rows), [tgt], 0.1))
            dl_total = ad.add(dl_total,
                              M.weighted_disc_loss(m.discriminate(enc, lam, rows), [g], weights))
        return tl_total, dl_total

    small_model.zero_grad()
    tl, dl = losses(small_model)
    ad.backward(M.combined_loss(tl, dl, small_model.cfg))
    state = small_model.state_dict()
    rng = np.random.default_rng(8)
    twin = M.TranslationModel(small_model.vocab, small_model.cfg, seed=0)
    w = small_model.cfg.disc_loss_weight
    for name in ["enc.in_w", "enc.l1.w2", "dec.emb", "dec.l0.w1", "dec.out_w", "disc.w1"]:
        flat_idx = rng.integers(state[name].size)
        idx = np.unravel_index(flat_idx, state[name].shape)
        eps = 1e-4
        tl_vals, dl_vals = [], []
        for delta in (eps, -eps):
            probe = {k: v.copy() for k, v in state.items()}
            probe[name][idx] += delta
            twin.load_state_dict(probe)
            tv, dv = losses(twin)
            tl_vals.append(tv.values.item())
            dl_vals.append(dv.values.item())
        fd_tl = (tl_vals[0] - tl_vals[1]) / (2 * eps)
        fd_dl = (dl_vals[0] - dl_vals[1]) / (2 * eps)
        disc_sign = -lam if name.startswith("enc.") else 1.0
        numeric = fd_tl + w * disc_sign * fd_dl
        analytic = small_model.params[name].grad[idx]
        assert abs(analytic - numeric) / max(abs(numeric), 1e-8) < 1e-4
    small_model.zero_grad()


def test_config_settings_and_constants():
    """The decoder has one layer, and label smoothing and the discriminator
    weight are class constants: none of the three is a field."""
    from dataclasses import fields
    assert [f.name for f in fields(M.ModelConfig)] == [
        "feature_dim", "hidden_dim", "encoder_layers", "disc_hidden", "mode"]
    cfg = M.ModelConfig()
    assert (cfg.label_smoothing, cfg.disc_loss_weight) == (0.1, 0.5)
    for key in ("decoder_layers", "label_smoothing", "disc_loss_weight"):
        with pytest.raises(TypeError):
            M.ModelConfig(**{key: 1})


def test_model_save_load_roundtrip(tmp_path, small_model):
    path = tmp_path / "m.ckpt"
    M.save_model(small_model, path)
    loaded = M.load_model(path)
    assert loaded.cfg == small_model.cfg
    assert loaded.vocab.tokens == small_model.vocab.tokens
    feats = np.random.default_rng(9).normal(size=(16, 80))
    a = small_model.decode_all(small_model.encode([M.pool4(feats)]), [[M.TAG_M_ID, 5]], [4])
    b = loaded.decode_all(loaded.encode([M.pool4(feats)]), [[M.TAG_M_ID, 5]], [4])
    assert np.array_equal(a.values, b.values)
    assert loaded.greedy_decode(_rows(loaded, M.pool4(feats)), M.TAG_M_ID) == \
        small_model.greedy_decode(_rows(small_model, M.pool4(feats)), M.TAG_M_ID)


def test_load_model_header_that_does_not_fit_names_the_file(tmp_path, small_model):
    """An invalid mode, a repeated vocabulary token, or a vocabulary whose size
    does not match the checkpoint raises MalformedHeader naming the file."""
    path = tmp_path / "m.vxck"
    M.save_model(small_model, path)
    meta = (tmp_path / "m.vxck.meta").read_text(encoding="utf-8")
    for old, new in (("mode=multi_gender", "mode=bogus"), ("w1 w2", "w1 w1"), (" w9", "")):
        assert old in meta
        (tmp_path / "m.vxck.meta").write_text(meta.replace(old, new), encoding="utf-8")
        with pytest.raises(MalformedHeader, match=re.escape(str(path))):
            M.load_model(path)


def test_load_model_rejects_a_repeated_header_key(tmp_path, small_model):
    """A key load_model reads, given twice, fails closed naming the file, the
    line and the key: a second mode line must not turn a multi_gender model
    into a gender_unaware one. A repeated key it ignores still loads."""
    path = tmp_path / "m.vxck"
    M.save_model(small_model, path)
    meta_path = tmp_path / "m.vxck.meta"
    meta = meta_path.read_text(encoding="utf-8")
    n = meta.count("\n")
    for line in ("mode=gender_unaware", "hidden_dim=16", "vocab=w0"):
        meta_path.write_text(meta + line + "\n", encoding="utf-8")
        key = line.partition("=")[0]
        with pytest.raises(MalformedHeader,
                           match=f"^{re.escape(str(meta_path))}:{n + 1}: repeated key '{key}'$"):
            M.load_model(path)
    meta_path.write_text("dropout=0.1\n" + meta + "dropout=0.0\n", encoding="utf-8")
    assert M.load_model(path).cfg == small_model.cfg


def test_load_model_rejects_a_second_decoder_layer(tmp_path, small_model):
    """The decoder has one layer. A checkpoint with dec.l1.* parameters, as a
    decoder_layers=2 model once saved, does not fit the model its header
    describes."""
    path = tmp_path / "m.vxck"
    M.save_model(small_model, path)
    state = small_model.state_dict()
    h = small_model.cfg.hidden_dim
    state.update({"dec.l1.w1": np.zeros((h, h)), "dec.l1.b1": np.zeros(h)})
    ad.save_checkpoint(state, path)
    with pytest.raises(MalformedHeader, match="parameter names do not match"):
        M.load_model(path)


def _pool4_loop(features):
    t_out = -(-features.shape[0] // 4)
    pooled = np.zeros((t_out, features.shape[1]))
    for i in range(t_out):
        pooled[i] = features[4 * i:4 * i + 4].mean(axis=0)
    return pooled


def test_pool4_matches_loop_bitwise():
    rng = np.random.default_rng(10)
    for T in range(1, 41):
        feats = rng.normal(size=(T, 80))
        assert np.array_equal(M.pool4(feats), _pool4_loop(feats))


@pytest.mark.parametrize("use_grl", [True, False])
@pytest.mark.parametrize("B", [1, 3, 8])
def test_batched_graph_equals_mean_of_utterance_graphs(small_model, B, use_grl):
    """One graph over a batch gives the loss and every parameter gradient of
    (1/B) x the sum of one-utterance graphs: ragged frames and prefixes, PAD
    targets, mixed genders."""
    rng = np.random.default_rng(11)
    lam, weights = 0.5, M.compute_class_weights(0.3, 0.7)
    frames = [5, 13, 22, 9, 31, 4, 17, 26][:B]
    lengths = [3, 7, 1, 5, 9, 2, 6, 4][:B]
    feats = [rng.normal(size=(T, 80)) for T in frames]
    genders = [SpeakerGender.F if u % 3 != 1 else SpeakerGender.M for u in range(B)]
    targets = []
    for u, n in enumerate(lengths):
        t = list(rng.integers(5, len(small_model.vocab), size=n)) + [M.EOS_ID]
        targets.append(t + [M.PAD_ID] * (u % 2))
    prefixes = [[M.TAG_F_ID if g is SpeakerGender.F else M.TAG_M_ID] + t[:-1]
                for g, t in zip(genders, targets)]

    def update(feats, prefixes, targets, genders):
        small_model.zero_grad()
        pooled = [M.pool4(f) for f in feats]
        enc = small_model.encode(pooled)
        rows = [len(p) for p in pooled]
        tl = M.sequence_loss(small_model.decode_all(enc, prefixes, rows), targets, 0.1)
        dl = M.weighted_disc_loss(small_model.discriminate(enc, lam, rows), genders,
                                  weights) if use_grl else None
        loss = M.combined_loss(tl, dl, small_model.cfg)
        ad.backward(loss)
        grads = {k: t.grad.copy() for k, t in small_model.params.items() if t.grad is not None}
        return loss.values.item(), grads

    batched = update(feats, prefixes, targets, genders)
    singles = [update([f], [pre], [t], [g])
               for f, pre, t, g in zip(feats, prefixes, targets, genders)]
    small_model.zero_grad()
    assert batched[0] == pytest.approx(sum(s[0] for s in singles) / B, rel=1e-9, abs=0)
    assert set(batched[1]) == set().union(*(s[1] for s in singles))
    for name, g in batched[1].items():
        expected = sum(s[1].get(name, 0.0) for s in singles) / B
        np.testing.assert_allclose(g, expected, rtol=1e-9, atol=0, err_msg=name)


def test_fused_linear_update_is_bitwise_the_composed_one(small_model, monkeypatch):
    """One GRL update with every affine layer a linear node gives the loss and
    every parameter gradient byte for byte of the same update built from
    add(matmul): the encoder output feeds three consumers, so a change in the
    order in which backward sums their gradients shows here."""
    rng = np.random.default_rng(12)
    pooled = [M.pool4(rng.normal(size=(T, 80))) for T in (9, 21, 14)]
    targets = [[6, 7, M.EOS_ID], [8, 9, 10, 6, M.EOS_ID], [7, M.EOS_ID, M.PAD_ID]]
    genders = [SpeakerGender.F, SpeakerGender.M, SpeakerGender.F]
    prefixes = [[M.TAG_F_ID if g is SpeakerGender.F else M.TAG_M_ID] + t[:-1]
                for g, t in zip(genders, targets)]
    weights = M.compute_class_weights(0.4, 0.6)

    def update():
        small_model.zero_grad()
        enc = small_model.encode(pooled)
        rows = [len(p) for p in pooled]
        tl = M.sequence_loss(small_model.decode_all(enc, prefixes, rows), targets, 0.1)
        dl = M.weighted_disc_loss(small_model.discriminate(enc, 0.5, rows), genders, weights)
        loss = M.combined_loss(tl, dl, small_model.cfg)
        ad.backward(loss)
        grads = {k: t.grad.tobytes() for k, t in small_model.params.items()}
        small_model.zero_grad()
        return loss.values.tobytes(), grads

    fused = update()
    monkeypatch.setattr(ad, "linear", lambda x, w, b: ad.add(ad.matmul(x, w), b))
    composed = update()
    assert fused[0] == composed[0]
    assert fused[1].keys() == composed[1].keys()
    for name in fused[1]:
        assert fused[1][name] == composed[1][name], name
