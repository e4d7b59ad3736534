"""Tag-conditioned encoder-decoder with an adversarial gender discriminator.

The encoder is a small feedforward-residual stack over x4 mean-pooled log-mel
frames; the decoder is a single-head attention layer conditioned on the first
prefix token (bos or a gender tag) at every position.
"""

import functools
from dataclasses import dataclass, fields
from typing import ClassVar

import numpy as np

from . import autodiff as ad
from .errors import (
    DegenerateFrequency,
    EmptyPrefix,
    MalformedHeader,
    NonFinite,
    ShapeMismatch,
    UnknownToken,
    utf8_lines,
)
from .perturb import SpeakerGender

PAD_ID = 0
BOS_ID = 1
EOS_ID = 2
TAG_F_ID = 3
TAG_M_ID = 4
RESERVED_TOKENS = ("<pad>", "<bos>", "<eos>", "<tag_F>", "<tag_M>")
# the ids a decoder prefix may start with: bos, or a gender tag
FIRST_TOKENS = frozenset((BOS_ID, TAG_F_ID, TAG_M_ID))

MODES = ("gender_unaware", "multi_gender")


class Vocabulary:
    """Dense token-to-id map with fixed reserved ids 0..4."""

    def __init__(self, tokens):
        self.tokens = list(RESERVED_TOKENS) + [t for t in tokens if t not in RESERVED_TOKENS]
        if len(set(self.tokens)) != len(self.tokens):
            raise UnknownToken("duplicate tokens in vocabulary")
        self._ids = {t: i for i, t in enumerate(self.tokens)}

    def __len__(self):
        return len(self.tokens)

    def encode(self, tokens):
        try:
            return [self._ids[t] for t in tokens]
        except KeyError as exc:
            raise UnknownToken(f"token {exc.args[0]!r} not in vocabulary") from None

    def decode(self, ids):
        out = []
        for i in ids:
            if not 0 <= i < len(self.tokens):
                raise UnknownToken(f"id {i} out of range")
            out.append(self.tokens[i])
        return out


@dataclass(frozen=True)
class ModelConfig:
    feature_dim: int = 80
    hidden_dim: int = 64
    encoder_layers: int = 2
    disc_hidden: int = 64
    mode: str = "multi_gender"
    # constants, not fields: neither is a config key nor a line of a header
    label_smoothing: ClassVar[float] = 0.1
    disc_loss_weight: ClassVar[float] = 0.5

    def __post_init__(self):
        if min(self.feature_dim, self.hidden_dim, self.encoder_layers, self.disc_hidden) <= 0:
            raise ValueError("dimensions and layer counts must be positive")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")


@dataclass(frozen=True)
class ClassWeights:
    w_f: float
    w_m: float


def compute_class_weights(f_f: float, f_m: float) -> ClassWeights:
    """Inverse-frequency weights normalized so w_f*f_f + w_m*f_m = 1."""
    if f_f <= 0 or f_m <= 0:
        raise DegenerateFrequency("class frequencies must be positive")
    if abs(f_f + f_m - 1.0) > 1e-6:
        raise DegenerateFrequency("frequencies must sum to 1")
    return ClassWeights(w_f=1.0 / (2.0 * f_f), w_m=1.0 / (2.0 * f_m))


def start_token(mode, gender: SpeakerGender):
    """The first decoder token: a multi_gender model is forced with the
    speaker's gender tag, a gender_unaware one starts from bos."""
    if mode == "multi_gender":
        return TAG_F_ID if gender is SpeakerGender.F else TAG_M_ID
    return BOS_ID


@functools.lru_cache(maxsize=64)
def sinusoidal_positions(length, dim):
    """(length, dim) sinusoidal position table. Every training batch and every
    greedy decode asks for one, so tables are cached; a cached table is
    shared, so it is read-only."""
    pos = np.arange(length)[:, None]
    inv = np.exp(-np.log(10000.0) * (2 * (np.arange(dim) // 2)) / dim)
    angles = pos * inv[None, :]
    enc = np.where(np.arange(dim) % 2 == 0, np.sin(angles), np.cos(angles))
    enc.setflags(write=False)
    return enc


def pool4(features):
    """Mean-pool frames in groups of 4 into encoder rows; the tail group may be shorter."""
    full = features.shape[0] // 4 * 4
    pooled = features[:full].reshape(-1, 4, features.shape[1]).mean(axis=1)
    if full < features.shape[0]:
        pooled = np.concatenate([pooled, features[full:].mean(axis=0, keepdims=True)])
    return pooled


def _check_first_tokens(firsts):
    if not FIRST_TOKENS.issuperset(firsts):
        raise UnknownToken("prefix must start with bos or a gender tag")


def pooling_matrix(frames):
    """(B, sum(frames)) matrix whose row u averages utterance u's rows."""
    P = np.zeros((len(frames), sum(frames)))
    start = 0
    for u, n in enumerate(frames):
        P[u, start:start + n] = 1.0 / n
        start += n
    return P


class TranslationModel:
    """Holds parameters and the forward graph for one configuration."""

    def __init__(self, vocab: Vocabulary, cfg: ModelConfig, seed: int = 0):
        self.vocab = vocab
        self.cfg = cfg
        self.params = {}
        rng = np.random.default_rng(seed)
        h, d = cfg.hidden_dim, cfg.feature_dim
        V = len(vocab)

        def param(name, shape, fan_in):
            self.params[name] = ad.Tensor(
                rng.normal(scale=1.0 / np.sqrt(fan_in), size=shape),
                requires_grad=True)

        # The encoder starts near-silent (small input projection, zero-output
        # residual branches) so conditioning signals in the decoder input are
        # picked up first and the audio pathway grows only when the loss
        # still demands it.
        param("enc.in_w", (d, h), 100.0 * d)
        param("enc.in_b", (h,), 1)
        for i in range(cfg.encoder_layers):
            param(f"enc.l{i}.w1", (h, h), h)
            param(f"enc.l{i}.b1", (h,), 1)
            self.params[f"enc.l{i}.w2"] = ad.Tensor(np.zeros((h, h)), requires_grad=True)
            param(f"enc.l{i}.b2", (h,), 1)
        param("dec.emb", (V, h), h)
        param("dec.l0.w1", (2 * h, h), 2 * h)
        param("dec.l0.b1", (h,), 1)
        param("dec.out_w", (h, V), h)
        param("dec.out_b", (V,), 1)
        param("disc.w1", (h, cfg.disc_hidden), h)
        param("disc.b1", (cfg.disc_hidden,), 1)
        param("disc.w2", (cfg.disc_hidden, 2), cfg.disc_hidden)
        param("disc.b2", (2,), 1)

    def state_dict(self):
        return {name: t.values.copy() for name, t in self.params.items()}

    def load_state_dict(self, state):
        if set(state) != set(self.params):
            raise ShapeMismatch("checkpoint parameter names do not match model")
        for name, values in state.items():
            if values.shape != self.params[name].values.shape:
                raise ShapeMismatch(f"{name}: {values.shape} vs {self.params[name].values.shape}")
            self.params[name] = ad.Tensor(values, requires_grad=True)

    def zero_grad(self):
        for t in self.params.values():
            t.zero_grad()

    def _checked(self, rows):
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[1] != self.cfg.feature_dim:
            raise ShapeMismatch(f"expected (T, {self.cfg.feature_dim}) features")
        if not len(rows):
            # decode_all attends each prefix to its own rows, so it needs one
            raise ShapeMismatch("an utterance has no encoder rows")
        return rows

    def encode(self, pooled):
        """pooled: a batch, a list of each utterance's pool4 rows, (ceil(T/4),
        feature_dim) arrays. The encoder is position-wise, so the rows are
        stacked in order into one (sum of ceil(T/4), hidden_dim) Tensor."""
        x = ad.Tensor(np.concatenate([self._checked(rows) for rows in pooled]))
        p = self.params
        h = ad.linear(x, p["enc.in_w"], p["enc.in_b"])
        for i in range(self.cfg.encoder_layers):
            inner = ad.relu(ad.linear(h, p[f"enc.l{i}.w1"], p[f"enc.l{i}.b1"]))
            h = ad.add(h, ad.linear(inner, p[f"enc.l{i}.w2"], p[f"enc.l{i}.b2"]))
        return h

    def _checked_prefixes(self, prefix):
        """A batch of prefixes (id lists) as (their lengths, their concatenated
        ids, each one's first id). The first ids are tested as greedy_decode
        tests its one, then all ids are range-checked at once, not token by
        token; a batch with one bad prefix fails as that prefix alone would."""
        lengths = [len(pre) for pre in prefix]
        if not all(lengths):
            raise EmptyPrefix("decoder prefix is empty")
        firsts = [pre[0] for pre in prefix]
        _check_first_tokens(firsts)
        ids = np.concatenate([np.asarray(pre, dtype=np.int64) for pre in prefix])
        if ids.min() < 0 or ids.max() >= len(self.vocab):
            bad = (ids < 0) | (ids >= len(self.vocab))
            raise UnknownToken(f"token id {ids[bad.argmax()]} out of range")
        return lengths, ids, firsts

    def decode_all(self, enc_out, prefix, frames):
        """Teacher-forced next-token logits for a batch of prefixes (id lists):
        utterance u owns frames[u] rows of the stacked encoder output, each
        prefix attends only to its own rows, and the logits of all prefixes
        are stacked in order: (sum of L, V)."""
        if len(frames) != len(prefix) or sum(frames) != enc_out.shape[0]:
            raise ShapeMismatch("frames must count each prefix's rows of the encoder output")
        lengths, ids, firsts = self._checked_prefixes(prefix)
        p = self.params
        emb = ad.embedding(p["dec.emb"], ids)
        tag = ad.embedding(p["dec.emb"], np.repeat(firsts, lengths))
        table = sinusoidal_positions(max(lengths), self.cfg.hidden_dim)
        d_in = ad.add(ad.add(emb, tag), ad.Tensor(np.concatenate([table[:n] for n in lengths])))
        ctx = ad.attention(d_in, enc_out, lengths, frames, 1.0 / np.sqrt(self.cfg.hidden_dim))
        hid = ad.relu(ad.linear(ad.concat([ctx, d_in], axis=1), p["dec.l0.w1"], p["dec.l0.b1"]))
        return ad.linear(hid, p["dec.out_w"], p["dec.out_b"])

    def _greedy_step(self, enc, tag):
        """One greedy decode's step function, forward only on the parameter
        arrays: step(token, position) is row k of decode_all, the next-token
        logits after token k, given position k's row of the sinusoidal table
        and the encoder rows enc. What no step changes (the tag's embedding
        row, enc.T, the scale and the decoder arrays) is read here once. Each
        step writes its context and its decoder input into the two halves of
        one (2h,) row and runs the rest in place, in decode_all's order, so
        the row differs from decode_all's at most by the rounding of a
        one-row product against a multi-row one."""
        p = self.params
        h = self.cfg.hidden_dim
        emb = p["dec.emb"].values
        tag_row = emb[tag]
        enc_t = enc.T
        scale = 1.0 / np.sqrt(h)
        w1, b1 = p["dec.l0.w1"].values, p["dec.l0.b1"].values
        out_w, out_b = p["dec.out_w"].values, p["dec.out_b"].values
        hid_in = np.empty(2 * h)
        ctx, d_in = hid_in[:h], hid_in[h:]
        # the reductions ndarray.max and ndarray.sum run, minus their wrapper
        row_max, row_sum = np.maximum.reduce, np.add.reduce

        def step(token, position):
            np.add(emb[token] + tag_row, position, out=d_in)
            scores = d_in @ enc_t
            scores *= scale
            scores -= row_max(scores)
            e = np.exp(scores, out=scores)
            e /= row_sum(e)
            np.matmul(e, enc, out=ctx)
            hid = hid_in @ w1
            hid += b1
            np.maximum(hid, 0.0, out=hid)
            logits = hid @ out_w
            logits += out_b
            return logits

        return step

    def greedy_decode(self, enc, first_token, max_len=32):
        """Greedy token ids after first_token for one utterance's encoder
        rows, encode([pooled]).values, up to eos or max_len steps. With no
        self-attention, each step computes one new row off the autodiff tape,
        not the prefix."""
        _check_first_tokens((first_token,))
        step = self._greedy_step(enc, first_token)
        out, token = [], first_token
        for position in sinusoidal_positions(max_len, self.cfg.hidden_dim):
            # Softmax is monotonic, so the argmax of the logits is the token.
            token = int(step(token, position).argmax())
            if token == EOS_ID:
                break
            out.append(token)
        return out

    def discriminate(self, enc_out, lam, frames):
        """Gender logits through the gradient reversal layer for a batch whose
        utterance u owns frames[u] rows of the stacked encoder output: (B, 2),
        each row the mean over its utterance's rows."""
        return gender_head(self.params, ad.grl_apply(enc_out, lam),
                           ad.Tensor(pooling_matrix(frames)))


def gender_head(params, x, pool):
    """(B, 2) gender logits from the disc.* entries of params, for the GRL
    adversary and the probe: relu(linear), linear, then the (B, rows of x)
    Tensor pool averages each utterance's rows."""
    hid = ad.relu(ad.linear(x, params["disc.w1"], params["disc.b1"]))
    return ad.matmul(pool, ad.linear(hid, params["disc.w2"], params["disc.b2"]))


def sequence_loss(logits, targets, smoothing: float):
    """Label-smoothed cross entropy of a batch: targets is a list of id lists
    whose (L, V) logits are stacked in order; the loss is the mean over
    utterances of each one's mean over its non-pad positions."""
    ids = np.concatenate([np.asarray(t, dtype=np.int64) for t in targets])
    if logits.values.shape[0] != len(ids):
        raise ShapeMismatch("logits and targets disagree on length")
    n = logits.values.shape[1]
    q = np.full((len(ids), n), smoothing / (n - 1))
    q[np.arange(len(ids)), ids] = 1.0 - smoothing
    mask = (ids != PAD_ID).astype(np.float64)
    utt = np.repeat(np.arange(len(targets)), [len(t) for t in targets])
    count = np.maximum(np.bincount(utt, weights=mask, minlength=len(targets)), 1.0)
    q *= (mask / (count[utt] * len(targets)))[:, None]
    return ad.cross_entropy(logits, q)


def gender_targets(labels, weights: ClassWeights):
    """(B, 2) cross-entropy targets of B SpeakerGender labels: F in column 0,
    M in column 1, each row's class weight over B."""
    female = np.array([g is SpeakerGender.F for g in labels], dtype=bool)
    return np.stack([female * weights.w_f, ~female * weights.w_m], axis=1) / len(labels)


def weighted_disc_loss(logits, labels, weights: ClassWeights):
    """Class-weighted cross entropy of (B, 2) gender logits with B
    SpeakerGender labels, averaged over the batch."""
    return ad.cross_entropy(logits, gender_targets(labels, weights))


def combined_loss(translation_loss, disc_loss, cfg: ModelConfig):
    """translation_loss + disc_loss_weight * disc_loss (disc term optional)."""
    if not np.all(np.isfinite(translation_loss.values)):
        raise NonFinite("translation loss is not finite")
    if disc_loss is None:
        return translation_loss
    if not np.all(np.isfinite(disc_loss.values)):
        raise NonFinite("discriminator loss is not finite")
    return ad.add(translation_loss, ad.mul(disc_loss, cfg.disc_loss_weight))


def save_model(model: TranslationModel, path) -> None:
    """Checkpoint plus a sidecar text header with config and vocabulary."""
    ad.save_checkpoint(model.state_dict(), path)
    lines = [f"{f.name}={getattr(model.cfg, f.name)}" for f in fields(ModelConfig)]
    lines.append("vocab=" + " ".join(model.vocab.tokens[len(RESERVED_TOKENS):]))
    with open(str(path) + ".meta", "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


def load_model(path) -> TranslationModel:
    """Inverse of save_model. Keys that are not ModelConfig fields (such as a
    legacy dropout line) are ignored; a missing, repeated, unparsable or
    invalid one, or a header that does not fit the checkpoint, raises
    MalformedHeader."""
    meta_path = str(path) + ".meta"
    read = {f.name for f in fields(ModelConfig)} | {"vocab"}
    meta = {}
    for lineno, line in enumerate(utf8_lines(meta_path), 1):
        key, _, value = line.rstrip("\n").partition("=")
        if key in read and key in meta:
            raise MalformedHeader(f"{meta_path}:{lineno}: repeated key {key!r}")
        meta[key] = value

    def header(key, parse=str):
        if key not in meta:
            raise MalformedHeader(f"{meta_path}: missing key {key!r}")
        try:
            return parse(meta[key])
        except ValueError:
            raise MalformedHeader(f"{meta_path}: cannot parse {key}={meta[key]!r}") from None

    try:
        cfg = ModelConfig(**{f.name: header(f.name, f.type) for f in fields(ModelConfig)})
        model = TranslationModel(Vocabulary(header("vocab").split()), cfg)
        model.load_state_dict(ad.load_checkpoint(path))
    except (ValueError, UnknownToken, ShapeMismatch) as exc:
        raise MalformedHeader(f"{meta_path} does not describe {path}: {exc}") from None
    return model
