"""Training loops, Noam learning-rate schedule, Adam, checkpoint averaging,
and the post-hoc gender probe on frozen encoders."""

import contextlib
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from . import model as mdl
from .autodiff import LambdaSchedule, average_checkpoints, lambda_at
from .errors import ConfigInvalid, DivergedLoss, EmptyList, SingleClassData
from .perturb import PerturbConfig, SpeakerGender, apply_opposite

# share of the corpus, taken from its head, held out for validation
HOLDOUT_FRACTION = 0.1
# Adversarial training is two-timescale: the discriminator head tracks
# the encoder closely so the reversed gradient points toward class
# confusion rather than an ever-flipping decision boundary.
DISC_LR_MULTIPLIER = 10.0
# Adam's moment decay rates and the floor of its denominator
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.98, 1e-9
# the post-hoc gender probe: full-batch Adam updates and their learning rate
PROBE_STEPS, PROBE_LR = 400, 5e-3

__all__ = ["TrainConfig", "TrainResult", "noam_lr", "Adam", "train_loop",
           "average_checkpoints", "probe_discriminator"]


@dataclass(frozen=True)
class TrainConfig:
    use_grl: bool = False
    grl_schedule: LambdaSchedule = None
    # the chance that a drawn training example is shifted toward the opposite gender
    perturb_p: float = 0.0
    lr_peak: float = 2e-3
    warmup_updates: int = 200
    total_updates: int = 2000
    batch_size: int = 8
    seed: int = 0
    average_last: int = 7
    checkpoint_interval: int = 0

    def __post_init__(self):
        if self.warmup_updates > self.total_updates:
            raise ConfigInvalid("warmup_updates must not exceed total_updates")
        if min(self.warmup_updates, self.total_updates, self.batch_size) <= 0:
            raise ConfigInvalid("updates and batch size must be positive")
        # a NaN fails every comparison, so this rejects it as well
        if not 0 < self.lr_peak < math.inf:
            raise ConfigInvalid(f"lr_peak must be finite and positive, got {self.lr_peak}")
        if not 0 <= self.perturb_p <= 1:
            raise ConfigInvalid(f"perturb_p must be in [0, 1], got {self.perturb_p}")
        if self.checkpoint_interval < 0:
            raise ConfigInvalid(f"checkpoint_interval must be >= 0, got {self.checkpoint_interval}")
        if self.average_last < 1:
            raise ConfigInvalid(f"average_last must be at least 1, got {self.average_last}")
        if self.grl_schedule is not None and not self.use_grl:
            raise ConfigInvalid("grl_schedule is set but use_grl is False")
        saved = self.total_updates // self.interval
        if self.average_last > saved:
            # the default interval saves one checkpoint per update below 20
            # updates and 10 to 19 from 20 on, so more updates meet an
            # average of at most 10; a larger one needs checkpoint_interval
            if self.checkpoint_interval or self.average_last <= 10:
                hint = (f"at that interval total_updates must be at least "
                        f"{self.average_last * self.interval}")
            elif self.total_updates >= self.average_last:
                hint = (f"set checkpoint_interval to at most "
                        f"{self.total_updates // self.average_last}")
            else:
                hint = f"set checkpoint_interval to 1 and total_updates to at least {self.average_last}"
            raise ConfigInvalid(f"average_last {self.average_last} exceeds the {saved} checkpoints "
                                f"saved, one every {self.interval} of {self.total_updates} "
                                f"updates; {hint}")

    @property
    def interval(self):
        return self.checkpoint_interval or max(1, self.total_updates // 10)


@dataclass
class TrainResult:
    model: mdl.TranslationModel
    checkpoints: list
    val_losses: list = field(default_factory=list)


def noam_lr(step: int, warmup: int, lr_peak: float) -> float:
    """Linear ramp to lr_peak at step=warmup, inverse-sqrt decay after."""
    return lr_peak * min(step / warmup, np.sqrt(warmup / step))


class Adam:
    def __init__(self, params, lr_scale=None):
        self.params = params
        # each parameter's lr multiplier, looked up by its name's first part
        self.scale = {k: (lr_scale or {}).get(k.split(".")[0], 1.0) for k in params}
        self.m = {k: np.zeros_like(t.values) for k, t in params.items()}
        self.v = {k: np.zeros_like(t.values) for k, t in params.items()}
        # one scratch array per parameter for the step's temporaries
        self._buf = {k: np.empty_like(t.values) for k, t in params.items()}
        self.t = 0

    def step(self, lr):
        """One update of every parameter that has a gradient. Both bias
        corrections fold into two scalars, a step size lr * sqrt(c2) / c1 and
        a denominator floor eps * sqrt(c2), where c1 = 1 - b1^t and c2 =
        1 - b2^t (Kingma & Ba, 2015, section 2). The moments are updated in
        place; each parameter gets a fresh values array, so arrays handed to
        load_state_dict are never written."""
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        root_c2 = math.sqrt(1 - b2 ** self.t)
        step_size, eps_hat = lr * root_c2 / (1 - b1 ** self.t), ADAM_EPS * root_c2
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            m, v, buf = self.m[name], self.v[name], self._buf[name]
            m *= b1
            m += np.multiply(1 - b1, g, out=buf)
            v *= b2
            v += np.multiply(1 - b2, np.square(g, out=buf), out=buf)
            np.sqrt(v, out=buf)
            buf += eps_hat
            np.divide(m, buf, out=buf)
            buf *= self.scale[name] * step_size
            p.values = p.values - buf


def _translation_loss(model, batch, vocab):
    """One graph over a batch of utterances: the stacked encoder output, its
    rows per utterance, and the mean translation loss over the batch."""
    pooled = [utt.pooled for utt in batch]
    enc = model.encode(pooled)
    frames = [len(rows) for rows in pooled]
    targets = [vocab.encode(utt.target_tokens) + [mdl.EOS_ID] for utt in batch]
    prefixes = [[mdl.start_token(model.cfg.mode, utt.gender)] + t[:-1]
                for utt, t in zip(batch, targets)]
    loss = mdl.sequence_loss(model.decode_all(enc, prefixes, frames), targets,
                             model.cfg.label_smoothing)
    return enc, frames, loss


def _backward_batch(model, batch, vocab, lam, weights):
    """Backpropagate one graph over a training batch into the parameters'
    gradients; with lam the discriminator loss joins through the gradient
    reversal layer. Returns the translation and discriminator loss values;
    the graph is freed on return."""
    enc, frames, t_loss = _translation_loss(model, batch, vocab)
    d_loss = None if lam is None else mdl.weighted_disc_loss(
        model.discriminate(enc, lam, frames), [utt.gender for utt in batch], weights)
    ad.backward(mdl.combined_loss(t_loss, d_loss, model.cfg))
    return t_loss.values.item(), None if d_loss is None else d_loss.values.item()


def _val_loss(model, utterances, vocab, batch_size):
    """Mean per-utterance translation loss, forward only (no_grad), one
    forward per chunk of batch_size."""
    total = 0.0
    with ad.no_grad():
        for lo in range(0, len(utterances), batch_size):
            chunk = utterances[lo:lo + batch_size]
            total += _translation_loss(model, chunk, vocab)[2].values.item() * len(chunk)
    return total / max(len(utterances), 1)


def train_loop(corpus, model_cfg, train_cfg, init=None, vocab=None,
               metrics_path=None) -> TrainResult:
    """Adam + Noam training over utterances; returns the model whose parameters
    are the mean of the last average_last interval checkpoints, and those
    checkpoints. With use_grl the discriminator loss joins the total
    through the gradient reversal layer at lambda_at(current step); without a
    grl_schedule lambda is fixed at 0.5, or at 10.0 for a fine-tune from init.
    With perturb_p > 0, each example is perturbed as its batch is drawn."""
    if vocab is None:
        tokens = sorted({t for u in corpus for t in u.target_tokens})
        vocab = mdl.Vocabulary(tokens)

    model = mdl.TranslationModel(vocab, model_cfg, seed=train_cfg.seed)
    if init is not None:
        model.load_state_dict(init)
    schedule = train_cfg.grl_schedule
    if schedule is None:
        # A fine-tune (a run from init) starts from an encoder that already
        # separates the genders, so it reverses harder than a run from scratch.
        schedule = LambdaSchedule(total_updates=train_cfg.total_updates,
                                  fixed_lambda=0.5 if init is None else 10.0)

    n_val = max(2, int(round(HOLDOUT_FRACTION * len(corpus))))
    n_val = min(n_val, max(len(corpus) - train_cfg.batch_size, 1))
    val_set, train_set = corpus[:n_val], corpus[n_val:]
    if not train_set:
        raise EmptyList(f"a corpus of {len(corpus)} utterance(s) holds {len(val_set)} out "
                        "for validation and leaves none to train on")

    n_f = sum(u.gender is SpeakerGender.F for u in train_set)
    f_f = min(max(n_f / len(train_set), 1e-3), 1 - 1e-3)
    weights = mdl.compute_class_weights(f_f, 1.0 - f_f)

    lr_scale = {"disc": DISC_LR_MULTIPLIER} if train_cfg.use_grl else None
    opt = Adam(model.params, lr_scale=lr_scale)
    rng = np.random.default_rng(train_cfg.seed)
    perturb = PerturbConfig(p=train_cfg.perturb_p) if train_cfg.perturb_p > 0 else None
    initial_val = _val_loss(model, val_set, vocab, train_cfg.batch_size)
    val_losses = [(0, initial_val)]
    checkpoints = []
    batches_per_epoch = math.ceil(len(train_set) / train_cfg.batch_size)
    # pool the training utterances up front, so one whose waveform is shorter
    # than one frame fails the run before metrics_path is opened
    for utt in train_set:
        utt.pooled

    with open(metrics_path, "w", encoding="utf-8") if metrics_path \
            else contextlib.nullcontext() as metrics:
        for step in range(1, train_cfg.total_updates + 1):
            epoch, k = divmod(step - 1, batches_per_epoch)
            if k == 0:
                order = rng.permutation(len(train_set))
            batch = []
            for i in order[k * train_cfg.batch_size:(k + 1) * train_cfg.batch_size]:
                utt = train_set[i]
                if perturb is not None:
                    # one generator per (epoch, index): the order of draws changes no output
                    sub = np.random.default_rng([train_cfg.seed, 7919, epoch, i])
                    w, manipulated = apply_opposite(utt.waveform, utt.gender, perturb, sub)
                    if manipulated:
                        utt = replace(utt, waveform=w)
                batch.append(utt)
            lam = lambda_at(schedule, min(step, schedule.total_updates)) \
                if train_cfg.use_grl else None
            model.zero_grad()
            t_loss, d_loss = _backward_batch(model, batch, vocab, lam, weights)
            lr = noam_lr(step, train_cfg.warmup_updates, train_cfg.lr_peak)
            opt.step(lr)
            if metrics:
                metrics.write(json.dumps({
                    "step": step, "lr": lr, "translation_loss": t_loss,
                    "disc_loss": d_loss, "lambda": lam}) + "\n")
            if step % train_cfg.interval == 0:
                checkpoints.append(model.state_dict())
                del checkpoints[:-train_cfg.average_last]
                val = _val_loss(model, val_set, vocab, train_cfg.batch_size)
                val_losses.append((step, val))
                if not np.isfinite(val) or val > 10.0 * initial_val:
                    raise DivergedLoss(f"validation loss {val} at step {step}")
    model.load_state_dict(average_checkpoints(checkpoints))
    return TrainResult(model=model, checkpoints=checkpoints, val_losses=val_losses)


def probe_discriminator(model, held_out, seed=0) -> float:
    """Retrain the adversary's classifier, voxtag.model.gender_head on fresh
    disc.* parameters, on the frozen encoder's outputs of the even-indexed
    utterances; report its accuracy on the odd-indexed rest."""
    train_set = held_out[0::2]
    test_set = held_out[1::2]
    for split in (train_set, test_set):
        if len({u.gender for u in split}) < 2:
            raise SingleClassData("both genders must appear in each probe split")

    def encoded(split):
        # one forward per split: the encoder is row-wise, so its stacked rows
        # equal per-utterance encodes bit for bit (for utterances of two rows
        # or more; numpy multiplies a single row as a matrix-vector product)
        pooled = [utt.pooled for utt in split]
        with ad.no_grad():
            X = model.encode(pooled)
        P = ad.Tensor(mdl.pooling_matrix([len(rows) for rows in pooled]))
        return X, P, mdl.gender_targets([utt.gender for utt in split], mdl.ClassWeights(1.0, 1.0))

    X, P, q = encoded(train_set)
    X_te, P_te, q_te = encoded(test_set)
    h, dh = model.params["disc.w1"].shape
    rng = np.random.default_rng(seed)
    params = {
        "disc.w1": ad.Tensor(rng.normal(scale=1 / np.sqrt(h), size=(h, dh)), requires_grad=True),
        "disc.b1": ad.Tensor(np.zeros(dh), requires_grad=True),
        "disc.w2": ad.Tensor(rng.normal(scale=1 / np.sqrt(dh), size=(dh, 2)), requires_grad=True),
        "disc.b2": ad.Tensor(np.zeros(2), requires_grad=True),
    }
    opt = Adam(params)
    for _ in range(PROBE_STEPS):
        for t in params.values():
            t.zero_grad()
        # `loss` keeps this step's graph alive until the next one is built;
        # freeing it first lets malloc trim the heap top every step and fault
        # it back in (≈190,000 minor faults in one probe call)
        loss = ad.cross_entropy(mdl.gender_head(params, X, P), q)
        ad.backward(loss)
        opt.step(PROBE_LR)
    with ad.no_grad():
        scores = mdl.gender_head(params, X_te, P_te).values
    return float(np.mean(np.argmax(scores, axis=1) == np.argmax(q_te, axis=1)))
