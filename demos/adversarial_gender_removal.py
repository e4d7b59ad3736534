"""Compare what a post-hoc gender probe can read off two encoders: one trained
normally and one trained against a discriminator through gradient reversal."""

from voxtag.model import ModelConfig
from voxtag.synthdata import SynthSpec, build_vocabulary, generate_corpus
from voxtag.train import TrainConfig, probe_discriminator, train_loop

corpus, _ = generate_corpus(SynthSpec(n_utterances=200, seed=11))
probe_set, _ = generate_corpus(SynthSpec(n_utterances=80, gender_split=0.5,
                                         seed=2003))
vocab = build_vocabulary()
base = dict(total_updates=2000, warmup_updates=200, lr_peak=1e-3, seed=0)


def train(model_cfg, **extra):
    cfg = TrainConfig(**base, **extra)
    return train_loop(corpus, model_cfg, cfg, vocab=vocab).model


print("training the gender-unaware baseline ...")
plain = train(ModelConfig(mode="gender_unaware"))
print("training the adversarial model (lambda = 0.5) ...")
adversarial = train(ModelConfig(mode="multi_gender"), use_grl=True)

for name, model in (("baseline", plain), ("adversarial", adversarial)):
    acc = probe_discriminator(model, probe_set, seed=0)
    print(f"{name:>12}: fresh probe reads speaker gender at {acc:.1%}")
print("\nchance on this balanced probe set is 50%.")
