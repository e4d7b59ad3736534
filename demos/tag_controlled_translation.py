"""Train a small tag-conditioned translation model from scratch and show that
the gender tag, not the voice, decides the gendered endings it produces."""

from voxtag.autodiff import no_grad
from voxtag.model import TAG_F_ID, TAG_M_ID, ModelConfig
from voxtag.synthdata import SynthSpec, build_vocabulary, generate_corpus
from voxtag.train import TrainConfig, train_loop

corpus, entries = generate_corpus(SynthSpec(n_utterances=120, seed=5))
vocab = build_vocabulary()

print(f"training on {len(corpus)} synthetic utterances ...")
cfg = TrainConfig(total_updates=1200, warmup_updates=120, lr_peak=1e-3, seed=0)
result = train_loop(corpus, ModelConfig(mode="multi_gender"), cfg, vocab=vocab)
model = result.model
print(f"validation loss {result.val_losses[0][1]:.2f} -> "
      f"{result.val_losses[-1][1]:.2f}")

for utt in corpus[:4]:
    print(f"\n{utt.id} (speaker {utt.gender.value}): "
          f"reference = {' '.join(utt.target_tokens)}")
    # one encode per utterance: only the tag differs between its two decodes
    with no_grad():
        enc = model.encode([utt.pooled]).values
    for tag, name in ((TAG_F_ID, "tag F"), (TAG_M_ID, "tag M")):
        hyp = vocab.decode(model.greedy_decode(enc, tag, max_len=16))
        print(f"  {name}: {' '.join(hyp)}")
