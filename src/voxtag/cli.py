"""Command-line entry point exposing the pipeline as subcommands: corpus
synthesis, perturbation, training, evaluation and probing. Flags are the only
settings; each sets the config field it names."""

import argparse
import os
import sys
from dataclasses import fields, replace

import numpy as np

from . import evaluation as ev
from . import model as mdl
from . import synthdata as sd
from . import train as tr
from .errors import EmptyList, UnknownToken, VoxtagError
from .perturb import PerturbConfig, apply_opposite


def _section_kwargs(cls, flags):
    """The given flags that name a field of the dataclass cls. The flags are a
    command's parsed arguments, vars(args): each flag's dest is its field."""
    names = {f.name for f in fields(cls)}
    return {k: v for k, v in flags.items() if k in names and v is not None}


def cmd_synth_data(args):
    spec = sd.SynthSpec(**_section_kwargs(sd.SynthSpec, vars(args)))
    utterances, entries = sd.generate_corpus(spec)
    os.makedirs(args.out, exist_ok=True)
    manifest = sd.write_manifest(utterances, args.out)
    ev.write_eval_tsv(entries, os.path.join(args.out, "eval.tsv"))
    print(f"wrote {len(utterances)} utterances to {manifest}")
    return 0


def cmd_perturb(args):
    pcfg = PerturbConfig(**_section_kwargs(PerturbConfig, vars(args)))
    utterances = sd.read_manifest(args.manifest)
    n_changed = 0
    for i, utt in enumerate(utterances):
        rng = np.random.default_rng([pcfg.seed, i])
        w, changed = apply_opposite(utt.waveform, utt.gender, pcfg, rng)
        utterances[i] = replace(utt, waveform=w)
        n_changed += changed
    os.makedirs(args.out, exist_ok=True)
    manifest = sd.write_manifest(utterances, args.out)
    print(f"perturbed {n_changed}/{len(utterances)} utterances into {manifest}")
    return 0


def cmd_train(args):
    flags = vars(args)
    model_cfg = mdl.ModelConfig(**_section_kwargs(mdl.ModelConfig, flags))
    train_cfg = tr.TrainConfig(**_section_kwargs(tr.TrainConfig, flags))
    utterances = sd.read_manifest(args.manifest)
    init = vocab = None
    if args.init:
        # a fine-tune keeps the init's token ids and shape, so it trains in its
        # vocabulary and config; only the mode comes from --mode
        base = mdl.load_model(args.init)
        init, vocab = base.state_dict(), base.vocab
        model_cfg = replace(base.cfg, mode=model_cfg.mode)
        known = set(vocab.tokens)
        for utt in utterances:
            for t in utt.target_tokens:
                if t not in known:
                    raise UnknownToken(f"{args.manifest}: utterance {utt.id} uses token {t!r}, "
                                       f"which the vocabulary of {args.init} lacks")
    made_out = not os.path.exists(args.out)
    os.makedirs(args.out, exist_ok=True)
    try:
        result = tr.train_loop(utterances, model_cfg, train_cfg, init=init, vocab=vocab,
                               metrics_path=os.path.join(args.out, "metrics.jsonl"))
    except BaseException:
        # a run that fails before writing anything leaves no directory behind
        if made_out and not os.listdir(args.out):
            os.rmdir(args.out)
        raise
    mdl.save_model(result.model, os.path.join(args.out, "model.vxck"))
    final_val = result.val_losses[-1][1]
    print(f"trained {train_cfg.total_updates} updates; "
          f"final validation loss {final_val:.4f}")
    return 0


def cmd_evaluate(args):
    model = mdl.load_model(args.model)
    utterances = sd.read_manifest(args.manifest)
    if not utterances:
        raise EmptyList(f"{args.manifest}: no utterances to evaluate")
    entries = ev.read_eval_tsv(args.eval_tsv)
    reports, hypotheses = ev.tag_inversion_eval(model, utterances, entries)
    refs = [list(e.reference) for e in ev.entries_for(utterances, entries)]
    hyps = [hypotheses[u.id] for u in utterances]
    bleu = ev.corpus_bleu(hyps, refs)
    ev.write_report(reports, bleu, args.out)
    for name, rep in reports.items():
        acc = "n/a" if rep.accuracy is None else f"{rep.accuracy:.4f}"
        print(f"{name}: accuracy={acc} coverage={rep.coverage:.4f}")
    print(f"bleu={bleu:.2f}")
    return 0


def cmd_probe(args):
    model = mdl.load_model(args.model)
    utterances = sd.read_manifest(args.manifest)
    accuracy = tr.probe_discriminator(model, utterances, seed=args.seed or 0)
    print(f"probe_accuracy={accuracy:.4f}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="voxtag")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **common):
        p = sub.add_parser(name)
        p.set_defaults(func=func)
        if common.get("seed"):
            p.add_argument("--seed", type=int, default=None)
        if common.get("out"):
            p.add_argument("--out", required=True)
        return p

    p = add("synth-data", cmd_synth_data, seed=True, out=True)
    p.add_argument("--n-utterances", type=int, required=True)
    p.add_argument("--gender-split", type=float, default=None)
    p.add_argument("--token-duration", type=float, default=None)

    p = add("perturb", cmd_perturb, seed=True, out=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--p", type=float, default=None)

    p = add("train", cmd_train, seed=True, out=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--mode", default=None, choices=mdl.MODES)
    p.add_argument("--init", default=None)
    p.add_argument("--use-grl", action="store_const", const=True, default=None)
    p.add_argument("--with-perturb", dest="perturb_p", action="store_const",
                   const=PerturbConfig.p, default=None)
    p.add_argument("--lr-peak", type=float, default=None)
    p.add_argument("--warmup-updates", type=int, default=None)
    p.add_argument("--total-updates", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=None)

    p = add("evaluate", cmd_evaluate, out=True)
    p.add_argument("--model", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--eval-tsv", required=True)

    p = add("probe", cmd_probe, seed=True)
    p.add_argument("--model", required=True)
    p.add_argument("--manifest", required=True)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage errors; the latter are
        # validation failures in this interface.
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except (VoxtagError, ValueError, FileNotFoundError, IsADirectoryError,
            NotADirectoryError, FileExistsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
