"""Command-line entry point exposing the pipeline as subcommands: corpus
synthesis, perturbation, training, checkpoint averaging, evaluation, probing,
and small calculators for schedules and class weights."""

import argparse
import json
import os
import sys
from dataclasses import MISSING, fields, replace

import numpy as np

from . import autodiff as ad
from . import evaluation as ev
from . import model as mdl
from . import synthdata as sd
from . import train as tr
from .autodiff import LambdaSchedule, lambda_at
from .errors import ConfigInvalid, VoxtagError
from .perturb import PerturbConfig, apply_opposite

_CONFIG_SECTIONS = (mdl.ModelConfig, tr.TrainConfig, PerturbConfig, sd.SynthSpec)
_KNOWN_KEYS = {f.name for cls in _CONFIG_SECTIONS for f in fields(cls)}
# TrainConfig fields that hold objects, which a flat JSON value cannot express;
# --use-grl and --with-perturb set them up instead.
_OBJECT_KEYS = {"grl_schedule", "perturb"}


def load_run_config(path):
    """Flat JSON document whose keys mirror the config dataclasses; unknown
    keys and keys of object-valued fields are rejected before any work starts."""
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as f:
            cfg = json.load(f)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigInvalid(f"{path}: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigInvalid("config must be a JSON object")
    unknown = sorted(set(cfg) - _KNOWN_KEYS)
    if unknown:
        raise ConfigInvalid(f"unknown config keys: {', '.join(unknown)}")
    objects = sorted(set(cfg) & _OBJECT_KEYS)
    if objects:
        raise ConfigInvalid(f"cannot set {', '.join(objects)} from a config file: "
                            "only --use-grl and --with-perturb configure them")
    return cfg


def _section_kwargs(cfg, cls, overrides):
    """Config-file values for one dataclass, with the non-None overrides that
    name one of its fields winning over the file. The overrides are a
    command's parsed flags, vars(args): each flag's dest is its config key.
    A value of the wrong type (an int may stand for a float; a bool is never
    a number) or a required field that neither gives is a ConfigInvalid
    naming the key."""
    types = {f.name: f.type for f in fields(cls)}
    kwargs = {k: v for k, v in cfg.items() if k in types}
    kwargs.update({k: v for k, v in overrides.items()
                   if k in types and v is not None})
    for key, value in kwargs.items():
        kind = types[key]
        if isinstance(value, bool) != (kind is bool) or \
                not isinstance(value, (int, float) if kind is float else kind):
            raise ConfigInvalid(f"config key {key} must be of type {kind.__name__}, got {value!r}")
    for f in fields(cls):
        if f.name not in kwargs and f.default is MISSING and f.default_factory is MISSING:
            raise ConfigInvalid(f"missing {f.name}: give it as a flag or a config key")
    return kwargs


def cmd_synth_data(args):
    cfg = load_run_config(args.config)
    spec = sd.SynthSpec(**_section_kwargs(cfg, sd.SynthSpec, vars(args)))
    utterances, entries = sd.generate_corpus(spec)
    os.makedirs(args.out, exist_ok=True)
    manifest = sd.write_manifest(utterances, args.out)
    ev.write_eval_tsv(entries, os.path.join(args.out, "eval.tsv"))
    print(f"wrote {len(utterances)} utterances to {manifest}")
    return 0


def cmd_perturb(args):
    cfg = load_run_config(args.config)
    pcfg = PerturbConfig(**_section_kwargs(cfg, PerturbConfig, vars(args)))
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
    cfg, flags = load_run_config(args.config), vars(args)
    model_cfg = mdl.ModelConfig(**_section_kwargs(cfg, mdl.ModelConfig, flags))
    train_kwargs = _section_kwargs(cfg, tr.TrainConfig, flags)
    if args.with_perturb:
        train_kwargs["perturb"] = PerturbConfig(**_section_kwargs(cfg, PerturbConfig, flags))
    train_cfg = tr.TrainConfig(**train_kwargs)
    utterances = sd.read_manifest(args.manifest)
    init = ad.load_checkpoint(args.init) if args.init else None
    os.makedirs(args.out, exist_ok=True)
    result = tr.train_loop(utterances, model_cfg, train_cfg, init=init,
                           metrics_path=os.path.join(args.out, "metrics.jsonl"))
    for i, state in enumerate(result.checkpoints):
        step = (i + 1) * train_cfg.interval
        ad.save_checkpoint(state, os.path.join(args.out, f"ckpt_{step:06d}.vxck"))
    mdl.save_model(result.averaged_model(train_cfg.average_last),
                   os.path.join(args.out, "model.vxck"))
    final_val = result.val_losses[-1][1]
    print(f"trained {train_cfg.total_updates} updates; "
          f"final validation loss {final_val:.4f}")
    return 0


def cmd_average_ckpt(args):
    states = [ad.load_checkpoint(p) for p in args.inputs]
    ad.save_checkpoint(ad.average_checkpoints(states), args.out)
    print(f"averaged {len(states)} checkpoints into {args.out}")
    return 0


def cmd_evaluate(args):
    model = mdl.load_model(args.model)
    utterances = sd.read_manifest(args.manifest)
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


def cmd_schedule(args):
    schedule = LambdaSchedule(gamma=args.gamma, total_updates=args.total)
    if args.at is not None:
        print(f"lambda={lambda_at(schedule, args.at):.6f}")
        return 0
    interval = max(1, args.total // 10)
    for step in range(interval, args.total + 1, interval):
        print(f"step={step} lambda={lambda_at(schedule, step):.6f}")
    return 0


def cmd_class_weights(args):
    weights = mdl.compute_class_weights(args.f, args.m)
    print(f"w_f={weights.w_f:.4f} w_m={weights.w_m:.4f}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="voxtag")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **common):
        p = sub.add_parser(name)
        p.set_defaults(func=func)
        if common.get("config"):
            p.add_argument("--config", default=None)
        if common.get("seed"):
            p.add_argument("--seed", type=int, default=None)
        if common.get("out"):
            p.add_argument("--out", required=True)
        return p

    p = add("synth-data", cmd_synth_data, config=True, seed=True, out=True)
    p.add_argument("--n-utterances", type=int, default=None)
    p.add_argument("--gender-split", type=float, default=None)
    p.add_argument("--token-duration", type=float, default=None)

    p = add("perturb", cmd_perturb, config=True, seed=True, out=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--p", type=float, default=None)

    p = add("train", cmd_train, config=True, seed=True, out=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--mode", default=None, choices=mdl.MODES)
    p.add_argument("--init", default=None)
    p.add_argument("--use-grl", action="store_const", const=True, default=None)
    p.add_argument("--with-perturb", action="store_true")
    p.add_argument("--lr-peak", type=float, default=None)
    p.add_argument("--warmup-updates", type=int, default=None)
    p.add_argument("--total-updates", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=None)

    p = add("average-ckpt", cmd_average_ckpt, out=True)
    p.add_argument("inputs", nargs="+")

    p = add("evaluate", cmd_evaluate, out=True)
    p.add_argument("--model", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--eval-tsv", required=True)

    p = add("probe", cmd_probe, seed=True)
    p.add_argument("--model", required=True)
    p.add_argument("--manifest", required=True)

    p = add("schedule", cmd_schedule)
    p.add_argument("--gamma", type=float, default=10.0)
    p.add_argument("--total", type=int, required=True)
    p.add_argument("--at", type=int, default=None)

    p = add("class-weights", cmd_class_weights)
    p.add_argument("--f", type=float, required=True)
    p.add_argument("--m", type=float, required=True)
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
            NotADirectoryError, FileExistsError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
