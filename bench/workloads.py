"""The benchmark's workloads. Each builds its inputs from the seed in `setup`,
runs one pass of work in `run` while an `ItemClock` times its items, and
checks the pass's outputs in `check`, outside the timed region.

A pass is the unit repeated until the run's time is up:
  train     one `train_loop` (GRL, fixed lambda 0.5, batch 8) on the corpus,
            then checkpoint averaging and a save_model/load_model round trip;
            an item is one optimizer update.
  perturb   one epoch of `apply_opposite` (p=0.8, rng per (epoch, i)) over
            the corpus, each manipulated output through `logmel_features`;
            an item is one utterance. Epochs continue across passes.
  evaluate  `voxtag evaluate` then `voxtag probe` on a synthesised manifest
            with the fixed model in bench/model; an item is one greedy decode.
"""

import contextlib
import functools
import hashlib
import io
import json
import math
import os
import sys
import traceback

import numpy as np

from env import BenchError

from voxtag import cli, dsp, evaluation, perturb, synthdata
from voxtag import autodiff as ad
from voxtag import model as mdl
from voxtag import train as tr
from voxtag.errors import VoxtagError

MODEL_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "model")

SIZES = {
    "full": {"train": {"utterances": 200, "updates": 150},
             "perturb": {"utterances": 120},
             "evaluate": {"utterances": 160}},
    "tiny": {"train": {"utterances": 24, "updates": 8},
             "perturb": {"utterances": 5},
             "evaluate": {"utterances": 12}},
}


@contextlib.contextmanager
def patched(owner, attr, replacement):
    """Temporarily replace a class attribute."""
    original = getattr(owner, attr)
    setattr(owner, attr, replacement)
    try:
        yield
    finally:
        setattr(owner, attr, original)


def _report_exception(where):
    print(f"bench: {where} failed:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


class Workload:
    def __init__(self, seed, size, work, clock):
        self.seed = seed
        self.size = SIZES[size][self.name]
        self.work = work
        self.clock = clock
        self.quality = {}

    @property
    def utts_per_pass(self):
        return self.size["utterances"]

    def item_hook(self):
        """Context that lets the clock see items the workload cannot time itself."""
        return contextlib.nullcontext()


class Train(Workload):
    name = "train"
    item = "update"
    repeats_items = True  # every pass is the same training run

    def setup(self):
        n = self.size["utterances"]
        self.corpus, _ = synthdata.generate_corpus(synthdata.SynthSpec(n_utterances=n, seed=self.seed))
        updates = self.size["updates"]
        self.model_cfg = mdl.ModelConfig(mode="multi_gender")
        self.train_cfg = tr.TrainConfig(
            use_grl=True, grl_schedule=ad.LambdaSchedule(total_updates=updates, fixed_lambda=0.5),
            total_updates=updates, warmup_updates=updates // 2, batch_size=8, seed=self.seed,
            checkpoint_interval=max(1, updates // 6), average_last=5)

    def item_hook(self):
        clock = self.clock
        original = tr.Adam.step

        @functools.wraps(original)
        def step(*args, **kwargs):
            original(*args, **kwargs)
            clock.stop()
            clock.start()

        return patched(tr.Adam, "step", step)

    def run(self, index, span):
        metrics = os.path.join(self.work, "metrics.jsonl")
        path = os.path.join(self.work, "model.vxck")
        done = len(self.clock.durations)
        out = {"error": True}
        self.clock.start()
        try:
            res = tr.train_loop(self.corpus, self.model_cfg, self.train_cfg, metrics_path=metrics)
            averaged = tr.average_checkpoints(res.checkpoints[-self.train_cfg.average_last:])
            res.model.load_state_dict(averaged)
            mdl.save_model(res.model, path)
            loaded = mdl.load_model(path)
            out = {"val_losses": res.val_losses, "saved": averaged, "loaded": loaded.state_dict()}
        except Exception:
            _report_exception(f"train pass {index}")
        finally:
            self.clock.cancel()
        out["updates"] = len(self.clock.durations) - done
        out["metrics"] = metrics
        return out

    def check(self, index, out):
        updates = self.train_cfg.total_updates
        if out.get("error"):
            return updates + 3, updates - out["updates"] + 3
        with open(out["metrics"], encoding="utf-8") as f:
            rows = [json.loads(line) for line in f]
        finite = len(rows) == updates and all(
            math.isfinite(r["translation_loss"]) and math.isfinite(r["disc_loss"]) for r in rows)
        initial, final = out["val_losses"][0][1], out["val_losses"][-1][1]
        saved, loaded = out["saved"], out["loaded"]
        same = set(saved) == set(loaded) and all(np.array_equal(saved[k], loaded[k]) for k in saved)
        self.quality["val_loss"] = (final, "nats")
        failed = [name for name, ok in (("finite losses", finite), ("validation loss fell", final < initial),
                                        ("reloaded parameters equal", same)) if not ok]
        for name in failed:
            print(f"bench: train pass {index}: check failed: {name}", file=sys.stderr)
        return updates + 3, len(failed)


class Perturb(Workload):
    name = "perturb"
    item = "utterance"
    repeats_items = False  # every pass is a new epoch with new draws
    P = 0.8
    FLIP_HZ = 170.0

    # Item latency grows with the utterance's duration and f0, and the
    # synthesiser's eight sentence lengths at one token duration, its 30%
    # feminine share and its sampled f0s would move the item percentiles and
    # the pass time from seed to seed. So every seed gets the same durations
    # (one even grid), the same genders (alternating) and the same f0s (one
    # even grid per gender); the seed picks each sentence and the order in
    # which each gender's f0s are dealt out.
    SHORTEST_S, LONGEST_S = 0.3, 0.7
    F0_HZ = {perturb.SpeakerGender.F: (215.0, 285.0), perturb.SpeakerGender.M: (100.0, 160.0)}
    PEAKS = {perturb.SpeakerGender.F: synthdata.F_PEAKS, perturb.SpeakerGender.M: synthdata.M_PEAKS}

    def setup(self):
        n = self.size["utterances"]
        genders = [perturb.SpeakerGender.F if k % 2 == 0 else perturb.SpeakerGender.M for k in range(n)]
        order = np.random.default_rng([self.seed, 104729])
        f0s = {}
        for gender, (lo, hi) in self.F0_HZ.items():
            count = genders.count(gender)
            f0s[gender] = list(order.permutation(np.linspace(lo, hi, count)))
        self.corpus = []
        draw = 0
        for k, gender in enumerate(genders):
            # a sentence sampled for this gender, from the seed's next draws
            while True:
                drawn, _ = synthdata.generate_corpus(synthdata.SynthSpec(
                    n_utterances=1, gender_split=0.5, token_duration=1e-3, seed=self.seed * 1_000_003 + draw))
                draw += 1
                if drawn[0].gender is gender:
                    break
            utt = drawn[0]
            duration = self.SHORTEST_S + (self.LONGEST_S - self.SHORTEST_S) * (k + 0.5) / n
            utt.id = f"utt{k:05d}"
            utt.waveform = synthdata.synth_utterance(
                float(f0s[gender].pop()), self.PEAKS[gender], utt.source_tokens,
                duration / len(utt.source_tokens))
            self.corpus.append(utt)
        self.cfg = perturb.PerturbConfig(p=self.P)

    def run(self, index, span):
        results = []
        for i, utt in enumerate(self.corpus):
            rng = np.random.default_rng([self.seed, 7919, index, i])
            self.clock.start()
            try:
                w, manipulated = perturb.apply_opposite(utt.waveform, utt.gender, self.cfg, rng)
                feats = dsp.logmel_features(w).frames if manipulated else None
                self.clock.stop()
                results.append((utt, w, manipulated, feats))
            except Exception:
                self.clock.cancel()
                _report_exception(f"perturb epoch {index} utterance {utt.id}")
                results.append((utt, None, False, None))
        return results

    def check(self, index, results):
        failed = 0
        for utt, w, manipulated, feats in results:
            ok = (w is not None and len(w.samples) == len(utt.waveform.samples)
                  and bool(np.all(np.isfinite(w.samples)))
                  and (feats is None or bool(np.all(np.isfinite(feats)))))
            failed += not ok
        if index == 0:
            # criterion 7's readout, on the first epoch's outputs only
            flips = [self._flipped(utt, w) for utt, w, manipulated, _ in results if manipulated]
            self.quality["gender_flip_frac"] = (sum(flips) / max(len(flips), 1), "ratio")
        return len(results), failed

    def _flipped(self, utt, w):
        try:
            f0 = dsp.voiced_median(dsp.estimate_f0_contour(w))
        except VoxtagError:
            return False
        return f0 < self.FLIP_HZ if utt.gender is perturb.SpeakerGender.F else f0 > self.FLIP_HZ


class Evaluate(Workload):
    name = "evaluate"
    item = "decode"
    repeats_items = True  # every pass decodes the same utterances
    BUCKETS = ("1F", "1M", "1F-tagM", "1M-tagF")

    def setup(self):
        n = self.size["utterances"]
        corpus, entries = synthdata.generate_corpus(
            synthdata.SynthSpec(n_utterances=n, gender_split=0.5, seed=self.seed))
        data = os.path.join(self.work, "corpus")
        os.makedirs(data, exist_ok=True)
        self.manifest = synthdata.write_manifest(corpus, data)
        self.eval_tsv = os.path.join(data, "eval.tsv")
        evaluation.write_eval_tsv(entries, self.eval_tsv)
        self.model = os.path.join(MODEL_DIR, "model.vxck")
        with open(os.path.join(MODEL_DIR, "MODEL.json"), encoding="utf-8") as f:
            expected = json.load(f)["sha256"]
        for name, digest in expected.items():
            with open(os.path.join(MODEL_DIR, name), "rb") as f:
                if hashlib.sha256(f.read()).hexdigest() != digest:
                    raise BenchError(f"bench/model/{name} does not match its recorded sha256; "
                                     "regenerate it with bench/make_model.py")

    def item_hook(self):
        clock = self.clock
        original = mdl.TranslationModel.greedy_decode

        @functools.wraps(original)
        def greedy_decode(*args, **kwargs):
            clock.start()
            try:
                out = original(*args, **kwargs)
            except BaseException:
                clock.cancel()
                raise
            clock.stop()
            return out

        return patched(mdl.TranslationModel, "greedy_decode", greedy_decode)

    def run(self, index, span):
        report = os.path.join(self.work, "report.json")
        if os.path.exists(report):
            os.remove(report)
        captured, errors = io.StringIO(), io.StringIO()
        decodes = len(self.clock.durations)
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(errors):
            with span("cli.evaluate"):
                rc_eval = cli.main(["evaluate", "--model", self.model, "--manifest", self.manifest,
                                    "--eval-tsv", self.eval_tsv, "--out", report])
            with span("cli.probe"):
                rc_probe = cli.main(["probe", "--model", self.model, "--manifest", self.manifest,
                                     "--seed", "0"])
        if errors.getvalue():
            print(errors.getvalue(), end="", file=sys.stderr)
        return {"rc": (rc_eval, rc_probe), "report": report, "stdout": captured.getvalue(),
                "decodes": len(self.clock.durations) - decodes}

    def check(self, index, out):
        checks = [rc == 0 for rc in out["rc"]]
        try:
            with open(out["report"], encoding="utf-8") as f:
                report = json.load(f)
        except (OSError, ValueError):
            report = {}
        accuracy = {b: (report.get(b) or {}).get("accuracy") for b in self.BUCKETS}
        checks += [accuracy[b] is not None for b in self.BUCKETS]
        if all(checks):
            inverted = (accuracy["1F-tagM"] + accuracy["1M-tagF"]) / 2.0
            self.quality["tag_acc_inverted"] = (inverted, "ratio")
            for line in out["stdout"].splitlines():
                if line.startswith("probe_accuracy="):
                    self.quality["probe_accuracy"] = (float(line.split("=", 1)[1]), "ratio")
        else:
            print(f"bench: evaluate pass {index}: exit codes {out['rc']}, "
                  f"accuracies {accuracy}", file=sys.stderr)
        return out["decodes"] + len(checks), checks.count(False)


WORKLOADS = {w.name: w for w in (Train, Perturb, Evaluate)}
