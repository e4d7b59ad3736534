"""Layer-boundary spans and counters for the traced benchmark run.

`Tracer.installed()` swaps thin wrappers in for voxtag's public functions and
methods at each layer boundary, and puts the originals back on exit. A
function is replaced in every voxtag module that binds it, so a name imported
with `from ... import` is counted too. Each span records its name, start, end,
parent span, item and pass; spans stay in memory until `dump`.
"""

import functools
import inspect
import json
import os
import statistics
import sys
import time
from contextlib import contextmanager

ID, NAME, START, END, PARENT, ITEM, PASS, ATTRS = range(8)


class ItemClock:
    """Durations of the timed items of a run. `current` is the id of the open
    item; ids are never reused, so an abandoned item keeps its own id.
    `excluded()` returns the seconds spent so far in work that is not the
    program's (the speed probe's kernel); an item's share of it is taken out."""

    def __init__(self, excluded=lambda: 0.0):
        self.durations = []
        self.intervals = []  # (start, end) on the clock of each duration
        self.by_id = {}
        self.current = None
        self.excluded = excluded
        self._next = 0
        self._t0 = 0.0
        self._x0 = 0.0

    def start(self):
        self.current = self._next
        self._next += 1
        self._x0 = self.excluded()
        self._t0 = time.perf_counter()

    def stop(self):
        end = time.perf_counter()
        elapsed = end - self._t0 - (self.excluded() - self._x0)
        self.durations.append(elapsed)
        self.intervals.append((self._t0, end))
        self.by_id[self.current] = elapsed
        self.current = None

    def cancel(self):
        self.current = None


def _file_size(path):
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _tape_nodes(loss):
    """Nodes reachable from the loss through the tape's parent links."""
    seen, stack = set(), [loss]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(getattr(node, "_parents", ()))
    return len(seen)


def _decode_steps(fn):
    """After-hook counting the decoder steps of one greedy decode: tokens
    emitted plus the final end-of-sentence step, or max_len if it never ended."""
    sig = inspect.signature(fn)

    def steps(args, kwargs, out):
        max_len = sig.bind(*args, **kwargs).arguments.get(
            "max_len", sig.parameters["max_len"].default)
        return {"steps": min(len(out) + 1, max_len)}
    return steps


class Tracer:
    def __init__(self, clock):
        self.clock = clock
        self.spans = []
        self.pass_index = None
        self._stack = []

    # -- span recording ---------------------------------------------------
    def _open(self, name):
        rec = [len(self.spans), name, time.perf_counter(), None,
               self._stack[-1][ID] if self._stack else None,
               self.clock.current, self.pass_index, None]
        self.spans.append(rec)
        self._stack.append(rec)
        return rec

    def _close(self, rec):
        rec[END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def _wrap(self, name, fn, before=None, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = before(args, kwargs) if before else None
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if after:
                attrs = {**(attrs or {}), **after(args, kwargs, out)}
            rec[ATTRS] = attrs
            return out
        return wrapper

    # -- patching ---------------------------------------------------------
    def _boundaries(self):
        """(owner, attribute, span name, before hook, after hook)."""
        from voxtag import audio, autodiff, dsp, evaluation, model, perturb, synthdata, train
        TM = model.TranslationModel
        return [
            (synthdata, "generate_corpus", "synthdata.generate_corpus", None, None),
            (synthdata, "write_manifest", "synthdata.write_manifest", None, None),
            (audio, "read_wav", "audio.read_wav",
             lambda a, k: {"bytes": _file_size(a[0] if a else k.get("path"))}, None),
            (dsp, "logmel_features", "dsp.logmel", None, None),
            (dsp, "mel_filterbank", "dsp.mel_filterbank", None, None),
            (dsp, "estimate_f0_contour", "dsp.f0_track", None, None),
            (perturb, "apply_opposite", "perturb.apply_opposite", None,
             lambda a, k, out: {"manipulated": bool(out[1])}),
            (perturb, "pitch_formant_shift", "perturb.shift", None, None),
            (autodiff, "backward", "autodiff.backward",
             lambda a, k: {"nodes": _tape_nodes(a[0] if a else k["loss"])}, None),
            (autodiff, "save_checkpoint", "autodiff.checkpoint_save", None,
             lambda a, k, out: {"bytes": _file_size(a[1] if len(a) > 1 else k.get("path"))}),
            (autodiff, "load_checkpoint", "autodiff.checkpoint_load",
             lambda a, k: {"bytes": _file_size(a[0] if a else k.get("path"))}, None),
            (TM, "encode", "model.encode", None, None),
            (TM, "decode_all", "model.decode_all",
             lambda a, k: {"rows": len(a[2] if len(a) > 2 else k["prefix"])}, None),
            (TM, "discriminate", "model.discriminate", None, None),
            (TM, "greedy_decode", "model.greedy_decode", None, _decode_steps(TM.greedy_decode)),
            (train.Adam, "step", "train.adam_step", None, None),
            (train, "_val_loss", "train.val", None, None),
            (train, "probe_discriminator", "train.probe", None, None),
            (evaluation, "tag_inversion_eval", "evaluation.tag_inversion", None, None),
            (evaluation, "corpus_bleu", "evaluation.bleu", None, None),
        ]

    @contextmanager
    def installed(self):
        """Wrap every layer boundary for the duration of the block."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "voxtag" or n.startswith("voxtag.")) and m is not None]
        undo = []
        try:
            for owner, attr, name, before, after in self._boundaries():
                original = getattr(owner, attr)
                wrapper = self._wrap(name, original, before, after)
                if isinstance(owner, type):
                    targets = [(owner, attr)]
                else:
                    targets = [(m, n) for m in modules for n, v in vars(m).items()
                               if v is original]
                for target, target_attr in targets:
                    setattr(target, target_attr, wrapper)
                    undo.append((target, target_attr, original))
            yield self
        finally:
            for target, target_attr, original in reversed(undo):
                setattr(target, target_attr, original)

    def dump(self, path, **header):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            json.dump({**header, "fields": ["id", "name", "start", "end", "parent",
                                            "item", "pass", "attrs"],
                       "spans": self.spans}, f)
            f.write("\n")


# -- per-layer metrics ------------------------------------------------------

PER_LAYER = {
    "synthdata.generate_corpus_s": "s", "synthdata.write_manifest_s": "s",
    "audio.read_wav_calls": "count", "audio.wav_bytes_read": "bytes",
    "audio.read_wav_ms": "ms",
    "dsp.logmel_ms": "ms", "dsp.logmel_calls_per_utt": "calls/utt",
    "dsp.mel_filterbank_calls": "count", "dsp.f0_track_ms": "ms",
    "dsp.f0_tracks_per_shift": "calls/shift",
    "perturb.apply_opposite_ms": "ms", "perturb.shift_self_ms": "ms",
    "perturb.manipulated_frac": "ratio",
    "autodiff.backward_ms": "ms", "autodiff.tape_nodes_per_update": "nodes/update",
    "autodiff.checkpoint_save_ms": "ms", "autodiff.checkpoint_load_ms": "ms",
    "autodiff.checkpoint_bytes": "bytes",
    "model.encode_ms": "ms", "model.encode_calls_per_update": "calls/update",
    "model.encode_calls_per_utt": "calls/utt", "model.decode_all_ms": "ms",
    "model.discriminate_ms": "ms", "model.decode_rows_per_token": "rows/token",
    "model.decode_tokens": "count",
    "train.adam_step_ms": "ms", "train.forward_ms": "ms", "train.val_ms": "ms",
    "train.val_share": "ratio", "train.probe_s": "s",
    "evaluation.tag_inversion_s": "s", "evaluation.bleu_ms": "ms",
    "cli.evaluate_s": "s", "cli.probe_s": "s", "cli.self_ms": "ms",
    "trace.overhead_frac": "ratio",
}


def _median(values):
    return statistics.median(values) if values else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, utts_per_pass, pass_walls):
    """Per-layer metrics from the spans of one traced run.

    Times are medians per call over every traced pass, except synthdata's,
    which are the time per set-up, median over the set-ups. Counts come from
    the first traced pass alone, so two runs of one seed give identical
    counts whatever their speed. `pass_walls` is a list of (traced, seconds)
    for every timed pass of the run.
    """
    spans = tracer.spans
    by_id = {s[ID]: s for s in spans}
    child_time = {}
    for s in spans:
        if s[PARENT] is not None:
            child_time[s[PARENT]] = child_time.get(s[PARENT], 0.0) + s[END] - s[START]

    def dur(s):
        return s[END] - s[START]

    def self_time(s):
        return dur(s) - child_time.get(s[ID], 0.0)

    def ancestors(s):
        while s[PARENT] is not None:
            s = by_id[s[PARENT]]
            yield s

    def under(s, name):
        return any(a[NAME] == name for a in ancestors(s))

    def named(name, pool=spans):
        return [s for s in pool if s[NAME] == name]

    def ms(name):
        return 1e3 * _median([dur(s) for s in named(name)])

    def per_setup_s(name):
        busy = {s[ID]: 0.0 for s in named("bench.setup")}
        for s in named(name):
            for a in ancestors(s):
                if a[ID] in busy:
                    busy[a[ID]] += dur(s)
        return _median(list(busy.values()))

    traced_passes = sorted({s[PASS] for s in spans if s[PASS] is not None})
    first = [s for s in spans if traced_passes and s[PASS] == traced_passes[0]]
    attr_sum = lambda pool, key: sum((s[ATTRS] or {}).get(key, 0) for s in pool)

    updates = [s for s in named("train.adam_step", first) if not under(s, "train.probe")]
    train_encodes = [s for s in named("model.encode", first)
                     if not under(s, "train.val") and not under(s, "train.probe")]
    opposite = named("perturb.apply_opposite", first)
    greedy = named("model.greedy_decode", first)
    decode_rows = [s for s in named("model.decode_all", first)
                   if under(s, "model.greedy_decode")]
    tokens = attr_sum(greedy, "steps")
    checkpoints = named("autodiff.checkpoint_save", first) + named("autodiff.checkpoint_load", first)

    # forward time of a training update: the item minus its backward, Adam
    # step and validation spans
    in_item = {}
    for s in spans:
        if s[ITEM] is not None and s[NAME] in ("autodiff.backward", "train.adam_step", "train.val") \
                and not under(s, "train.probe"):
            in_item[s[ITEM]] = in_item.get(s[ITEM], 0.0) + dur(s)
    update_items = {s[ITEM] for s in named("train.adam_step")
                    if s[ITEM] is not None and not under(s, "train.probe")}
    forward = [tracer.clock.by_id[i] - in_item.get(i, 0.0) for i in update_items
               if i in tracer.clock.by_id]

    traced_wall = [w for traced, w in pass_walls if traced]
    plain_wall = [w for traced, w in pass_walls if not traced]
    cli_spans = named("cli.evaluate") + named("cli.probe")

    values = {
        "synthdata.generate_corpus_s": per_setup_s("synthdata.generate_corpus"),
        "synthdata.write_manifest_s": per_setup_s("synthdata.write_manifest"),
        "audio.read_wav_calls": len(named("audio.read_wav", first)),
        "audio.wav_bytes_read": attr_sum(named("audio.read_wav", first), "bytes"),
        "audio.read_wav_ms": ms("audio.read_wav"),
        "dsp.logmel_ms": ms("dsp.logmel"),
        "dsp.logmel_calls_per_utt": _ratio(len(named("dsp.logmel", first)), utts_per_pass),
        "dsp.mel_filterbank_calls": len(named("dsp.mel_filterbank", first)),
        "dsp.f0_track_ms": ms("dsp.f0_track"),
        "dsp.f0_tracks_per_shift": _ratio(len(named("dsp.f0_track", first)),
                                          len(named("perturb.shift", first))),
        "perturb.apply_opposite_ms": ms("perturb.apply_opposite"),
        "perturb.shift_self_ms": 1e3 * _median([self_time(s) for s in named("perturb.shift")]),
        "perturb.manipulated_frac": _ratio(attr_sum(opposite, "manipulated"), len(opposite)),
        "autodiff.backward_ms": ms("autodiff.backward"),
        "autodiff.tape_nodes_per_update": _ratio(attr_sum(named("autodiff.backward", first), "nodes"),
                                                 len(named("autodiff.backward", first))),
        "autodiff.checkpoint_save_ms": ms("autodiff.checkpoint_save"),
        "autodiff.checkpoint_load_ms": ms("autodiff.checkpoint_load"),
        "autodiff.checkpoint_bytes": attr_sum(checkpoints, "bytes"),
        "model.encode_ms": ms("model.encode"),
        "model.encode_calls_per_update": _ratio(len(train_encodes), len(updates)),
        "model.encode_calls_per_utt": _ratio(len(named("model.encode", first)), utts_per_pass),
        "model.decode_all_ms": ms("model.decode_all"),
        "model.discriminate_ms": ms("model.discriminate"),
        "model.decode_rows_per_token": _ratio(attr_sum(decode_rows, "rows"), tokens),
        "model.decode_tokens": tokens,
        "train.adam_step_ms": ms("train.adam_step"),
        "train.forward_ms": 1e3 * _median(forward),
        "train.val_ms": ms("train.val"),
        "train.val_share": _ratio(sum(dur(s) for s in named("train.val")), sum(traced_wall)),
        "train.probe_s": ms("train.probe") / 1e3,
        "evaluation.tag_inversion_s": ms("evaluation.tag_inversion") / 1e3,
        "evaluation.bleu_ms": ms("evaluation.bleu"),
        "cli.evaluate_s": ms("cli.evaluate") / 1e3,
        "cli.probe_s": ms("cli.probe") / 1e3,
        "cli.self_ms": 1e3 * _ratio(sum(self_time(s) for s in cli_spans), len(traced_passes)),
        "trace.overhead_frac": (_ratio(_median(traced_wall), _median(plain_wall)) - 1.0
                                if traced_wall and plain_wall else 0.0),
    }
    return values
