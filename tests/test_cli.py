import argparse
import json
import os
import re
import struct
from pathlib import Path

import numpy as np
import pytest

from voxtag.audio import Waveform, write_wav
from voxtag.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_help_exits_zero(capsys):
    for sub in ("synth-data", "perturb", "train", "evaluate", "probe"):
        assert main([sub, "--help"]) == 0
        capsys.readouterr()


def test_readme_documents_every_subcommand():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    documented = set(re.findall(r"^voxtag ([\w-]+)", block, flags=re.M))
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert documented == set(sub.choices)


def test_unknown_subcommand(capsys):
    assert main(["frobnicate"]) == 1
    capsys.readouterr()


def test_readme_documents_every_flag():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## CLI", 1)[1].split("\n## ", 1)[0]
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    for command in ("synth-data", "perturb", "train"):
        flags = {f for a in sub.choices[command]._actions for f in a.option_strings}
        assert [f for f in sorted(flags - {"-h", "--help"}) if f"`{f}`" not in section] == [], command


@pytest.mark.parametrize("argv, message", [
    (["synth-data", "--n-utterances", "2", "--config", "x.json"],
     "unrecognized arguments: --config x.json"),
    (["perturb", "--manifest", "m.tsv", "--config", "x.json"],
     "unrecognized arguments: --config x.json"),
    (["train", "--manifest", "m.tsv", "--config", "x.json"],
     "unrecognized arguments: --config x.json"),
    (["schedule", "--total", "2000", "--at", "0"], "invalid choice: 'schedule'"),
    (["class-weights", "--f", "0.3", "--m", "0.7"], "invalid choice: 'class-weights'"),
    (["synth-data", "--seed", "1"], "the following arguments are required: --n-utterances"),
    (["average-ckpt", "run/ckpt_000200.vxck"], "invalid choice: 'average-ckpt'"),
])
def test_removed_option_or_missing_flag_is_usage_error(tmp_path, capsys, argv, message):
    """Flags are the only settings: a config file, a removed subcommand and a
    run without --n-utterances are argparse usage errors, before any output.
    train writes the averaged model itself, so average-ckpt is gone."""
    code, out, err = run(capsys, *argv, "--out", str(tmp_path / "o"))
    assert code == 1 and out == ""
    assert message in err
    assert not (tmp_path / "o").exists()


def test_strategy_flag_is_gone(tmp_path, capsys):
    code, _, err = run(capsys, "train", "--manifest", "m.tsv", "--strategy", "fine_tune",
                       "--out", str(tmp_path / "o"))
    assert code == 1 and "--strategy" in err
    assert not (tmp_path / "o").exists()


def test_every_config_flag_is_a_config_key():
    """synth-data, perturb and train pass vars(args) to _section_kwargs, which
    keeps only the fields of a section: a flag whose dest is no field of a
    section the command reads would be parsed and then silently ignored."""
    from dataclasses import fields

    from voxtag import model as mdl
    from voxtag import synthdata as sd
    from voxtag import train as tr
    from voxtag.perturb import PerturbConfig
    sections = {"synth-data": (sd.SynthSpec,), "perturb": (PerturbConfig,),
                "train": (mdl.ModelConfig, tr.TrainConfig)}
    not_keys = {"out", "manifest", "init", "help"}
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    for command, classes in sections.items():
        keys = {f.name for cls in classes for f in fields(cls)}
        dests = {a.dest for a in sub.choices[command]._actions}
        assert dests - not_keys <= keys, command
        assert dests & keys, command


def test_synth_data_rejects_token_duration_without_a_sample(tmp_path, capsys):
    code, _, err = run(capsys, "synth-data", "--n-utterances", "2", "--token-duration", "0.00001",
                       "--out", str(tmp_path / "o"))
    assert code == 1
    assert "token_duration 1e-05 s holds no sample at 16000 Hz" in err


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    assert main(["synth-data", "--n-utterances", "24", "--seed", "4",
                 "--out", str(root / "corpus")]) == 0
    return root


def test_synth_data_outputs(workspace):
    assert os.path.exists(workspace / "corpus" / "manifest.tsv")
    assert os.path.exists(workspace / "corpus" / "eval.tsv")
    wavs = os.listdir(workspace / "corpus" / "wav")
    assert len(wavs) == 24


def test_perturb(workspace, capsys):
    manifest = str(workspace / "corpus" / "manifest.tsv")
    code, out, _ = run(capsys, "perturb", "--manifest", manifest, "--p", "1.0",
                       "--seed", "0", "--out", str(workspace / "pert"))
    assert code == 0
    assert "perturbed 24/24" in out

    # A voiceless utterance has no f0 to shift: it is written back unchanged
    # and the run goes on.
    lines = (workspace / "corpus" / "manifest.tsv").read_text(encoding="utf-8").splitlines()[:6]
    silent = workspace / "silent.wav"
    write_wav(Waveform(np.zeros(4800), 16000), silent)
    fields = lines[3].split("\t")
    fields[1] = str(silent)
    lines[3] = "\t".join(fields)
    mixed = workspace / "mixed.tsv"
    mixed.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, out, _ = run(capsys, "perturb", "--manifest", str(mixed), "--p", "1.0",
                       "--seed", "0", "--out", str(workspace / "pert_mixed"))
    assert code == 0
    assert "perturbed 5/6" in out
    written = workspace / "pert_mixed" / "wav" / f"{fields[0]}.wav"
    assert written.read_bytes() == silent.read_bytes()


def test_perturb_refuses_a_rate_no_wav_header_holds(workspace, tmp_path, capsys):
    """A WAV at 2^31 Hz or more, whose 16-bit byte rate overflows the header's
    32-bit field, fails its read: exit 1, the file named, nothing written."""
    wav = tmp_path / "fast.wav"
    write_wav(Waveform(np.zeros(4800), 16000), wav)
    blob = bytearray(wav.read_bytes())
    struct.pack_into("<I", blob, 24, 2 ** 31 + 16000)  # the fmt chunk's sample rate
    wav.write_bytes(bytes(blob))
    fields = (workspace / "corpus" / "manifest.tsv").read_text(
        encoding="utf-8").splitlines()[0].split("\t")
    fields[1] = str(wav)
    manifest = tmp_path / "fast.tsv"
    manifest.write_text("\t".join(fields) + "\n", encoding="utf-8")
    code, _, err = run(capsys, "perturb", "--manifest", str(manifest), "--p", "1.0",
                       "--seed", "0", "--out", str(tmp_path / "pert"))
    assert code == 1
    assert str(wav) in err and "sample rate 2147499648 Hz" in err
    assert not (tmp_path / "pert").exists()


def test_manifest_reads_from_any_working_directory(tmp_path, monkeypatch, capsys):
    """synth-data with a relative --out records absolute WAV paths, so its
    manifest reads from inside the corpus directory as well."""
    monkeypatch.chdir(tmp_path)
    assert main(["synth-data", "--n-utterances", "4", "--seed", "0", "--out", "corpus"]) == 0
    wav_paths = [line.split("\t")[1] for line in
                 (tmp_path / "corpus" / "manifest.tsv").read_text(encoding="utf-8").splitlines()]
    assert all(os.path.isabs(p) for p in wav_paths)
    monkeypatch.chdir(tmp_path / "corpus")
    code, out, err = run(capsys, "perturb", "--manifest", "manifest.tsv", "--p", "0.5",
                         "--seed", "0", "--out", "../perturbed_here")
    assert code == 0, err
    assert "perturbed" in out and (tmp_path / "perturbed_here" / "manifest.tsv").exists()


def test_train_evaluate_probe_deterministic(workspace, capsys):
    manifest = str(workspace / "corpus" / "manifest.tsv")
    argv = ["train", "--manifest", manifest, "--mode", "multi_gender",
            "--total-updates", "40", "--warmup-updates", "10",
            "--batch-size", "4", "--seed", "2"]
    assert main(argv + ["--out", str(workspace / "r1")]) == 0
    assert main(argv + ["--out", str(workspace / "r2")]) == 0
    capsys.readouterr()
    assert sorted(os.listdir(workspace / "r1")) == ["metrics.jsonl", "model.vxck",
                                                     "model.vxck.meta"]
    ck1 = (workspace / "r1" / "model.vxck").read_bytes()
    ck2 = (workspace / "r2" / "model.vxck").read_bytes()
    assert ck1 == ck2
    assert (workspace / "r1" / "metrics.jsonl").read_bytes() == \
        (workspace / "r2" / "metrics.jsonl").read_bytes()

    for out_name in ("rep1.json", "rep2.json"):
        assert main(["evaluate", "--model", str(workspace / "r1" / "model.vxck"),
                     "--manifest", manifest,
                     "--eval-tsv", str(workspace / "corpus" / "eval.tsv"),
                     "--out", str(workspace / out_name)]) == 0
    capsys.readouterr()
    rep1 = (workspace / "rep1.json").read_bytes()
    assert rep1 == (workspace / "rep2.json").read_bytes()
    doc = json.loads(rep1)
    assert set(doc) == {"1F", "1M", "1F-tagM", "1M-tagF", "bleu"}

    code, out, _ = run(capsys, "probe", "--model",
                       str(workspace / "r1" / "model.vxck"),
                       "--manifest", manifest, "--seed", "0")
    assert code == 0
    acc = float(out.strip().split("=")[1])
    assert 0.0 <= acc <= 1.0


@pytest.mark.parametrize("n", [0, 1, 2])
def test_train_needs_an_utterance_beyond_the_holdout(workspace, tmp_path, capsys, n):
    """The validation holdout takes at least one utterance: a manifest of 0
    or 1 fails closed before metrics.jsonl is opened; one of 2 trains."""
    lines = (workspace / "corpus" / "manifest.tsv").read_text(encoding="utf-8").splitlines()
    manifest = tmp_path / "small.tsv"
    manifest.write_text("".join(line + "\n" for line in lines[:n]), encoding="utf-8")
    code, _, err = run(capsys, "train", "--manifest", str(manifest), "--total-updates", "20",
                       "--warmup-updates", "5", "--out", str(tmp_path / "o"))
    if n < 2:
        assert code == 1
        assert err.startswith(f"error: a corpus of {n} utterance(s) holds {n} out for "
                              "validation and leaves none to train on")
        assert not (tmp_path / "o" / "metrics.jsonl").exists()
    else:
        assert code == 0 and (tmp_path / "o" / "model.vxck").exists()


@pytest.mark.parametrize("existed", [False, True])
def test_failed_train_leaves_out_as_it_found_it(workspace, tmp_path, capsys, existed):
    """A run that fails before training removes the --out it made, and leaves
    an --out that already existed, empty or not, untouched."""
    line = (workspace / "corpus" / "manifest.tsv").read_text(encoding="utf-8").splitlines()[0]
    manifest = tmp_path / "one.tsv"
    manifest.write_text(line + "\n", encoding="utf-8")
    for out, files in ((tmp_path / "empty", {}), (tmp_path / "full", {"notes.txt": b"kept\n"})):
        if existed:
            out.mkdir()
            for name, data in files.items():
                (out / name).write_bytes(data)
        code, _, err = run(capsys, "train", "--manifest", str(manifest), "--out", str(out))
        assert code == 1 and "leaves none to train on" in err
        if existed:
            assert {p.name: p.read_bytes() for p in out.iterdir()} == files
        else:
            assert not out.exists()


def test_evaluate_scores_a_gender_unaware_checkpoint(workspace, capsys):
    """A gender_unaware model starts both decodes at bos and is scored through
    the same four buckets as a multi_gender one."""
    from voxtag import model as M
    from voxtag.synthdata import build_vocabulary
    path = workspace / "unaware.vxck"
    M.save_model(M.TranslationModel(build_vocabulary(), M.ModelConfig(mode="gender_unaware"),
                                    seed=3), path)
    code, out, _ = run(capsys, "evaluate", "--model", str(path),
                       "--manifest", str(workspace / "corpus" / "manifest.tsv"),
                       "--eval-tsv", str(workspace / "corpus" / "eval.tsv"),
                       "--out", str(workspace / "unaware.json"))
    assert code == 0
    doc = json.loads((workspace / "unaware.json").read_text(encoding="utf-8"))
    buckets = ("1F", "1M", "1F-tagM", "1M-tagF")
    assert set(doc) == {*buckets, "bleu"}
    for key in buckets:
        assert set(doc[key]) == {"total_terms", "found", "correct", "accuracy", "coverage"}
    assert [line.split(":")[0] for line in out.splitlines()[:4]] == list(buckets)


@pytest.mark.parametrize("manifest_text", ["", "\n\n"])
def test_evaluate_refuses_a_manifest_without_utterances(workspace, tmp_path, capsys,
                                                       manifest_text):
    """An empty manifest is refused by name before the eval file is read or
    anything is scored, and no report is written."""
    from voxtag import model as M
    model = tmp_path / "m.vxck"
    M.save_model(M.TranslationModel(M.Vocabulary([]), M.ModelConfig(hidden_dim=8, disc_hidden=8)),
                 model)
    manifest = tmp_path / "empty.tsv"
    manifest.write_text(manifest_text, encoding="utf-8")
    (tmp_path / "empty_eval.tsv").touch()
    for eval_tsv in (workspace / "corpus" / "eval.tsv", tmp_path / "empty_eval.tsv"):
        code, out, err = run(capsys, "evaluate", "--model", str(model), "--manifest", str(manifest),
                             "--eval-tsv", str(eval_tsv), "--out", str(tmp_path / "r.json"))
        assert (code, out) == (1, "")
        assert err == f"error: {manifest}: no utterances to evaluate\n"
        assert not (tmp_path / "r.json").exists()


def test_evaluate_model_header_keys(workspace, capsys):
    from voxtag import model as M
    path = workspace / "hdr.vxck"
    M.save_model(M.TranslationModel(M.Vocabulary([]), M.ModelConfig(hidden_dim=8, disc_hidden=8)),
                 path)
    meta = (workspace / "hdr.vxck.meta").read_text()
    argv = ["evaluate", "--model", str(path),
            "--manifest", str(workspace / "corpus" / "manifest.tsv"),
            "--eval-tsv", str(workspace / "corpus" / "eval.tsv"),
            "--out", str(workspace / "hdr.json")]
    (workspace / "hdr.vxck.meta").write_text(meta.replace("hidden_dim=8\n", ""))
    code, _, err = run(capsys, *argv)
    assert code == 1 and "hidden_dim" in err and "hdr.vxck.meta" in err
    (workspace / "hdr.vxck.meta").write_text("dropout=0.0\n" + meta)
    code, _, _ = run(capsys, *argv)
    assert code == 0
    # A header written when these were still fields carries their lines;
    # they are not fields now, so they are ignored as dropout is.
    old = meta.replace("encoder_layers=2\n", "encoder_layers=2\ndecoder_layers=1\n")
    old = old.replace("disc_hidden=8\n",
                      "disc_hidden=8\nlabel_smoothing=0.1\ndisc_loss_weight=0.5\n")
    assert old.count("\n") == meta.count("\n") + 3
    (workspace / "hdr.vxck.meta").write_text(old)
    code, _, _ = run(capsys, *argv)
    assert code == 0


def test_specialized_modes_are_gone(workspace, capsys):
    """A gender-specialized model is a gender_unaware run on one gender's
    utterances; no mode names it, in a ModelConfig, on the command line or in
    a model header."""
    from voxtag import model as M
    from voxtag.errors import MalformedHeader
    assert M.MODES == ("gender_unaware", "multi_gender")
    with pytest.raises(ValueError, match="mode must be one of"):
        M.ModelConfig(mode="specialized_F")
    code, _, _ = run(capsys, "train", "--manifest", str(workspace / "corpus" / "manifest.tsv"),
                     "--mode", "specialized_F", "--out", str(workspace / "spec"))
    assert code == 1
    assert not os.path.exists(workspace / "spec")
    path = workspace / "spec.vxck"
    M.save_model(M.TranslationModel(M.Vocabulary([]), M.ModelConfig(hidden_dim=8, disc_hidden=8)),
                 path)
    meta = workspace / "spec.vxck.meta"
    meta.write_text(meta.read_text().replace("mode=multi_gender", "mode=specialized_F"))
    with pytest.raises(MalformedHeader, match=re.escape(f"{meta} does not describe")):
        M.load_model(path)


def test_duplicate_utterance_id_is_validation_error(workspace, capsys):
    """perturb and evaluate refuse a manifest or eval.tsv that repeats an id,
    naming the file, the line and the line of the id's first use."""
    from voxtag import model as M
    lines = (workspace / "corpus" / "manifest.tsv").read_text(encoding="utf-8").splitlines()
    manifest = workspace / "dup.tsv"
    manifest.write_text("\n".join([lines[0], lines[0]]) + "\n", encoding="utf-8")
    uid = lines[0].split("\t")[0]
    message = f":2: duplicate utterance id {uid!r} (first on line 1)"
    code, _, err = run(capsys, "perturb", "--manifest", str(manifest), "--p", "1.0",
                       "--out", str(workspace / "dup_pert"))
    assert code == 1 and f"dup.tsv{message}" in err
    assert not os.path.exists(workspace / "dup_pert")

    eval_lines = (workspace / "corpus" / "eval.tsv").read_text(encoding="utf-8").splitlines()
    eval_tsv = workspace / "dup_eval.tsv"
    eval_tsv.write_text("\n".join([eval_lines[0], eval_lines[0]]) + "\n", encoding="utf-8")
    model = workspace / "dup.vxck"
    M.save_model(M.TranslationModel(M.Vocabulary([]), M.ModelConfig(hidden_dim=8, disc_hidden=8)),
                 model)
    code, _, err = run(capsys, "evaluate", "--model", str(model),
                       "--manifest", str(workspace / "corpus" / "manifest.tsv"),
                       "--eval-tsv", str(eval_tsv), "--out", str(workspace / "dup.json"))
    assert code == 1 and f"dup_eval.tsv{message}" in err
    assert not os.path.exists(workspace / "dup.json")


def test_evaluate_rejects_non_finite_checkpoint(workspace, capsys):
    import numpy as np
    from voxtag import model as M
    from voxtag.errors import MalformedHeader
    path = workspace / "nan.vxck"
    model = M.TranslationModel(M.Vocabulary([]), M.ModelConfig(hidden_dim=8, disc_hidden=8))
    model.params["dec.out_b"].values[1] = np.nan
    M.save_model(model, path)
    with pytest.raises(MalformedHeader, match="dec.out_b"):
        M.load_model(path)
    code, _, err = run(capsys, "evaluate", "--model", str(path),
                       "--manifest", str(workspace / "corpus" / "manifest.tsv"),
                       "--eval-tsv", str(workspace / "corpus" / "eval.tsv"),
                       "--out", str(workspace / "nan.json"))
    assert code == 1 and "dec.out_b" in err


def test_non_utf8_text_input_names_file_and_line(workspace, capsys):
    """A manifest, eval.tsv or model header holding a byte that is not UTF-8
    is a validation error that names the file and the line."""
    from voxtag import model as M
    model = workspace / "utf.vxck"
    M.save_model(M.TranslationModel(M.Vocabulary([]), M.ModelConfig(hidden_dim=8, disc_hidden=8)),
                 model)
    manifest = workspace / "corpus" / "manifest.tsv"
    eval_tsv = workspace / "corpus" / "eval.tsv"

    def broken(src, dst):
        lines = src.read_bytes().split(b"\n")
        lines[2] = b"\xae" + lines[2]
        (workspace / dst).write_bytes(b"\n".join(lines))
        return str(workspace / dst)

    bad_manifest = broken(manifest, "bad.tsv")
    bad_eval = broken(eval_tsv, "bad_eval.tsv")
    (workspace / "bad.vxck").write_bytes(model.read_bytes())
    bad_meta = broken(workspace / "utf.vxck.meta", "bad.vxck.meta")
    bad_model = str(workspace / "bad.vxck")
    out = ["--out", str(workspace / "utf_out")]
    cases = [
        (["perturb", "--manifest", bad_manifest] + out, bad_manifest),
        (["evaluate", "--model", str(model), "--manifest", bad_manifest,
          "--eval-tsv", str(eval_tsv)] + out, bad_manifest),
        (["evaluate", "--model", str(model), "--manifest", str(manifest),
          "--eval-tsv", bad_eval] + out, bad_eval),
        (["evaluate", "--model", bad_model, "--manifest", str(manifest),
          "--eval-tsv", str(eval_tsv)] + out, bad_meta),
        (["probe", "--model", str(model), "--manifest", bad_manifest], bad_manifest),
        (["probe", "--model", bad_model, "--manifest", str(manifest)], bad_meta),
    ]
    for argv, named in cases:
        code, _, err = run(capsys, *argv)
        assert code == 1 and f"{named}:3: byte 0xae is not UTF-8" in err, (argv, err)


def test_train_init_rejects_truncated_checkpoint(workspace, tmp_path, capsys):
    """An init is a saved model: a valid header next to a checkpoint cut
    short fails closed, naming the checkpoint."""
    from voxtag import model as M
    path = tmp_path / "cut.vxck"
    M.save_model(M.TranslationModel(M.Vocabulary([]), M.ModelConfig(hidden_dim=8, disc_hidden=8)),
                 path)
    path.write_bytes(path.read_bytes()[:30])
    code, _, err = run(capsys, "train", "--manifest", str(workspace / "corpus" / "manifest.tsv"),
                       "--init", str(path), "--out", str(tmp_path / "o"))
    assert code == 1 and f"{path}: truncated" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("repeated", ["checkpoint", "header", "wav"])
def test_a_name_given_twice_is_validation_error(workspace, tmp_path, capsys, repeated):
    """A checkpoint parameter, a header key or a WAV chunk given twice fails
    closed through evaluate and train --init, naming the file and the name,
    instead of loading with the later copy winning."""
    import struct

    from voxtag import autodiff as ad
    from voxtag import model as M
    model = tmp_path / "m.vxck"
    saved = M.TranslationModel(M.Vocabulary([]), M.ModelConfig(hidden_dim=8, disc_hidden=8))
    M.save_model(saved, model)
    manifest = workspace / "corpus" / "manifest.tsv"
    if repeated == "checkpoint":
        blob = model.read_bytes()
        extra = tmp_path / "extra.vxck"
        ad.save_checkpoint({"enc.in_b": saved.params["enc.in_b"].values}, extra)
        count = struct.pack("<I", len(saved.params) + 1)
        model.write_bytes(blob[:4] + count + blob[8:] + extra.read_bytes()[8:])
        named, name = model, "parameter 'enc.in_b'"
    elif repeated == "header":
        meta = tmp_path / "m.vxck.meta"
        meta.write_text(meta.read_text(encoding="utf-8") + "mode=gender_unaware\n",
                        encoding="utf-8")
        named, name = meta, "key 'mode'"
    else:
        lines = manifest.read_text(encoding="utf-8").splitlines()
        fields = lines[0].split("\t")
        wav = tmp_path / "twice.wav"
        wav.write_bytes(Path(fields[1]).read_bytes() + b"data" + struct.pack("<I", 4) + bytes(4))
        manifest = tmp_path / "twice.tsv"
        manifest.write_text("\t".join([fields[0], str(wav)] + fields[2:]) + "\n"
                            + "".join(line + "\n" for line in lines[1:]), encoding="utf-8")
        named, name = wav, "b'data' chunk"
    argvs = [["evaluate", "--model", str(model), "--manifest", str(manifest),
              "--eval-tsv", str(workspace / "corpus" / "eval.tsv"),
              "--out", str(tmp_path / "report.json")],
             ["train", "--manifest", str(manifest), "--init", str(model),
              "--total-updates", "20", "--warmup-updates", "5", "--out", str(tmp_path / "o")]]
    for argv in argvs:
        code, _, err = run(capsys, *argv)
        assert code == 1 and str(named) in err and f"repeated {name}" in err, (argv, err)
    assert not (tmp_path / "report.json").exists() and not (tmp_path / "o").exists()


def _target_tokens(manifest):
    return sorted({t for line in manifest.read_text(encoding="utf-8").splitlines()
                   for t in line.split("\t")[4].split()})


def test_train_init_fine_tunes_in_the_init_vocabulary(workspace, tmp_path, capsys):
    """A fine-tune keeps the init's token ids: a run from an init whose
    vocabulary orders the manifest's tokens differently writes a model in the
    init's vocabulary, not one rebuilt from the manifest."""
    from voxtag import model as M
    manifest = workspace / "corpus" / "manifest.tsv"
    tokens = _target_tokens(manifest)[::-1]
    init = tmp_path / "init.vxck"
    M.save_model(M.TranslationModel(M.Vocabulary(tokens), M.ModelConfig(), seed=1), init)
    code, _, err = run(capsys, "train", "--manifest", str(manifest), "--init", str(init),
                       "--total-updates", "8", "--warmup-updates", "2",
                       "--out", str(tmp_path / "ft"))
    assert code == 0, err
    assert M.load_model(tmp_path / "ft" / "model.vxck").vocab.tokens[5:] == tokens


def test_train_init_fine_tunes_in_the_init_shape(workspace, tmp_path, capsys):
    """A fine-tune takes its shape from the init's header, not from the
    defaults of the flags it was not given."""
    from voxtag import model as M
    manifest = workspace / "corpus" / "manifest.tsv"
    init = tmp_path / "small.vxck"
    cfg = M.ModelConfig(hidden_dim=16, disc_hidden=16)
    M.save_model(M.TranslationModel(M.Vocabulary(_target_tokens(manifest)), cfg, seed=1), init)
    code, _, err = run(capsys, "train", "--manifest", str(manifest), "--init", str(init),
                       "--total-updates", "8", "--warmup-updates", "2",
                       "--out", str(tmp_path / "ft"))
    assert code == 0, err
    assert M.load_model(tmp_path / "ft" / "model.vxck").cfg == cfg


def test_train_init_takes_its_mode_from_the_flag(workspace, tmp_path, capsys):
    """Without --mode a fine-tune of a gender_unaware init is multi_gender,
    the paper's fine-tuning arm."""
    from voxtag import model as M
    manifest = workspace / "corpus" / "manifest.tsv"
    init = tmp_path / "base.vxck"
    M.save_model(M.TranslationModel(M.Vocabulary(_target_tokens(manifest)),
                                    M.ModelConfig(mode="gender_unaware"), seed=1), init)
    code, _, err = run(capsys, "train", "--manifest", str(manifest), "--init", str(init),
                       "--total-updates", "8", "--warmup-updates", "2",
                       "--out", str(tmp_path / "ft"))
    assert code == 0, err
    assert "mode=multi_gender\n" in (tmp_path / "ft" / "model.vxck.meta").read_text()


def test_train_init_rejects_token_missing_from_its_vocabulary(workspace, tmp_path, capsys):
    from voxtag import model as M
    manifest = workspace / "corpus" / "manifest.tsv"
    tokens = _target_tokens(manifest)
    init = tmp_path / "init.vxck"
    M.save_model(M.TranslationModel(M.Vocabulary(tokens[1:]), M.ModelConfig(), seed=1), init)
    code, _, err = run(capsys, "train", "--manifest", str(manifest), "--init", str(init),
                       "--out", str(tmp_path / "ft"))
    assert code == 1
    assert err.startswith(f"error: {manifest}: utterance ")
    assert f"uses token {tokens[0]!r}, which the vocabulary of {init} lacks" in err
    assert not (tmp_path / "ft").exists()


def test_train_rejects_infinite_lr_peak(workspace, tmp_path, capsys):
    code, _, err = run(capsys, "train", "--manifest", str(workspace / "corpus" / "manifest.tsv"),
                       "--lr-peak", "inf", "--out", str(tmp_path / "o"))
    assert code == 1 and err == "error: lr_peak must be finite and positive, got inf\n"
    assert not (tmp_path / "o").exists()


def test_train_too_short_to_average_names_the_total_updates_it_needs(workspace, tmp_path,
                                                                     capsys):
    """average_last has no flag, so the message also names the total_updates
    that saves enough checkpoints."""
    code, _, err = run(capsys, "train", "--manifest", str(workspace / "corpus" / "manifest.tsv"),
                       "--total-updates", "6", "--warmup-updates", "2",
                       "--out", str(tmp_path / "o"))
    assert code == 1
    assert err.startswith("error: average_last 7 exceeds the 6 checkpoints saved")
    assert err.endswith("total_updates must be at least 7\n")
    assert not (tmp_path / "o").exists()


def test_evaluate_rejects_utterances_missing_from_eval_tsv(workspace, capsys):
    from voxtag import model as M
    path = workspace / "miss.vxck"
    M.save_model(M.TranslationModel(M.Vocabulary([]), M.ModelConfig(hidden_dim=8, disc_hidden=8)),
                 path)
    lines = (workspace / "corpus" / "eval.tsv").read_text().splitlines(keepends=True)
    short = workspace / "short_eval.tsv"
    short.write_text("".join(lines[:4]))
    code, _, err = run(capsys, "evaluate", "--model", str(path),
                       "--manifest", str(workspace / "corpus" / "manifest.tsv"),
                       "--eval-tsv", str(short), "--out", str(workspace / "miss.json"))
    assert code == 1
    assert "20 utterance(s) have no eval entry" in err
    assert lines[4].split("\t")[0] in err and ", ..." in err


@pytest.mark.parametrize("command", ["perturb", "probe"])
def test_wav_below_the_sample_rate_floor_is_validation_error(tmp_path, capsys, command):
    """A 40 Hz WAV fails closed naming the file, before any DSP runs on it."""
    from voxtag import model as M
    low = tmp_path / "low.wav"
    write_wav(Waveform(0.5 * np.sin(np.arange(20)), 40), low)
    manifest = tmp_path / "low.tsv"
    manifest.write_text(f"u0\t{low}\tM\ta b c\ta b c\n", encoding="utf-8")
    if command == "perturb":
        argv = ["perturb", "--manifest", str(manifest), "--p", "1", "--out", str(tmp_path / "o")]
    else:
        model = tmp_path / "m.vxck"
        M.save_model(M.TranslationModel(M.Vocabulary([]),
                                        M.ModelConfig(hidden_dim=8, disc_hidden=8)), model)
        argv = ["probe", "--model", str(model), "--manifest", str(manifest)]
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("error: ") and str(low) in err and "sample rate 40 Hz" in err


def test_wav_whose_riff_size_is_not_its_length_is_validation_error(workspace, tmp_path, capsys):
    """A WAV with 7 junk bytes appended fails closed naming the file."""
    line = (workspace / "corpus" / "manifest.tsv").read_text(encoding="utf-8").splitlines()[0]
    fields = line.split("\t")
    bad = tmp_path / "bad.wav"
    bad.write_bytes(Path(fields[1]).read_bytes() + bytes(7))
    manifest = tmp_path / "bad.tsv"
    manifest.write_text("\t".join([fields[0], str(bad)] + fields[2:]) + "\n", encoding="utf-8")
    code, _, err = run(capsys, "perturb", "--manifest", str(manifest), "--out", str(tmp_path / "o"))
    assert code == 1
    assert err.startswith(f"error: {bad}: RIFF size ")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["evaluate", "train"])
def test_wav_shorter_than_a_frame_names_its_utterance(workspace, tmp_path, capsys, command):
    """A WAV shorter than one 25 ms frame fails closed naming the utterance
    whose features could not be computed."""
    from voxtag import model as M
    short = tmp_path / "short.wav"
    write_wav(Waveform(0.1 * np.sin(np.arange(100)), 16000), short)
    line = (workspace / "corpus" / "manifest.tsv").read_text(encoding="utf-8").splitlines()[0]
    tokens = line.split("\t")[4]
    manifest = tmp_path / "short.tsv"
    manifest.write_text(f"tiny_utt\t{short}\tF\t{tokens}\t{tokens}\n{line}\n", encoding="utf-8")
    if command == "evaluate":
        eval_line = (workspace / "corpus" / "eval.tsv").read_text(encoding="utf-8").splitlines()[0]
        eval_tsv = tmp_path / "eval.tsv"
        eval_tsv.write_text(f"tiny_utt\tamata\tamato\tamata|amato\n{eval_line}\n",
                            encoding="utf-8")
        model = tmp_path / "m.vxck"
        M.save_model(M.TranslationModel(M.Vocabulary([]),
                                        M.ModelConfig(hidden_dim=8, disc_hidden=8)), model)
        argv = ["evaluate", "--model", str(model), "--manifest", str(manifest),
                "--eval-tsv", str(eval_tsv), "--out", str(tmp_path / "report.json")]
    else:
        argv = ["train", "--manifest", str(manifest), "--total-updates", "20",
                "--warmup-updates", "5", "--out", str(tmp_path / "o")]
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("error: tiny_utt: waveform of 100 samples shorter than one 25 ms frame")


@pytest.mark.parametrize("perturbed", [False, True])
def test_train_with_a_short_training_wav_leaves_no_out(workspace, tmp_path, capsys, perturbed):
    """A training-split WAV shorter than one 25 ms frame fails the run before
    metrics.jsonl is opened, so the --out the run made is removed again. On
    the last manifest line, the utterance is not in the validation head."""
    short = tmp_path / "short.wav"
    write_wav(Waveform(0.1 * np.sin(np.arange(100)), 16000), short)
    lines = (workspace / "corpus" / "manifest.tsv").read_text(encoding="utf-8").splitlines()
    tokens = lines[0].split("\t")[4]
    manifest = tmp_path / "short_last.tsv"
    manifest.write_text("".join(line + "\n" for line in lines)
                        + f"tiny_utt\t{short}\tF\t{tokens}\t{tokens}\n", encoding="utf-8")
    argv = ["train", "--manifest", str(manifest), "--total-updates", "20",
            "--warmup-updates", "5", "--out", str(tmp_path / "o")]
    code, _, err = run(capsys, *argv + (["--with-perturb"] if perturbed else []))
    assert code == 1
    assert err.startswith("error: tiny_utt: waveform of 100 samples shorter than one 25 ms frame")
    assert not (tmp_path / "o").exists()


def test_missing_file_is_validation_error(capsys):
    code, _, err = run(capsys, "perturb", "--manifest", "/no/such.tsv",
                       "--out", "/tmp/x")
    assert code == 1 and "/no/such.tsv" in err


@pytest.mark.parametrize("argv, path", [
    (["train", "--manifest", "{m}", "--init", "{d}", "--out", "{o}"], "{d}"),
    (["train", "--manifest", "{d}", "--out", "{o}"], "{d}"),
    (["train", "--manifest", "{m}", "--init", "{f}/x", "--out", "{o}"], "{f}/x"),
    (["evaluate", "--model", "{w}", "--manifest", "{m}", "--eval-tsv", "{d}",
      "--out", "{o}/report.json"], "{d}"),
    (["perturb", "--manifest", "{d}", "--out", "{o}"], "{d}"),
    (["synth-data", "--n-utterances", "2", "--out", "{f}"], "{f}"),
])
def test_path_of_the_wrong_kind_is_validation_error(workspace, tmp_path, capsys, argv, path):
    """A directory where a file is read, or a file where a directory is
    needed, fails closed like a missing file and names the path."""
    (tmp_path / "adir").mkdir()
    (tmp_path / "afile").write_text("x")
    from voxtag import model as M
    M.save_model(M.TranslationModel(M.Vocabulary([]), M.ModelConfig(hidden_dim=8, disc_hidden=8)),
                 tmp_path / "m.vxck")
    names = {"m": workspace / "corpus" / "manifest.tsv", "d": tmp_path / "adir",
             "f": tmp_path / "afile", "o": tmp_path / "out", "w": tmp_path / "m.vxck"}
    code, _, err = run(capsys, *(a.format(**names) for a in argv))
    assert code == 1
    assert err.startswith("error: ") and path.format(**names) in err
