"""Regenerate the fixed model that the `evaluate` workload decodes with.

    python3 bench/make_model.py

Runs the recorded `voxtag` commands below in .bench_out/make_model, copies the
trained model into bench/model/ and records its sha256 in bench/model/MODEL.json.
The `evaluate` workload refuses a model whose digest differs, so training
changes cannot silently move the decode lengths it measures. Regenerating the
model is a change to the benchmark.
"""

import hashlib
import json
import os
import shutil
import sys

from env import BenchError, ROOT, WORK_ROOT, check_pinned, import_voxtag, pin_threads

MODEL_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "model")
MODEL_FILES = ("model.vxck", "model.vxck.meta")
RECIPE = [
    ["synth-data", "--n-utterances", "200", "--seed", "11", "--out", "{work}/corpus"],
    ["train", "--manifest", "{work}/corpus/manifest.tsv", "--mode", "multi_gender",
     "--total-updates", "2000", "--warmup-updates", "200", "--lr-peak", "0.001",
     "--seed", "0", "--out", "{work}/run"],
]


def sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def main():
    pin_threads()
    import_voxtag()
    check_pinned()
    from voxtag import cli
    work = os.path.join(WORK_ROOT, "make_model")
    shutil.rmtree(work, ignore_errors=True)
    try:
        for step in RECIPE:
            argv = [a.format(work=work) for a in step]
            if cli.main(argv) != 0:
                raise BenchError(f"voxtag {' '.join(argv)} failed")
        os.makedirs(MODEL_DIR, exist_ok=True)
        for name in MODEL_FILES:
            shutil.copyfile(os.path.join(work, "run", name), os.path.join(MODEL_DIR, name))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record = {"recipe": [["voxtag"] + step for step in RECIPE],
              "sha256": {name: sha256(os.path.join(MODEL_DIR, name)) for name in MODEL_FILES}}
    with open(os.path.join(MODEL_DIR, "MODEL.json"), "w", encoding="utf-8") as f:
        json.dump(record, f, indent=2)
        f.write("\n")
    print(json.dumps(record["sha256"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
