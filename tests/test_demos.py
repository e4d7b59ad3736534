"""Smoke tests for the scripts in demos/: the two quick ones run to the end,
and every demo's imports from voxtag resolve."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
NUM = r"-?\d+\.\d+"


def run_demo(name):
    env = dict(os.environ, OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_voice_conversion_demo():
    lines = run_demo("voice_conversion.py")
    patterns = [
        rf"source voice: f0 median {NUM} Hz, formant peak \d+ Hz",
        rf"target {NUM} Hz \(alpha={NUM}\) -> measured {NUM} Hz, formant peak \d+ Hz",
        rf"round trip -> {NUM} Hz \(started at {NUM} Hz\)",
    ]
    assert len(lines) == len(patterns)
    for line, pattern in zip(lines, patterns):
        assert re.fullmatch(pattern, line), line


def test_tag_controlled_translation_demo():
    lines = run_demo("tag_controlled_translation.py")
    assert lines[0] == "training on 120 synthetic utterances ..."
    assert re.fullmatch(rf"validation loss {NUM} -> {NUM}", lines[1])
    blocks = lines[2:]
    assert len(blocks) == 4 * 4
    for k in range(0, len(blocks), 4):
        blank, head, tag_f, tag_m = blocks[k:k + 4]
        assert blank == ""
        assert re.fullmatch(r"utt\d{5} \(speaker [FM]\): reference = \S+( \S+)*", head)
        assert re.fullmatch(r"  tag F: (\S+( \S+)*)?", tag_f)
        assert re.fullmatch(r"  tag M: (\S+( \S+)*)?", tag_m)


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(path):
    """Each `from voxtag... import name` of a demo names something that exists,
    so a demo too slow to run here still breaks a test when the API moves."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imports = [node for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("voxtag")]
    assert imports
    for node in imports:
        module = importlib.import_module(node.module)
        for alias in node.names:
            assert hasattr(module, alias.name), f"{node.module}.{alias.name}"
