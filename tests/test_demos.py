"""Every demo script, and the README's library quick start, runs to
completion against the package in src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from mmner.synthetic import synthetic_corpus, to_conll

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("script", DEMOS, ids=[path.name for path in DEMOS])
def test_demo_exits_zero(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]


def test_readme_library_quick_start_runs(tmp_path):
    """The README's library quick start runs as printed, over a small corpus."""
    readme = (ROOT / "README.md").read_text("utf-8")
    section = readme.split("## Quick start (library)", 1)[1]
    snippet = section.split("```python\n", 1)[1].split("```", 1)[0]
    corpus = synthetic_corpus(n_sentences=6, seed=7)
    (tmp_path / "train.conll").write_text(to_conll(corpus.sentences, corpus.scheme), "utf-8")
    (tmp_path / "quick_start.py").write_text(snippet, "utf-8")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "quick_start.py"], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    assert 0.0 <= float(done.stdout.split()[-1]) <= 1.0
