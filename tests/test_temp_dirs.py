"""The serving CLIs remove the temporary directories they create.

``python -m repro.server`` (self-test and chaos self-test) and
``benchmarks/bench_serving.py`` (clean and ``--degraded``) keep their default
result store and fault ledger in a temporary directory.  Each runs here as a
subprocess from the repository root with ``TMPDIR`` pointing at an empty
directory, which must be empty again when it exits.  A ``--store-dir`` the
caller names is the caller's and must survive with its artifacts.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_SERVING = ["benchmarks/bench_serving.py", "--scale", "0.08",
                 "--repeats", "2", "--clients", "2", "--circuits", "graph"]
COMMANDS = {
    "server-self-test": ["-m", "repro.server", "--self-test"],
    "server-chaos-self-test": ["-m", "repro.server", "--self-test", "--chaos"],
    "bench-serving": BENCH_SERVING,
    "bench-serving-degraded": BENCH_SERVING + ["--degraded"],
}


def _run(args, tmp_path: Path) -> Path:
    """Run ``python *args`` with an empty ``TMPDIR``; return that directory."""
    temp = tmp_path / "tmp"
    temp.mkdir()
    if args[0] == BENCH_SERVING[0]:
        args = [*args, "--out", str(tmp_path / "report.json")]
    pythonpath = [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, TMPDIR=str(temp),
               PYTHONPATH=os.pathsep.join(filter(None, pythonpath)))
    completed = subprocess.run([sys.executable, *args], cwd=REPO_ROOT, env=env,
                               capture_output=True, text=True, timeout=300)
    assert completed.returncode == 0, completed.stdout + completed.stderr
    return temp


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_leaves_no_temporary_directory(name, tmp_path):
    temp = _run(COMMANDS[name], tmp_path)
    assert sorted(path.name for path in temp.iterdir()) == []


@pytest.mark.parametrize("name", ["server-self-test", "bench-serving"])
def test_named_store_dir_is_kept(name, tmp_path):
    store = tmp_path / "store"
    temp = _run([*COMMANDS[name], "--store-dir", str(store)], tmp_path)
    assert sorted(path.name for path in temp.iterdir()) == []
    assert list(store.glob("*.json"))
