"""Smoke tests keeping the example scripts honest (the fast ones run
end-to-end; the slow ones are import/syntax-checked)."""

import os
import pathlib
import py_compile
import subprocess
import sys

import pytest

import repro

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"
SRC_DIR = str(pathlib.Path(repro.__file__).resolve().parent.parent)


def run_example(name, timeout=240, args=()):
    # The children import ``repro`` from wherever this process found it
    # (the in-tree ``src`` on a clean checkout), not from the caller's
    # environment.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC_DIR, env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=env,
    )


class TestExamples:
    def test_all_examples_compile(self):
        scripts = sorted(EXAMPLES.glob("*.py"))
        assert len(scripts) >= 6
        for script in scripts:
            py_compile.compile(str(script), doraise=True)

    def test_quickstart_runs(self):
        result = run_example("quickstart.py")
        assert result.returncode == 0, result.stderr
        assert "ping" in result.stdout
        assert "reciprocation at work" in result.stdout

    def test_scheduler_study_runs(self):
        result = run_example("scheduler_study.py")
        assert result.returncode == 0, result.stderr
        assert "Figure 1" in result.stdout
        assert "Figure 3" in result.stdout
        assert "4BSD scheduler" in result.stdout

    def test_bittorrent_swarm_scaled_runs(self):
        result = run_example(
            "bittorrent_swarm.py",
            args=["--leechers", "8", "--file-mb", "1", "--stagger", "1",
                  "--pnodes", "2"],
        )
        assert result.returncode == 0, result.stderr
        assert "first completion" in result.stdout.lower() or "completion" in result.stdout
