"""Smoke test: every demo script, and README's library quickstart, runs to completion;
a demo that shows an effect prints it."""

from __future__ import annotations

import os
import re
import runpy
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import fedhosp.federation

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# demo -> patterns its output must match: what the demo is there to show
SHOWS = {
    "federated_gate.py": [r"(?m)^ *\d+ +\d\.\d{4} +commit ", r"(?m)^ *\d+ +\d\.\d{4} +REVERT "],
    "tcp_federation.py": [r"(?m)^in-process replay matches the TCP run bit for bit$"],
}


def _assert_runs(script: Path, cwd: Path) -> str:
    """Run ``script`` in ``cwd``, assert it exits 0 and return its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, str(script)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    return done.stdout


@pytest.mark.parametrize("script", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(script, tmp_path):
    out = _assert_runs(script, tmp_path)
    for pattern in SHOWS.get(script.name, ()):
        assert re.search(pattern, out), f"{script.name} printed nothing matching {pattern}:\n{out}"


def test_readme_quickstart_runs(tmp_path):
    section = (ROOT / "README.md").read_text().split("## Library quickstart", 1)[1]
    script = tmp_path / "quickstart.py"
    script.write_text(section.split("```python\n", 1)[1].split("```", 1)[0])
    _assert_runs(script, tmp_path)


def test_tcp_demo_raises_a_hospital_failure_rather_than_waiting_for_it(monkeypatch):
    """A hospital that fails closes the listener, so the server stops waiting in
    accept and the demo raises the hospital's error within seconds."""
    def fail(*args, **kwargs):
        raise RuntimeError("hospital failed")

    monkeypatch.setattr(fedhosp.federation, "worker_loop", fail)
    raised = []

    def run_demo():
        try:
            runpy.run_path(str(ROOT / "demos" / "tcp_federation.py"))
        except Exception as exc:  # noqa: BLE001 - checked below
            raised.append(exc)

    demo = threading.Thread(target=run_demo, daemon=True)
    demo.start()
    demo.join(timeout=20.0)
    assert not demo.is_alive(), "the demo still waits for a hospital that failed"
    assert [str(exc) for exc in raised] == ["hospital failed"]
