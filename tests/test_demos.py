"""Byte-for-byte pins of the five demos' output.

``golden/demo_outputs.json`` maps each script under ``demos/`` to its
stdout.  Each demo runs in a fresh interpreter that imports this
``autodiss``.  Run as a script, this file only adds new demos; for a
deliberate change of output, delete the changed demos by hand first.
"""

import os
import subprocess
import sys

import pytest

import autodiss
import golden

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMO_DIR = os.path.join(ROOT, "demos")
FIXTURE = os.path.join(ROOT, "tests", "golden", "demo_outputs.json")
DEMOS = sorted(f for f in os.listdir(DEMO_DIR) if f.endswith(".py"))


def run_demo(name: str) -> subprocess.CompletedProcess:
    src = os.path.dirname(os.path.dirname(autodiss.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, os.path.join(DEMO_DIR, name)],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True)


@pytest.mark.parametrize("name", DEMOS)
def test_demo_output_matches_golden(name):
    proc = run_demo(name)
    assert (proc.returncode, proc.stderr) == (0, "")
    golden.check(FIXTURE, {name: proc.stdout}, keys=DEMOS)


if __name__ == "__main__":
    outputs = {}
    for demo in DEMOS:
        proc = run_demo(demo)
        assert proc.returncode == 0 and not proc.stderr, (demo, proc.stderr)
        outputs[demo] = proc.stdout
    golden.extend(FIXTURE, outputs)
