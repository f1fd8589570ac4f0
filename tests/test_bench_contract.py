"""The names perfbench traces must exist.

A traced benchmark run reports a layer whose wrapped names are all gone as
null, which makes the run's result malformed; deleting or renaming such a name
fails here instead.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROBE = """
import json
import planecurves
import planecurves.cli
from tracing import Tracer

tracer = Tracer()
tracer.install(planecurves)
print(json.dumps(tracer.absent_layers()))
"""


def test_tracer_finds_every_layer():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    out = subprocess.run(
        [sys.executable, "-c", PROBE], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout.strip().splitlines()[-1]) == []
