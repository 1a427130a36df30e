"""Every demo runs to a zero exit, and the deterministic ones print the same bytes.

A demo that raises, or fails one of its own asserts, exits non-zero.  The
digests are of each demo's standard output; a change to the simulator that
moves any number a demo prints shows here.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"

STDOUT_SHA256 = {
    "contention_co_vs_cl.py": "d85005c391a3bb92c81e3778877528b595025e6c4eca5bebfb8328a14281bfcc",
    "hybrid_areas.py": "27c3b6cf943ef9b5c66e10401cfada814fbaa7da3a62a3d3e8fdb1444a08d7b6",
    "protocol_latency.py": "70f20a958f8260f84d35d0869fb583b856e276022f963fb126de483420521727",
    "pumping.py": "9122dc1c3f63de8112f2f6edc335a2a92b9cb0524ceab12fdbf5a7ffaa65c8b7",
    "third_class_relay.py": "b4f20268c1dda5ea8b9dbb092e68cf525bb222fe75461d776dbd8a04e97ebdcb",
    "werner_algebra.py": "609a4068d7270514d6202e7054a539dfda252e4794817aa7bbd006f0fd5092be",
}
# prints the temporary paths it writes to, so only its exit code is checked
UNPINNED = {"cli_roundtrip.py"}


def test_every_demo_is_listed():
    assert {p.name for p in DEMOS.glob("*.py")} == set(STDOUT_SHA256) | UNPINNED


@pytest.mark.parametrize("name", sorted(set(STDOUT_SHA256) | UNPINNED))
def test_demo_exits_zero_with_its_recorded_output(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(DEMOS / name)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()[-2000:]
    if name in STDOUT_SHA256:
        assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[name]
