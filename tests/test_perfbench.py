"""The benchmark's self-test runs against this checkout's src.

perfbench/tracer.py wraps privqa functions by the module-global names their
callers look them up by, so renaming or bypassing one of them breaks the
benchmark without breaking any other test.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--selftest"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    assert proc.stdout.splitlines()[-1] == "selftest: ok"
