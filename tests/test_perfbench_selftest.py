"""perfbench's own tests pass against this checkout.

The benchmark imports the library from this tree and relies on more than
its public names: for example ``dataclasses.replace`` on a StratumClass
and ``classify._classify_cached.cache_clear``.  Running perfbench/selftest.py
here makes a library change that breaks the benchmark fail this suite.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    result = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
