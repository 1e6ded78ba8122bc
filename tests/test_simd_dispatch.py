"""Report bytes must not depend on the SIMD loops numpy dispatches.

numpy picks its ufunc loops at import from the CPU, and
``NPY_DISABLE_CPU_FEATURES`` turns the dispatched targets off for one
process. The pinned reports and digests are rerun in a subprocess with every
dispatched target that this CPU has turned off, so a report float that holds
only on this CPU's fastest loops (a ``np.exp`` where ``math.exp`` was meant,
say) fails here rather than on a CPU without them.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).parent
PINNED = ("test_goldens.py", "test_sense_digest.py", "test_attack.py::TestOracleDigest")
_PRIVATE = "numpy._core._multiarray_umath.__cpu_dispatch__ and __cpu_features__"

# runs in the subprocess: the targets must be off there, then the pinned tests run
_RUNNER = """
import sys
import pytest
from numpy._core import _multiarray_umath as umath
on = [t for t in sys.argv[1].split() if umath.__cpu_features__.get(t)]
if on:
    sys.exit(f"NPY_DISABLE_CPU_FEATURES left {on} on")
sys.exit(pytest.main(["-q", "-p", "no:cacheprovider", *sys.argv[2:]]))
"""


def dispatched_targets_on() -> list[str]:
    """The SIMD targets numpy dispatches to on this CPU."""
    try:
        from numpy._core import _multiarray_umath as umath

        dispatch, features = umath.__cpu_dispatch__, umath.__cpu_features__
    except (ImportError, AttributeError) as exc:
        pytest.fail(f"numpy no longer has {_PRIVATE}, which this test reads: {exc!r}")
    return [target for target in dispatch if features.get(target)]


def test_pinned_reports_hold_with_dispatched_simd_off():
    targets = dispatched_targets_on()
    if not targets:
        pytest.skip("numpy dispatches no SIMD target on this CPU, so there is none to turn off")
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(targets)}
    result = subprocess.run(
        [sys.executable, "-c", _RUNNER, " ".join(targets), *(str(TESTS / t) for t in PINNED)],
        cwd=TESTS.parent, env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, (
        f"with {targets} off:\n{result.stdout[-6000:]}\n{result.stderr[-3000:]}"
    )
