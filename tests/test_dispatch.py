"""erfcx and G give the same bits whichever SIMD loops numpy dispatches to."""

import os
import pathlib
import subprocess
import sys

import pytest

import ransomgame

try:
    from numpy._core import _multiarray_umath as _umath
except ImportError:  # numpy < 2
    from numpy.core import _multiarray_umath as _umath

# numpy's AVX-512 targets; without them it runs its AVX2 (X86_V3) loops.
_NO_AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"
_HAS_AVX512_LOOPS = ("X86_V4" in _umath.__cpu_dispatch__
                     and bool(_umath.__cpu_features__.get("X86_V4")))

# Inputs built by exact arithmetic (no exp, log or power, whose bits depend
# on the dispatch themselves): every branch of erfcx, subnormals to 8e305.
_CHILD = """
import hashlib
import numpy as np
from ransomgame.profit import _gross_multiplier
from ransomgame.stochastics import _erfcx
x = np.concatenate([np.arange(1 << 16) / 4096.0,
                    np.ldexp(1.0 + np.arange(2090) / 2090.0, np.arange(-1074, 1016))])
a = np.ldexp(1.0 + np.arange(500) / 500.0, np.arange(-100, 900, 2))
sigma = np.arange(1, 257) / 256.0
for v in (x, _erfcx(x), _gross_multiplier(a[:, None], sigma[None, :])):
    print(hashlib.sha256(v.tobytes()).hexdigest())
"""


def _run_child(**env):
    src = str(pathlib.Path(ransomgame.__file__).resolve().parent.parent)
    env = {**os.environ, **env,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", _CHILD], env=env, check=True,
                          capture_output=True, text=True).stdout


@pytest.mark.skipif(not _HAS_AVX512_LOOPS,
                    reason="numpy has no X86_V4 (AVX-512) loops on this CPU to turn off, "
                           "so both runs would take the same loops")
def test_erfcx_and_g_bits_do_not_depend_on_avx512_loops():
    # Only the child processes' environment changes; the machine does not.
    assert _run_child() == _run_child(NPY_DISABLE_CPU_FEATURES=_NO_AVX512)
