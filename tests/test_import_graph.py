"""The package loads only the scipy submodules its pipeline uses.

The cardinal tables need ``scipy.fft``, the Gram baseline ``scipy.linalg``
and the Bessel transforms ``scipy.special``.  The modules below cost about
a third of a cold import, so a fresh interpreter must not load them.
"""

import subprocess
import sys
from pathlib import Path

import mqcardinal

HEAVY = ("scipy.interpolate", "scipy.integrate", "scipy.optimize", "scipy.sparse",
         "scipy.spatial")


def test_import_loads_no_heavy_scipy_module():
    code = ("import sys, mqcardinal, mqcardinal.cli; "
            f"print(' '.join(m for m in {HEAVY!r} if m in sys.modules))")
    src = str(Path(mqcardinal.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, cwd=src)
    assert out.stdout.split() == []
