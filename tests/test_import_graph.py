"""The package loads only the scipy submodules the path that runs uses.

``import mqcardinal`` loads numpy and no scipy subpackage: each one is
imported where it is first called.  The cardinal tables load ``scipy.fft``
(which loads ``scipy.special`` itself), the Bessel transforms
``scipy.special`` and the Gram baseline ``scipy.linalg``; the truncation
report loads none.  The HEAVY modules cost about a third of a cold import
of all three, so no path may load them.  Each check runs in a fresh
interpreter: pytest itself loads ``scipy.linalg`` for its warning filters.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import mqcardinal

HEAVY = ("scipy.interpolate", "scipy.integrate", "scipy.optimize", "scipy.sparse",
         "scipy.spatial")
PATHS = ("scipy.fft", "scipy.special", "scipy.linalg")

# Each path's code, run after the import.
STEPS = {
    "tau": "mq.compute_tau(mq.poisson(1.0), 1e-12)",
    "gram": ("x = np.arange(-8.0, 9.0) + 0.1 * np.sin(np.arange(17.0)); "
             "mq.eval_gram(mq.fit_gram(mq.SampleSet(x, np.cos(x)), mq.gaussian(1.0)), x / 3)"),
    "table": ("t = mq.build_cardinal_table(mq.poisson(1.0), 1e-10, 8, 16); "
              "mq.eval_uniform(mq.cardinal_series(np.cos(np.arange(-8, 9) / 4), 4, t), 0.3)"),
}


def fresh(code: str) -> dict:
    """Run ``code`` in a fresh interpreter with ``report(step)`` defined,
    which records the subpackages of PATHS and HEAVY loaded by then, and
    return the record."""
    prelude = (
        "import json, sys\n"
        "seen = {}\n"
        "def report(step):\n"
        f"    seen[step] = [m for m in {PATHS + HEAVY!r} if m in sys.modules]\n"
    )
    coda = "\nprint(json.dumps(seen))\n"
    src = str(Path(mqcardinal.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", prelude + code + coda], capture_output=True,
                         text=True, check=True, cwd=src)
    return json.loads(out.stdout)


def test_import_loads_no_heavy_scipy_module():
    # The import and the truncation report loaded all three subpackages.
    code = "import numpy as np, mqcardinal as mq, mqcardinal.cli\nreport('import')\n"
    seen = fresh(code + f"{STEPS['tau']}\nreport('tau')\n")
    assert seen == {"import": [], "tau": []}


@pytest.mark.parametrize("order", [("gram", "table"), ("table", "gram")])
def test_each_path_loads_only_its_own_subpackages(order):
    # A subpackage one path loaded is already loaded for the next, so the
    # two orders together check what each path loads.
    code = "import numpy as np, mqcardinal as mq\n"
    seen = fresh(code + "".join(f"{STEPS[s]}\nreport({s!r})\n" for s in order))
    loaded = {"gram": {"scipy.linalg"}, "table": {"scipy.fft", "scipy.special"}}
    first, second = order
    assert set(seen[first]) == loaded[first]
    assert set(seen[second]) == loaded[first] | loaded[second]


def test_conditioning_timers_start_after_the_imports():
    # With the imports left to the fits, the first row's Gram fit read
    # 215 ms against 0.6 ms, and its cardinal fit 72 ms against 1.4 ms.
    code = (
        "import mqcardinal as mq\n"
        "from mqcardinal import experiments\n"
        "timed = experiments._timed_l2\n"
        "def spy(*args):\n"
        "    if 'first call' not in seen:\n"
        "        report('first call')\n"
        "    return timed(*args)\n"
        "experiments._timed_l2 = spy\n"
        "experiments.run_conditioning_study(N_grid=(1,), kernel_list=(mq.poisson(1.0),))\n"
    )
    loaded = fresh(code)["first call"]
    assert "scipy.fft" in loaded and "scipy.linalg" in loaded
