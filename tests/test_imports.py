"""The pure-Python routes stay free of numpy and scipy.

Importing numpy costs several MiB of resident memory and a noticeable
start-up time, so an exact solve or a walk must not pull it in by accident.
"""
import os
import subprocess
import sys

import weyltasep

SCRIPT = """
import sys
import weyltasep, weyltasep.cli
from weyltasep import tworow
from weyltasep.markov import exact_stationary
from weyltasep.models import build_multi
from weyltasep.verify import PARAM_POINTS
from weyltasep.walk import run_walk
from weyltasep.weyl import WeylKind
exact_stationary(build_multi(WeylKind("B", 3), 3))
tworow.stationary(5, 1, PARAM_POINTS[0])
run_walk(WeylKind("B", 2), 2, 1000, 1)
print(",".join(m for m in ("numpy", "scipy") if m in sys.modules))
"""


def test_exact_solve_and_walk_do_not_import_numpy_or_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(weyltasep.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == ""
