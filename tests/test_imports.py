"""What importing the package brings in.

Its public surface is pinned, so that adding or dropping a public name is a
deliberate change to this list.  The pure-Python routes stay free of numpy
and scipy: importing numpy costs several MiB of resident memory and a
noticeable start-up time, so an exact solve or a walk must not pull it in by
accident.
"""
import os
import subprocess
import sys

import weyltasep

PUBLIC_NAMES = [
    "DStarParams", "DirectionVector", "Dist", "Kernel", "R", "STAR", "WeylKind", "act",
    "apply_generator", "b_first_site", "b_pair_table", "ballot", "build_dstar",
    "build_multi", "build_semipermeable", "build_two_species", "catalan",
    "ccheck_last_density", "closedform", "communicating_classes", "conjecture_b_value",
    "count_segment", "d_pair_table", "dstar_states", "enumerate_configs", "errors",
    "estimate_direction", "exact_stationary", "fmt_ratio", "fundamental_point",
    "inverse", "inverse_act_theta", "k_coloring", "kac_weights", "label_counts",
    "length", "limdir_closed", "limdir_exact_lam", "lumping", "m_poly", "markov",
    "models", "modular", "multi_states", "multi_sums", "parse_ratio",
    "project_distribution", "project_top_row", "q_weight", "ratio", "root_data",
    "run_walk", "semiperm_density", "separation_count", "signed_permutations",
    "star_collapse", "theta_raises", "tstar", "tstar_bar", "two_species_states",
    "tworow", "v_poly", "verify_lumping", "walk", "weyl", "wprod", "z_b", "z_d",
    "z_semiperm",
]


def test_public_names_are_pinned():
    assert sorted(weyltasep.__all__) == PUBLIC_NAMES


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
