"""What importing the package brings in.

Its public surface is pinned, so that adding or dropping a public name is a
deliberate change to this list.  The pure-Python routes stay free of numpy
and scipy: importing numpy costs several MiB of resident memory and a
noticeable start-up time, so an exact solve or a walk must not pull it in by
accident.  A parallel walk forks its own workers, so it does not import
multiprocessing either.  No module of the package, the tests or the demos imports a name
it never uses.
"""
import ast
import os
import subprocess
import sys
from pathlib import Path

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
from weyltasep.walk import estimate_direction, run_walk
from weyltasep.weyl import WeylKind
exact_stationary(build_multi(WeylKind("B", 3), 3))
tworow.stationary(5, 1, PARAM_POINTS[0])
run_walk(WeylKind("B", 2), 2, 1000, 1)
estimate_direction(WeylKind("B", 2), 2, 1000, 2, processes=2)
print(",".join(m for m in ("numpy", "scipy", "multiprocessing") if m in sys.modules))
"""


def test_exact_solve_and_walk_do_not_import_numpy_or_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(weyltasep.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == ""


ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads; a literal ``__all__`` counts as a use."""
    imported = {}
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and isinstance(node.value, (ast.List, ast.Tuple)):
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                used.update(e.value for e in node.value.elts if isinstance(e, ast.Constant))
    return [f"{line}: {name}" for name, line in imported.items() if name not in used]


def test_unused_import_scan():
    source = "import os, os.path as osp\nfrom math import pi, tau\n__all__ = ['e']\n" \
        "from math import e\nprint(tau)\n"
    assert unused_imports(source) == ["1: os", "1: osp", "2: pi"]


def test_no_unused_imports():
    # A package's __init__ imports its public names to re-export them.
    paths = [p for d in ("src", "tests", "demos") for p in sorted((ROOT / d).rglob("*.py"))
             if p.name != "__init__.py"]
    assert paths
    unused = [f"{p.relative_to(ROOT)}:{line}"
              for p in paths for line in unused_imports(p.read_text())]
    assert unused == []
