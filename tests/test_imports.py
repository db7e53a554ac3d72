"""What importing the package brings in.

Its public surface is pinned, so that adding or dropping a public name is a
deliberate change to this list.  The pure-Python routes stay free of numpy
and scipy: importing numpy costs several MiB of resident memory and a
noticeable start-up time, so an exact solve or a walk must not pull it in by
accident.  A parallel walk forks its own workers, so it does not import
multiprocessing either.  No module of the package, the tests or the demos imports a name
it never uses, and every public name that a module of the package defines is
read by the package, the demos or the benchmark.
"""
import ast
import os
import subprocess
import sys
from pathlib import Path

import weyltasep

PUBLIC_NAMES = [
    "DStarParams", "DirectionVector", "Dist", "Kernel", "R", "STAR", "WeylKind", "act",
    "apply_generator", "b_first_site", "b_pair_table", "ballot", "build_cut_chain",
    "build_dstar", "build_multi", "build_semipermeable", "catalan", "ccheck_last_density",
    "closed_class", "closedform", "conjecture_b_value", "count_segment",
    "cut_coloring", "cut_states", "d_pair_table", "dstar_states", "enumerate_configs",
    "errors", "estimate_direction", "exact_stationary", "fmt_ratio", "fundamental_point",
    "inverse_act_theta", "kac_weights", "label_counts", "limdir_closed", "limdir_exact_lam",
    "lumping", "m_poly", "markov", "models", "multi_sums", "parse_ratio",
    "project_distribution", "q_weight", "ratio", "root_data", "run_walk",
    "semiperm_density", "separation_count", "star_lift", "theta_raises",
    "tstar_bar", "tworow", "v_poly", "verify_lumping", "walk", "weyl", "z_b", "z_d",
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


def names_read(source: str) -> set[str]:
    """Names a module reads: loaded names, attributes and the modules it imports from.

    A name read only inside the body of a function or class of that name
    (a recursive call) is not counted.
    """
    read = set()

    class Reader(ast.NodeVisitor):
        def __init__(self):
            self.defining = []

        def visit_FunctionDef(self, node):
            self.defining.append(node.name)
            self.generic_visit(node)
            self.defining.pop()

        visit_AsyncFunctionDef = visit_ClassDef = visit_FunctionDef

        def visit_Name(self, node):
            if isinstance(node.ctx, ast.Load) and node.id not in self.defining:
                read.add(node.id)

        def visit_Attribute(self, node):
            if node.attr not in self.defining:
                read.add(node.attr)
            self.generic_visit(node)

        def visit_ImportFrom(self, node):
            if node.module:
                read.update(node.module.split("."))
            else:  # from . import closedform
                read.update(alias.name for alias in node.names)

    Reader().visit(ast.parse(source))
    return read


def test_names_read_scan():
    source = "from . import walk\nfrom .models import build\ndef f(x):\n    return f(x.g)\n" \
        "y = h\n"
    assert names_read(source) == {"walk", "models", "g", "x", "h"}


def public_definitions(source: str) -> list[str]:
    """The public functions, classes and constants a module defines at its top level."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [name for name in names if not name.startswith("_")]


def test_public_definitions_scan():
    source = "A = 1\n_B = 2\nC: int = 3\ndef f():\n    E = 5\nclass K:\n    F = 6\n" \
        "def _g(): pass\nif A:\n    D = 4\n"
    assert public_definitions(source) == ["A", "C", "f", "K"]


# Formulas of the paper that nothing in the package uses; the tests check
# each against the exact chains.
UNREAD_FORMULAS = {"closedform.b_first_site", "closedform.b_pair_table", "closedform.multi_sums"}
# Read only by the tests; it belongs in tests/oracles.py, together with its cache.
TEST_ONLY_HELPERS = {"weyl.length"}


def test_every_public_name_is_read():
    # The package's __init__ only re-exports, so it is left out.
    paths = [p for d in ("src", "demos", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))
             if p.name != "__init__.py"]
    read = set().union(*(names_read(p.read_text()) for p in paths))
    modules = [p for p in paths if p.parent.name == "weyltasep"]
    unread = {f"{p.stem}.{name}" for p in modules for name in public_definitions(p.read_text())
              if name not in read}
    assert sorted(unread) == sorted(UNREAD_FORMULAS | TEST_ONLY_HELPERS)
