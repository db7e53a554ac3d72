import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

import pytest

from weyltasep import markov


@pytest.fixture
def solver_runs(monkeypatch):
    """One entry per exact_stationary call that ran the solver (lumping and elimination)."""
    runs = []
    lumped = markov._lumped

    def spy(kernel, members):
        runs.append(len(members))
        return lumped(kernel, members)

    monkeypatch.setattr(markov, "_lumped", spy)
    return runs
