import pytest

import weyltasep.closedform as cf
from weyltasep.errors import RangeError
from weyltasep.verify import (suite_conjecture_b, suite_identities, suite_lumping, suite_tables,
                              suite_tworow)


@pytest.mark.parametrize(
    "kwargs,message",
    [
        ({"a_max": 0}, "needs a_max >= 1, got 0"),
        ({"a_max": -1, "motzkin_k": -1}, "needs a_max >= 1, got -1"),
        ({"k_max": -1}, "needs k_max >= 0, got -1"),
        ({"motzkin_k": -1}, "needs motzkin_k >= 0, got -1"),
    ],
)
def test_identities_rejects_sizes_that_check_nothing(kwargs, message):
    with pytest.raises(RangeError, match=message):
        suite_identities(**kwargs)


@pytest.mark.parametrize(
    "kwargs,message",
    [
        ({"bij_n_max": 2}, "needs bij_n_max >= 3, got 2"),
        ({"bij_n0_max": -1}, "needs bij_n0_max >= 0, got -1"),
        ({"partition_n_max": 2}, "needs partition_n_max >= 3, got 2"),
        ({"stationary_cases": ()}, "at least one stationary case"),
        ({"bij_n_max": 1, "stationary_cases": (), "partition_n_max": 1},
         "needs bij_n_max >= 3, got 1"),
    ],
)
def test_tworow_rejects_sizes_that_check_nothing(kwargs, message):
    with pytest.raises(RangeError, match=message):
        suite_tworow(**kwargs)


@pytest.mark.parametrize(
    "suite,kwargs,message",
    [
        (suite_lumping, {"n_max": 1}, "the lumping suite needs n_max >= 2, got 1"),
        (suite_conjecture_b, {"n": 1}, "the conjecture-b suite needs n >= 2, got 1"),
    ],
    ids=["lumping", "conjecture-b"],
)
def test_rank_suites_reject_sizes_that_check_nothing(suite, kwargs, message):
    with pytest.raises(RangeError, match=message):
        suite(**kwargs)


def test_smallest_accepted_sizes_pass():
    assert suite_identities(a_max=1, k_max=0, motzkin_k=0)["pass"]
    report = suite_tworow(bij_n_max=3, bij_n0_max=0, stationary_cases=((3, 1),),
                          partition_n_max=3)
    assert report["pass"]


def test_tables_reads_the_pair_law_that_conjecture_b_solved():
    # verify runs conjecture-b before tables; both read B4's two-cut laws
    cf._cut_law.cache_clear()
    suite_conjecture_b()
    solved = cf._cut_law.cache_info().misses
    suite_tables()
    assert cf._cut_law.cache_info().misses == solved
