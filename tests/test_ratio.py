from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import oracles
from weyltasep.ratio import exact_sum, fmt_ratio, inverse_power_sum, inverse_powers, parse_ratio


@given(st.fractions())
def test_parse_inverts_fmt(x):
    assert parse_ratio(fmt_ratio(x)) == x



@given(st.lists(st.one_of(st.fractions(), st.integers())))
def test_exact_sum_equals_fraction_sum(values):
    total = exact_sum(values)
    assert isinstance(total, Fraction)
    assert total == sum(values, Fraction(0))


# Nonzero rates of either sign, below and above 1, and terms whose exponent
# vectors may be all zero and whose multiplicities may be negative.
@st.composite
def power_sums(draw):
    rate = st.fractions(min_value=-5, max_value=5, max_denominator=12).filter(bool)
    rates = draw(st.lists(rate, min_size=1, max_size=4))
    vector = st.tuples(*[st.integers(0, 6)] * len(rates))
    terms = draw(st.lists(st.tuples(vector, st.integers(-20, 20)), max_size=8))
    return terms, rates


@given(power_sums())
def test_inverse_powers_match_fraction_products(case):
    terms, rates = case
    nums, den = inverse_powers([e for e, _ in terms], rates)
    assert set(nums) == {e for e, _ in terms}
    for e, num in nums.items():
        assert Fraction(num, den) == oracles.inverse_power_product(e, rates)


@given(power_sums())
def test_inverse_power_sum_matches_fraction_sum(case):
    terms, rates = case
    total = inverse_power_sum(terms, rates)
    assert isinstance(total, Fraction)
    assert total == oracles.inverse_power_sum(terms, rates)


def test_inverse_power_sum_edge_cases():
    half = Fraction(1, 2)
    assert inverse_power_sum([], (half,)) == 0
    assert inverse_powers([], (half, 3)) == ({}, 1)
    assert inverse_power_sum([((0, 0), -3)], (half, Fraction(-7, 2))) == -3
    # a zero rate is fine under exponent zero, and raises under a positive one
    assert inverse_power_sum([((0, 2), 1)], (Fraction(0), half)) == 4
    with pytest.raises(ZeroDivisionError):
        inverse_powers([(0, 2), (1, 0)], (Fraction(0), half))
