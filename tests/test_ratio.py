from fractions import Fraction

from hypothesis import given, strategies as st

from weyltasep.ratio import exact_sum, fmt_ratio, parse_ratio


@given(st.fractions())
def test_parse_inverts_fmt(x):
    assert parse_ratio(fmt_ratio(x)) == x



@given(st.lists(st.one_of(st.fractions(), st.integers())))
def test_exact_sum_equals_fraction_sum(values):
    total = exact_sum(values)
    assert isinstance(total, Fraction)
    assert total == sum(values, Fraction(0))
