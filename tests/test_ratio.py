from hypothesis import given, strategies as st

from weyltasep.ratio import fmt_ratio, parse_ratio


@given(st.fractions())
def test_parse_inverts_fmt(x):
    assert parse_ratio(fmt_ratio(x)) == x

