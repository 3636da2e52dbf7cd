from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from optshare import money
from optshare.gamefiles import money_str
from optshare.harness import CellStats
from optshare.money import (
    INFINITE_BID,
    MAX_MONEY_CHARS,
    MAX_MONEY_EXPONENT,
    parse_money,
    render_decimal,
    render_exact,
    render_ratio,
    render_ratio_sqrt,
)

from oracles import parse_exact, reference_render_decimal, reference_render_decimal_sqrt, render_decimal_sqrt

F = Fraction


def test_parse_decimal_strings_exactly():
    assert parse_money("2.51") == F(251, 100)
    assert parse_money("0.000001") == F(1, 10**6)
    assert parse_money("100") == F(100)
    assert parse_money("1/3") == F(1, 3)


def test_parse_money_takes_exponents_within_the_bound():
    assert parse_money("1e-6") == F(1, 10**6)
    assert parse_money(f"2.5E+{MAX_MONEY_EXPONENT}") == F(5, 2) * 10**MAX_MONEY_EXPONENT
    assert parse_money(1e-07) == F(1, 10**7)  # a JSON number reads as a float


@pytest.mark.parametrize(
    "text",
    ["1e400", "1E-400", f"5e{MAX_MONEY_EXPONENT + 1}", "1e99999999999999999999", "0." + "1" * MAX_MONEY_CHARS],
)
def test_parse_money_rejects_huge_text_before_building_a_number(monkeypatch, text):
    def never(*args):
        raise AssertionError("a number was built")

    monkeypatch.setattr(money, "Fraction", never)
    with pytest.raises(ValueError, match="beyond"):
        parse_money(text)


def test_parse_money_names_the_text_it_cannot_read():
    for text in ("cheap", "1e", "1/0", "1ex5"):
        with pytest.raises(ValueError, match="not a money value"):
            parse_money(text)


def test_render_decimal_round_half_even():
    assert render_decimal(F(1, 2), 0) == "0"
    assert render_decimal(F(3, 2), 0) == "2"
    assert render_decimal(F(5, 10**10)) == "0.000000000"
    assert render_decimal(F(15, 10**10)) == "0.000000002"
    assert render_decimal(F(-1, 3)) == "-0.333333333"
    assert render_decimal(F(2, 3)) == "0.666666667"


def test_render_decimal_sqrt():
    assert render_decimal_sqrt(F(4)) == "2.000000000"
    assert render_decimal_sqrt(F(1, 4)) == "0.500000000"
    assert render_decimal_sqrt(F(2), 3) == "1.414"
    assert render_decimal_sqrt(F(0)) == "0.000000000"


def test_infinite_bid_dominates_everything():
    assert INFINITE_BID > F(10**30)
    assert not (INFINITE_BID <= F(10**30))


@given(st.fractions(min_value=0, max_value=1000))
def test_exact_round_trip(x):
    assert parse_exact(render_exact(x)) == x
    assert parse_money(money_str(x)) == x


@given(st.integers(min_value=0, max_value=10**12), st.integers(min_value=0, max_value=9))
def test_decimal_string_round_trip(n, digits):
    # any decimal with <= 9 fractional digits survives parse -> render
    value = F(n, 10**digits)
    assert parse_money(render_decimal(value)) == value


@given(
    st.fractions(min_value=-100, max_value=100),
    st.fractions(min_value=-100, max_value=100),
)
def test_addition_is_exact(a, b):
    assert (a + b) - b == a


@given(st.fractions(min_value=0, max_value=10000))
def test_sqrt_rendering_is_correctly_rounded(x):
    text = render_decimal_sqrt(x, 6)
    approx = F(text)
    half_ulp = F(1, 2 * 10**6)
    assert max(approx - half_ulp, F(0)) ** 2 <= x <= (approx + half_ulp) ** 2


# The integer renderers take (num, den) unreduced, as a cell's sums give them.
big = st.integers(1, 10**30)


@given(num=st.integers(-(10**30), 10**30), den=big, common=st.integers(1, 10**6), digits=st.integers(0, 12))
def test_render_ratio_equals_the_fraction_renderer(num, den, common, digits):
    want = reference_render_decimal(F(num, den), digits)
    assert render_ratio(num * common, den * common, digits) == want
    assert render_decimal(F(num, den), digits) == want


@given(num=st.integers(0, 10**30), den=big, common=st.integers(1, 10**6), digits=st.integers(0, 12))
def test_render_ratio_sqrt_equals_the_fraction_renderer(num, den, common, digits):
    want = reference_render_decimal_sqrt(F(num, den), digits)
    assert render_ratio_sqrt(num * common, den * common, digits) == want
    assert render_decimal_sqrt(F(num, den), digits) == want


@given(root=st.fractions(min_value=0, max_value=10**6), common=st.integers(1, 10**6))
def test_render_ratio_sqrt_of_exact_squares(root, common):
    num, den = root.numerator**2 * common, root.denominator**2 * common
    assert render_ratio_sqrt(num, den) == reference_render_decimal_sqrt(root**2) == render_decimal(root)


@given(y=st.integers(0, 10**15), common=st.integers(1, 10**6))
def test_render_ratio_sqrt_breaks_ties_at_nine_digits_to_even(y, common):
    # sqrt is exactly (2y + 1) / (2 * 10**9): half-way between y and y + 1 units
    num, den = (2 * y + 1) ** 2 * common, 4 * 10**18 * common
    text = render_ratio_sqrt(num, den)
    assert text == reference_render_decimal_sqrt(F(num, den))
    assert int(text.replace(".", "")) == y + y % 2


@given(
    st.lists(
        st.tuples(st.integers(-(10**12), 10**12), st.integers(-(10**12), 10**12), st.integers(1, 10**8), st.booleans()),
        min_size=1,
        max_size=12,
    )
)
def test_cell_columns_equal_the_fraction_renderers(trials):
    cell = CellStats()
    for trial in trials:
        cell.add(*trial)
    assert cell.columns() == (
        reference_render_decimal(cell.mean_utility),
        reference_render_decimal_sqrt(cell.var_utility),
        reference_render_decimal(cell.mean_balance),
        reference_render_decimal_sqrt(cell.var_balance),
        reference_render_decimal(cell.implemented_rate),
    )
