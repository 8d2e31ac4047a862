"""Exact integer and rational primitives."""

import re
from fractions import Fraction
from math import comb, factorial, gcd, lcm, log2

import pytest
from hypothesis import given
from hypothesis import strategies as st

import faults
from tau2.combinatorics import (
    HOLD_LIMIT,
    _denominator,
    _genus_error,
    _weight,
    _weights,
    double_factorial_odd,
    odd_lcm,
    rational_str,
)


class TestDoubleFactorialOdd:
    @pytest.mark.parametrize(
        "m,expected",
        [(-1, 1), (1, 1), (3, 3), (5, 15), (7, 105), (9, 945), (25, 7905853580625)],
    )
    def test_small_values(self, m, expected):
        assert double_factorial_odd(m) == expected

    @pytest.mark.parametrize("m", [0, 2, 8, -2])
    def test_even_rejected(self, m):
        with pytest.raises(ValueError):
            double_factorial_odd(m)

    @pytest.mark.parametrize("m", [-3, -5, -11])
    def test_below_minus_one_rejected(self, m):
        with pytest.raises(ValueError):
            double_factorial_odd(m)

    @given(st.integers(min_value=0, max_value=400))
    def test_matches_factorial_quotient(self, n):
        # (2n+1)!! = (2n+2)! / (2^(n+1) (n+1)!)
        expected = factorial(2 * n + 2) // (2 ** (n + 1) * factorial(n + 1))
        assert double_factorial_odd(2 * n + 1) == expected

    @given(st.integers(min_value=1, max_value=500))
    def test_two_step_product(self, n):
        m = 2 * n + 1
        assert double_factorial_odd(m) == m * double_factorial_odd(m - 2)

    def test_memo_is_consistent_after_large_query(self):
        big = double_factorial_odd(1999)
        assert double_factorial_odd(1997) * 1999 == big


class TestOddLcm:
    def test_is_the_lcm_of_the_odd_numbers(self):
        expected = 1  # lcm(1, 3, ..., n), one odd n at a time
        for n in range(1, 2402, 2):
            expected = lcm(expected, n)
            assert odd_lcm(n) == expected, n

    @pytest.mark.parametrize("n", [0, -1])
    def test_below_one_rejected(self, n):
        with pytest.raises(ValueError):
            odd_lcm(n)


class TestGenusError:
    """A genus below 1, or one whose sieve and rows would not fit in ``HOLD_LIMIT``, is refused."""

    def test_entry_bits_are_within_the_bound(self):
        for g in [*range(1, 40), *range(40, 2000, 37)]:
            n = _denominator(g, odd_lcm(2 * g + 1))
            assert n.bit_length() <= g * log2(24 * g) + 3 * g + 3, g

    def test_verify_entries_are_below_the_base_bound(self):
        # verify's wide numbers are (6g-1)!! times at most 2^g, below (6g)^(3g), as is N(g)
        for g in [*range(1, 40), *range(40, 2000, 37)]:
            assert double_factorial_odd(6 * g - 1) << g < (6 * g) ** (3 * g), g
            assert _denominator(g, odd_lcm(2 * g + 1)) < (6 * g) ** (3 * g), g
            assert ((6 * g) ** (3 * g)).bit_length() <= 3 * g * (6 * g).bit_length(), g

    def test_normalized_terms_are_within_the_bound(self):
        # M(g) = odd_lcm(6g-1) bounds both terms of a reduced normalized value
        for g in [*range(1, 40), *range(40, 2000, 37)]:
            assert odd_lcm(6 * g - 1).bit_length() <= 9 * g, g

    def test_verify_limit(self):
        # S on both paths, then P, the one-point terms, A and B (wide), at genera g-1 and g
        assert _genus_error("g-max", 1317, 12 * 1317, 0, 24 * 1317) is None
        assert _genus_error("g-max", 1318, 12 * 1318, 0, 24 * 1318) == (
            "g-max 1318 is too large: it would hold more than 256 MiB"
        )

    @pytest.mark.parametrize(
        "g,entries", [(1, 3), (300, 900), (1000, 3000), (1200, 4), (5000, 15000)]
    )
    def test_what_fits_passes(self, g, entries):
        assert _genus_error("g", g, entries) is None

    @pytest.mark.parametrize("g", [6000, 10**9, 10**18, 10**30])
    def test_a_row_too_large_is_refused(self, g):
        assert _genus_error("g", g, 3 * g) == f"g {g} is too large: it would hold more than 256 MiB"

    def test_the_sieve_alone_counts(self):
        assert _genus_error("g", HOLD_LIMIT // 2 - 1, 0) is None
        assert _genus_error("g", HOLD_LIMIT // 2, 0) is not None

    @pytest.mark.parametrize("g", [0, -1])
    def test_below_one_is_refused(self, g):
        assert _genus_error("g-max", g, 3) == f"g-max must be >= 1, got {g}"


class TestWeights:
    """W(k) has two implementations, stepped along a row (``table``, ``verify``) and
    multiplied out for one entry (``value``), each in lowest terms, and they agree
    at every entry.
    """

    def test_the_stepping_is_the_products_over_the_unit(self):
        for g in range(1, 61):
            lam = odd_lcm(2 * g + 1)
            products = [Fraction(*_weight(g, k)) / lam for k in range(3 * g)]
            expected = [(w.numerator, w.denominator) for w in products]
            assert list(_weights(g, 1, lam)) == expected, g

    def test_the_products_are_in_lowest_terms(self):
        for g in range(1, 61):
            for k in range(3 * g):
                assert gcd(*_weight(g, k)) == 1, (g, k)

    def test_value_cancels_the_unit_to_the_stepped_pair(self):
        # value's pair: L(g) cancelled against the numerator of W(k) = wn / wd alone
        for g in range(1, 61):
            lam = odd_lcm(2 * g + 1)
            for k, pair in enumerate(_weights(g, 1, lam)):
                wn, wd = _weight(g, k)
                d = gcd(wn, lam)
                assert (wn // d, wd * (lam // d)) == pair, (g, k)


class TestNormalizedTerms:
    """Both terms of a reduced a(g, k) = p/q are at most M(g) = odd_lcm(6g-1), over the whole row.

    The proof is in the ``combinatorics`` docstring; ``_genus_error`` sizes a
    normalized text by it, and a correlator text by N(g), which bounds every entry.
    """

    @pytest.mark.parametrize("g", [*range(1, 61), 300])
    def test_denominator_divides_m_and_numerator_is_at_most_it(self, g):
        m = odd_lcm(6 * g - 1)
        lam, row = faults.rows("closed", g)
        for k, s in enumerate(row):
            a = Fraction(*_weight(g, k)) * Fraction(s, lam)
            assert m % a.denominator == 0, (g, k)
            assert 0 < a.numerator <= a.denominator, (g, k)

    @pytest.mark.parametrize("g", [1, 2, 7, 40, 300])
    def test_row_entries_are_below_n(self, g):
        lam, row = faults.rows("closed", g)
        assert 0 < min(row) and max(row) < _denominator(g, lam)


class TestExactnessProof:
    """The steps of the exactness proof in the ``combinatorics`` docstring."""

    def test_unit_times_c_n_is_an_integer_to_1500(self):
        # v = L(n) c_n, c_n = 12^n n!^2/(2n+1)!, stepped by c_{n+1} = c_n 6(n+1)/(2n+3):
        # a zero remainder at each step makes every v an integer, from v = 1 at n = 0
        unit, v = 1, 1
        for n in range(1500):
            step = lcm(unit, 2 * n + 3) // unit
            unit *= step
            v, r = divmod(v * step * 6 * (n + 1), 2 * n + 3)
            assert r == 0, n + 1
        assert unit == odd_lcm(3001)

    @pytest.mark.parametrize("n", range(0, 1000, 7))
    def test_power_of_2_in_central_binomial_is_the_ones_of_n(self, n):
        c = comb(2 * n, n)
        assert (c & -c).bit_length() - 1 == bin(n).count("1")

    @pytest.mark.parametrize("n", range(13))
    def test_nair_sum(self, n):
        # the integral of x^n (1-x)^n over [0, 1], expanded in powers of x
        total = sum(Fraction((-1) ** i * comb(n, i), n + i + 1) for i in range(n + 1))
        assert total == Fraction(factorial(n) ** 2, factorial(2 * n + 1))
        assert (total * lcm(*range(1, 2 * n + 2))).denominator == 1


class TestRationalStr:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (Fraction(29, 5760), "29/5760"),
            (Fraction(3), "3"),
            (Fraction(0), "0"),
            (Fraction(-2, 11), "-2/11"),
            (Fraction(-7), "-7"),
        ],
    )
    def test_canonical_form(self, value, expected):
        assert rational_str(value) == expected


def _parse_canonical(text: str) -> Fraction:
    """Read ``text`` back as a rational if it is the spelling ``rational_str`` prints."""
    q = Fraction(text)
    if rational_str(q) != text:
        raise ValueError(f"not canonical: {text!r}")
    return q


class TestParseRational:
    """The text of ``value`` and ``table`` output reads back as exactly one rational."""

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("29/5760", Fraction(29, 5760)),
            ("3", Fraction(3)),
            ("0", Fraction(0)),
            ("-2/11", Fraction(-2, 11)),
            ("-7", Fraction(-7)),
        ],
    )
    def test_accepts_canonical(self, text, expected):
        assert _parse_canonical(text) == expected

    @pytest.mark.parametrize(
        "text",
        ["", " 1/2", "1/2 ", "1 /2", "+1/2", "1/-2", "1/0", "2/4", "1/1", "0/3", "1.5", "a/b"],
    )
    def test_rejects_non_canonical(self, text):
        with pytest.raises((ValueError, ZeroDivisionError)):
            _parse_canonical(text)

    @given(st.fractions())
    def test_round_trip(self, q):
        text = rational_str(q)
        assert re.fullmatch(r"-?\d+(/\d+)?", text)
        assert _parse_canonical(text) == q
        if "/" in text:
            p, d = (int(part) for part in text.split("/"))
            assert gcd(p, d) == 1
            assert d > 1
