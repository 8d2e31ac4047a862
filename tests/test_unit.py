"""Both paths carry S(g, k) = T(g, k) L(g) / D(g), rebuilt here from scratch.

T(g, k) = 24^g g! D(g) <tau_k tau_{3g-1-k}> over D(g) = (6g-1)!! is the
unit that provably keeps the genus recursion integral.  The rows T are
rebuilt below by that recursion with ``math`` only, sharing no code with
tau2, and rescaled by L(g) / D(g) with L(g) = lcm(1, 3, ..., 2g+1).
"""

from functools import partial
from math import comb, lcm, prod

import pytest

import faults
from tau2 import closedform, combinatorics, recursion


def odd_df(m):
    return prod(range(m, 0, -2))


def t_rows(g_max):
    """T(1, .), ..., T(g_max, .) by the genus recursion on (6g-1)!!."""
    row = (15, 15, 15)
    yield row
    for g in range(2, g_max + 1):
        d = odd_df(6 * g - 1)
        c = 4 * g * (6 * g - 1) * (6 * g - 3) * (6 * g - 5)
        b = (0, 0, 0, 0, *row, 0, 0)
        row = [d]
        for k in range(1, 3 * g):
            rhs = (2 * g - 1 - 2 * k) * row[-1]
            rhs += c * (b[k] + 3 * b[k + 1] + 3 * b[k + 2] + b[k + 3])
            if k % 3 == 0:
                rhs += d * comb(g, k // 3)
            t, r = divmod(rhs, 2 * k + 1)
            assert r == 0, (g, k)
            row.append(t)
        row = tuple(row)
        yield row


def s_row(g, t_row):
    unit, d = lcm(*range(1, 2 * g + 2, 2)), odd_df(6 * g - 1)
    out = []
    for t in t_row:
        s, r = divmod(t * unit, d)
        assert r == 0, g
        out.append(s)
    return tuple(out)


def test_both_paths_are_t_rescaled_to_genus_150():
    for g, (t, (lam, row)) in enumerate(zip(t_rows(150), faults.walk("recursive", 150)), start=1):
        expected = s_row(g, t)
        assert row == expected, g
        closed_lam, closed = faults.rows("closed", g)
        assert closed == expected, g
        assert closed_lam == lam, g


@pytest.mark.parametrize("g_max,k", [(150, None), (122, 1), (171, 2), (300, 0), (1000, 40)])
def test_each_unit_is_the_odd_lcm(g_max, k):
    # the full rows to 150, and cones that start high: the recursion sieves its first
    # row's unit and steps L(h) = lcm(L(h-1), 2h+1), and 2h+1 = 243 at h = 121 and 343
    # at h = 171, where L(h) gains a prime power
    rows = list(faults.walk("recursive", g_max, k))
    for h, (lam, _) in enumerate(rows, start=g_max + 1 - len(rows)):
        assert lam == lcm(*range(1, 2 * h + 2, 2)), h


@pytest.mark.parametrize("path", ["closed", "recursive", "_check_entry"])
@pytest.mark.parametrize(
    "g,k,message",
    [
        (0, None, "genus must be >= 1, got 0"),
        (-2, None, "genus must be >= 1, got -2"),
        (0, 0, "genus must be >= 1, got 0"),
        (3, -1, "k must be in 0..8 at genus 3, got -1"),
        (3, 9, "k must be in 0..8 at genus 3, got 9"),
    ],
)
def test_row_sources_refuse_what_is_off_the_row(path, g, k, message):
    # each raises the message of _entry_error, which cli.main prints for value's off-row --k
    refuse = combinatorics._check_entry if path == "_check_entry" else partial(faults.rows, path)
    with pytest.raises(ValueError) as refused:
        refuse(g, k)
    assert str(refused.value) == message == combinatorics._entry_error(g, k)


def test_closed_loop_is_exact_to_genus_300():
    for g in range(1, 301):
        half = tuple(closedform._t_half(g, lcm(*range(1, 2 * g + 2, 2))))
        assert len(half) == (3 * g - 1) // 2 + 1


def test_closed_loop_is_exact_at_large_genera():
    for g in (1000, 1200, 2000):
        *_, last = closedform._t_half(g, lcm(*range(1, 2 * g + 2, 2)))
        assert last > 0


def test_row_sources_share_one_contract_to_genus_40():
    # (L(g), the full row) without k, and (L(g), S(g, k)) with k, an int, on both sources
    for g in range(1, 41):
        assert recursion.recursive_row(g) == closedform.two_point_closed(g), g
        for k in range(3 * g):
            got = recursion.recursive_row(g, k)
            assert type(got[1]) is int and got == closedform.two_point_closed(g, k), (g, k)
