"""Exact combinatorial primitives: odd double factorials, odd lcms, canonical p/q text.

Everything here is integer arithmetic with no rounding, built on Python's
arbitrary-precision ``int``.  A rational p/q reaches text through one rule,
``_ratio_str``: reduced by one gcd, "p/q" with q > 0, or "p" alone when the
reduced q is 1.  :func:`rational_str` applies it to a ``fractions.Fraction``
(or an ``int``) through its numerator and denominator.

Nothing is memoized: ``double_factorial_odd`` is a plain product, and
``odd_lcm(n) = lcm(1, 3, ..., n)`` is a sieve that takes each odd prime at its
largest power <= n.  The closed path sieves the unit L(g) = odd_lcm(2g+1) once
per row and the recursion once per run, and each hands it out with its
rows; from it, ``_denominator(g, L(g))`` is the one common denominator N(g) of
a genus g row.  The weight W(k), in lowest terms, has one implementation per
shape: ``_weights`` steps it along a row (``table``, ``verify``), ``_weight``
multiplies it out for one entry (``value``), faster there: 1.5 against 6.1 ms
at (1000, 1499), 0.87 against 1.91 s at (20000, 29999), on Python 3.11 and 2
vCPUs.  Factorials and binomials are ``math.factorial`` and ``math.comb``.
``_genus_error`` sizes what a command holds, for the one refusal of a genus
too large to hold, in ``cli.main``; ``_entry_error`` is the one bounds check
of an entry (g, k), which ``cli.main`` reports and the row sources raise
through ``_check_entry``.

Exactness.  Both computation paths divide with ``_exact``, which raises on a
remainder.  The quotient of each division by 2k+3 in ``closedform._t_half``
and by 2k+1 in ``recursion.genus_row`` is an entry S(g, k) = N(g) <tau_k
tau_{3g-1-k}>; every other division is exact by construction (the binomial
steps of ``closedform._scaled_q``, and L(g)/L(g-1)).  So both loops divide
exactly at genus g if and only if every S(g, .) is an integer, and it is, at
every genus:

- Integer form.  Dijkgraaf's two-point function (R. Dijkgraaf, "Intersection
  theory, integrable hierarchies and topological field theory", 1991),
  taken in degree 3g and multiplied by 24^g g!, reads

      24^g g! (w+z) row_g(w, z) = sum_{n=0..g} C(g,n) c_n (w^3+z^3)^(g-n) (wz(w+z))^n

  with c_n = 12^n n!^2/(2n+1)!.  As w^3+z^3 = (w+z)(w^2-wz+z^2), each term
  is divisible by w+z, so S(g, k) = sum_n C(g,n) (L(g) c_n) e(g,n,k) with
  integer coefficients e(g,n,k) (``tests/dijkgraaf.py`` evaluates it).  It
  suffices that L(g) c_n is an integer for every n <= g.
- Nair's lemma (M. Nair, Amer. Math. Monthly 89 (1982) 126-129).  The
  integral of x^n (1-x)^n over [0, 1] is n!^2/(2n+1)!, and expanding
  (1-x)^n gives sum_i (-1)^i C(n,i)/(n+i+1).  Each n+i+1 <= 2n+1, so
  lcm(1, ..., 2n+1) n!^2/(2n+1)! is an integer; at each odd prime, the
  power that lcm holds is the one that L(n) = odd_lcm(2n+1) holds.
- The 2-adic step.  The power of 2 in (2n+1)!/n!^2 is the one in C(2n,n),
  which by Kummer's theorem is the number of 1 bits of n, at most 2n; 12^n
  holds 2^(2n).  So L(n) c_n is an integer, and L(n) divides L(g) for n <= g.

``verification``'s A(g, k) = D(g) a(g, k) is an integer too: on the closed
rows it is D(g) plus the integers B(g, j) for j < k, and by symmetry past the
middle.  An ``ArithmeticError`` from ``_exact`` is therefore a program fault,
never a genus out of range.

Normalized values.  A reduced a(g, k) = p/q has 0 < p <= q (0 < a <= 1), and q
divides M(g) = odd_lcm(6g-1): a(g, k) = 1 + b(g, 0) + ... + b(g, k-1), b(g, j) =
q(g, j) C(3g, j+1) / C(6g, 2j+2), and each prime power in C(6g, m) is at most 6g
(Kummer), and a(g, k) = a(g, 3g-1-k); q is odd, as D(g) a(g, k) is an integer.
"""

from __future__ import annotations

import math
from math import gcd, isqrt, prod

from . import _LAYERS

__all__ = _LAYERS["combinatorics"].split()


def _exact(n: int, d: int, g: int, k: int) -> int:
    """n / d, raising ``ArithmeticError`` that names the locus (g, k) on a remainder."""
    q, r = divmod(n, d)
    if r:
        raise ArithmeticError(f"inexact division at ({g},{k}): remainder {r} mod {d}")
    return q


def _entry_error(g: int, k: int | None = None) -> str | None:
    """The error for entry k of a genus g row, None when g >= 1 and, given k, 0 <= k <= 3g-1."""
    if g < 1:
        return f"genus must be >= 1, got {g}"
    if k is not None and not 0 <= k <= 3 * g - 1:
        return f"k must be in 0..{3 * g - 1} at genus {g}, got {k}"
    return None


def _check_entry(g: int, k: int | None = None) -> None:
    """ValueError with ``_entry_error``'s message unless (g, k) is entry k of a genus g row."""
    if error := _entry_error(g, k):
        raise ValueError(error)


def double_factorial_odd(m: int) -> int:
    """Return m!! = m*(m-2)*...*3*1 for odd m >= -1, with (-1)!! == 1.

    Even or smaller arguments are programming errors, not a convention to be
    extended, and raise ``ValueError``.
    """
    if m < -1 or m % 2 == 0:
        raise ValueError(f"double_factorial_odd requires odd m >= -1, got {m}")
    return prod(range(m, 0, -2))


def odd_lcm(n: int) -> int:
    """lcm(1, 3, 5, ..., n) of the odd numbers up to n >= 1.

    The product over odd primes p <= n of the largest power of p that is <= n.
    """
    if n < 1:
        raise ValueError(f"odd_lcm requires n >= 1, got {n}")
    composite = bytearray(n + 1)
    result = 1
    root = isqrt(n)
    for p in range(3, root + 1, 2):
        if not composite[p]:
            composite[p * p :: 2 * p] = b"\x01" * len(range(p * p, n + 1, 2 * p))
            power = p
            while power * p <= n:
                power *= p
            result *= power
    # each odd prime above the square root divides the lcm once
    return result * prod(p for p in range(root + 1 | 1, n + 1, 2) if not composite[p])


def _denominator(g: int, lam: int) -> int:
    """N(g) = 24^g g! L(g), the denominator of a genus g integer row S(g, .), from lam = L(g)."""
    return 24**g * math.factorial(g) * lam


# bytes that one command may hold in its odd_lcm sieve, numbers and texts: 256 MiB
HOLD_LIMIT = 1 << 28


def _genus_error(name: str, g: int, numbers: int, texts: int = 0, wide: int = 0) -> str | None:
    """The usage error for ``--name g`` in a command that holds what its counts say, or None.

    g must be >= 1, and these must fit in ``HOLD_LIMIT``: the ``odd_lcm(2g+1)``
    sieve of 2g+2 bytes, ``numbers`` numbers of N(g)'s size, ``texts`` pairs of a
    correlator text (terms up to N(g)) and its normalized text (up to M(g)), and
    ``wide`` numbers below (6g)^(3g).  N(g) has at most g log2(24g) + 3g + 3 bits
    and M(g) at most 9g (Rosser and Schoenfeld's psi(x) < 1.03883 x).  An int
    takes 4 bytes per 30 bits plus 40 for its header and list slot, and a text a
    byte per digit, at most one per 3 bits of each term, plus 50.
    """
    if g < 1:
        return f"{name} must be >= 1, got {g}"
    n, m = g * ((24 * g).bit_length() + 3) + 3, 9 * g  # bits of N(g) and of M(g)
    held = numbers * (n // 30 * 4 + 40) + texts * (2 * (n // 3 + m // 3) + 104)
    if 2 * g + 2 + held + wide * (3 * g * (6 * g).bit_length() // 30 * 4 + 40) > HOLD_LIMIT:
        return f"{name} {g} is too large: it would hold more than {HOLD_LIMIT >> 20} MiB"
    return None


def _weight(g: int, k: int) -> tuple[int, int]:
    """W(k) = (2k+1)!! (6g-1-2k)!! / (6g-1)!! = W(3g-1-k), so that a(g, k) = W(k) S(g, k) / L(g).

    With m = min(k, 3g-1-k), the pair (3 * 5 * ... * (2m+1), (6g-1) (6g-3) ... (6g+1-2m))
    in lowest terms.
    """
    m = min(k, 3 * g - 1 - k)
    wn, wd = prod(range(3, 2 * m + 2, 2)), prod(range(6 * g - 1, 6 * g - 1 - 2 * m, -2))
    return wn // (d := gcd(wn, wd)), wd // d


def _weights(g: int, wn: int, wd: int) -> Iterator[tuple[int, int]]:
    """(wn/wd) W(k) in lowest terms, as a pair, for k = 0..3g-1, from wn/wd in lowest terms."""
    for k in range(3 * g):
        yield wn, wd
        # W(k+1) = W(k) (2k+3)/(6g-1-2k): the ratio in lowest terms, then crosswise
        e = gcd(2 * k + 3, 6 * g - 1 - 2 * k)
        up, down = (2 * k + 3) // e, (6 * g - 1 - 2 * k) // e
        x, y = gcd(up, wd), gcd(down, wn)
        wn, wd = wn // y * (up // x), wd // x * (down // y)


def _ratio_str(p: int, q: int, c: int = 1) -> str:
    """Canonical text of c p / q, for q > 0 and c prime to q, reduced by one gcd of p and q.

    c lets a caller that knows a factor prime to q leave it out of the gcd.
    """
    d = gcd(p, q)
    p, q = c * (p // d), q // d
    return str(p) if q == 1 else f"{p}/{q}"


def rational_str(x: Fraction | int) -> str:
    """Canonical text form of an exact rational.

    Lowest terms, ASCII, "p/q" with q > 0, or just "p" when q == 1; the sign
    sits on the numerator.  Examples: "29/5760", "-2/11", "1".
    """
    return _ratio_str(x.numerator, x.denominator)
