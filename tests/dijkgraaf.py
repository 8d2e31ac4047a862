"""A third evaluator of the two-point correlators, from Dijkgraaf's generating function.

R. Dijkgraaf, "Intersection theory, integrable hierarchies and topological
field theory" (1991), summed over all genera:

    (w+z) sum_{a,b} <tau_a tau_b> w^a z^b
        = exp((w^3+z^3)/24) sum_{n>=0} n!/(2n+1)! (wz(w+z)/2)^n.

Take the part of degree 3g and multiply by 24^g g!.  With
c_n = 12^n n!^2/(2n+1)! it reads

    24^g g! (w+z) row_g = sum_{n=0..g} C(g,n) c_n (w^3+z^3)^(g-n) (wz(w+z))^n,

and each term is divisible by w+z on its own.  So, with L(g) = lcm(1, 3, ...,
2g+1) and N(g) = 24^g g! L(g),

    S(g, k) = N(g) <tau_k tau_{3g-1-k}> = sum_n C(g,n) (L(g) c_n) e(g,n,k),

where e(g,n,k) is the coefficient of w^k z^(3g-1-k) in the quotient:

    n >= 1:  (wz)^n (w+z)^(n-1) (w^3+z^3)^(g-n),
             e = sum_i C(g-n, i) C(n-1, k-n-3i);
    n = 0:   (w^3+z^3)^g / (w+z),
             e = sum_{3i <= k} (-1)^(k-i) C(g, i).

Every factor is an integer: L(g) c_n is one for n <= g (the proof is in the
``tau2.combinatorics`` docstring), and each division below is checked.  This
module imports nothing from tau2: it is an oracle, not a third path of the
program.  The inner binomials are stepped by their ratios, so one entry at
g = 1000 costs well under a second.
"""

from math import comb, lcm


def _exact(n: int, d: int) -> int:
    q, r = divmod(n, d)
    assert r == 0, (n, d)
    return q


def _e(g: int, n: int, k: int) -> int:
    """Coefficient e(g, n, k) of w^k z^(3g-1-k) in the n-th term over w+z."""
    if n == 0:
        return sum((-1) ** (k - i) * comb(g, i) for i in range(min(g, k // 3) + 1))
    # m = k-n-3i runs over 0..n-1 as i runs over lo..hi
    lo, hi = max(0, -((2 * n - 1 - k) // 3)), min(g - n, (k - n) // 3)
    if lo > hi:
        return 0
    m = k - n - 3 * lo
    a, b = comb(g - n, lo), comb(n - 1, m)
    total = a * b
    for i in range(lo, hi):
        # C(g-n, i+1) from C(g-n, i); C(n-1, m-3) from C(n-1, m)
        a = _exact(a * (g - n - i), i + 1)
        b = _exact(b * m * (m - 1) * (m - 2), (n - m + 2) * (n - m + 1) * (n - m))
        m -= 3
        total += a * b
    return total


def _weights(g: int) -> list[int]:
    """C(g, n) L(g) c_n for n = 0..g, each stepped from the one before by its ratio."""
    binom, lc = 1, lcm(*range(1, 2 * g + 2, 2))  # C(g, n) and L(g) c_n at n = 0
    out = [lc]
    for n in range(g):
        binom = _exact(binom * (g - n), n + 1)
        lc = _exact(lc * 6 * (n + 1), 2 * n + 3)  # c_{n+1} = c_n 6(n+1)/(2n+3)
        out.append(binom * lc)
    return out


def two_point(g: int, k: int) -> int:
    """S(g, k) = N(g) <tau_k tau_{3g-1-k}> for g >= 1 and 0 <= k <= 3g-1."""
    assert g >= 1 and 0 <= k <= 3 * g - 1, (g, k)
    return sum(w * _e(g, n, k) for n, w in enumerate(_weights(g)))


def row(g: int) -> tuple[int, ...]:
    """S(g, 0), ..., S(g, 3g-1)."""
    weights = _weights(g)
    return tuple(sum(w * _e(g, n, k) for n, w in enumerate(weights)) for k in range(3 * g))
