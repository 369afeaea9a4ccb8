"""Closed-form counting functions and the inequality lemmas behind the
induction bookkeeping.

Everything here is exact integer arithmetic.  The central quantities, for
bidegree (c,d) on P^m x P^n:

* ``r_up`` / ``r_down``: ceil resp. floor of (number of monomials)/(m+n+1),
  the critical numbers of 2-fat points;
* ``k_up`` / ``k_down``: the same minus (m+n+1), i.e. the number of 2-fat
  points left after splitting off one hyperplane's worth.

A factor of dimension 0 is allowed as a degenerate boundary value: it
contributes a factor 1 to the monomial count and nothing to the ambient
dimension.

A lemma is a predicate registered with its domain, the argument tuples of
its hypothesis range up to a bound, by ``@_lemma(lemma_id, domain)``; the
predicate's docstring states the lemma.  ``verify_lemma`` sweeps one lemma
over its range (clipped to a bound) and returns the list of
counterexamples, which must be empty.
"""
from __future__ import annotations

from math import comb
from typing import Callable, Iterable

from .schemes import conditions_of_fat_point


def multi_binom(c: int, d: int, m: int, n: int) -> int:
    """Number of monomials of bidegree (c,d) on P^m x P^n.

    Degenerate boundary values m, n in {-1, 0} are allowed so that the
    recursions below can reference them: dimension 0 contributes a factor
    1, dimension -1 contributes 0 (an empty space has no monomials)."""
    if m < -1 or n < -1 or m + n + 1 < 1:
        raise ValueError("factor dimensions out of range")
    return comb(m + c, c) * comb(n + d, d)


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def r_up(c: int, d: int, m: int, n: int) -> int:
    return _ceil_div(multi_binom(c, d, m, n), m + n + 1)


def r_down(c: int, d: int, m: int, n: int) -> int:
    return multi_binom(c, d, m, n) // (m + n + 1)


def k_up(c: int, d: int, m: int, n: int) -> int:
    return r_up(c, d, m, n) - (m + n + 1)


def k_down(c: int, d: int, m: int, n: int) -> int:
    return r_down(c, d, m, n) - (m + n + 1)


# derived point counts used by the induction steps ----------------------


def f(m: int, n: int) -> int:
    return 1 + k_up(3, 3, m, n) - k_up(3, 3, m - 1, n)


def ell(m: int, n: int) -> int:
    return k_down(3, 3, m, n) - k_down(3, 3, m - 1, n)


def s(n: int) -> int:
    """n(n+3)/2 general 2-fat points fill bidegree (2,3) on P^1 x P^n."""
    return n * (n + 3) // 2


def b(n: int) -> int:
    return k_down(3, 3, 2, n) - k_down(3, 3, 2, n - 1)


def u(m: int, n: int) -> int:
    return k_up(3, 4, m, n) - k_up(3, 4, m, n - 1)


def h(m: int, n: int) -> int:
    return 1 + k_down(3, 4, m, n) - k_down(3, 4, m, n - 1)


def v(n: int) -> int:
    return 10 * (n + 1) - (n + 3) * (1 + b(n)) + (n + 2) * b(n - 1)


def w(m: int, n: int) -> int:
    return k_up(4, 4, m, n) - k_up(4, 4, m - 1, n)


def j(m: int) -> int:
    return k_down(3, 4, m, 2) - k_down(3, 4, m - 1, 2)


def vdim_profile(c, d, m, n, profile: Iterable[tuple[int, int]]) -> int:
    """Virtual dimension of bidegree (c,d) on P^m x P^n with `count` points
    of each multiplicity; profile entries are (multiplicity, count).
    vdim_profile(0, d, 0, n, profile) is degree d on a single P^n."""
    N = m + n
    return multi_binom(c, d, m, n) - sum(
        count * conditions_of_fat_point(mult, N) for mult, count in profile
    )


# --- lemma registry -----------------------------------------------------


_REGISTRY: dict[str, tuple[Callable, Callable]] = {}  # id -> (domain, predicate)


def _lemma(lemma_id, domain):
    def deco(fn):
        _REGISTRY[lemma_id] = (domain, fn)
        return fn

    return deco


def _grid(m_lo, n_lo, square=False):
    """Domain helper: pairs (m, n) with m >= m_lo, n >= n_lo, and n >= m
    when square is set."""

    def dom(bound):
        return [
            (m, n)
            for m in range(m_lo, bound + 1)
            for n in range(max(n_lo, m if square else n_lo), bound + 1)
        ]

    return dom


def _line(lo):
    def dom(bound):
        return [(n,) for n in range(lo, bound + 1)]

    return dom


@_lemma("easy-hypotheses", _grid(1, 1))
def _easy_hypotheses(m, n):
    """for c,d >= 3 the ambient system has at least (m+n+1)^2 monomials and a
    3-fat point leaves C(N+1,2) more dimensions than a 4-fat point"""
    N = m + n
    ok = True
    for c, d in ((3, 3), (3, 4), (4, 3), (4, 4)):
        ok &= multi_binom(c, d, m, n) >= (N + 1) ** 2
    gap = conditions_of_fat_point(4, N) - conditions_of_fat_point(3, N)
    ok &= gap >= comb(N + 1, 2)
    return ok


@_lemma("kup33-growth", _grid(2, 2, square=True))
def _kup33_growth(m, n):
    """k_up(3,3;m,n)-k_up(3,3;m-1,n) >= ceil((m+1)/(m+n+1)*C(n+3,3)) + m for
    2<=m<=n"""
    lhs = k_up(3, 3, m, n) - k_up(3, 3, m - 1, n)
    return lhs >= _ceil_div((m + 1) * comb(n + 3, 3), m + n + 1) + m


@_lemma("f-residue-vdim", _grid(1, 1))
def _f_residue_vdim(m, n):
    """vdim of (2,3) with f(m,n) 2-fat points leaves at least
    k_up(3,3;m-1,n)"""
    return vdim_profile(2, 3, m, n, [(2, f(m, n))]) >= k_up(3, 3, m - 1, n)


@_lemma("31-kup-diff-empty", _line(2))
def _31_kup_diff_empty(n):
    """vdim of (3,1) on P^1 x P^n with one simple point and
    k_up(3,3;1,n)-k_up(3,3;1,n-1) 2-fat points is <= 0"""
    diff = k_up(3, 3, 1, n) - k_up(3, 3, 1, n - 1)
    return vdim_profile(3, 1, 1, n, [(1, 1), (2, diff)]) <= 0


@_lemma("ell-f-monotone", _grid(2, 2, square=True))
def _ell_f_monotone(m, n):
    """the ell and f increments are enough 2-fat points to kill degree 3 on
    P^n; in particular ell and f are nondecreasing in m"""
    d_ell = ell(m, n) - ell(m - 1, n)
    d_f = f(m, n) - f(m - 1, n)
    ok = vdim_profile(0, 3, 0, n, [(1, 1), (2, d_ell)]) <= 0
    ok &= ell(m, n) >= ell(m - 1, n)
    ok &= vdim_profile(0, 3, 0, n, [(2, d_f)]) <= 0
    ok &= f(m, n) >= f(m - 1, n)
    return ok


@_lemma("f-vdim-nonneg", _grid(2, 2, square=True))
def _f_vdim_nonneg(m, n):
    """vdim of (2,3) with f(m,n) 2-fat points is >= 0"""
    return vdim_profile(2, 3, m, n, [(2, f(m, n))]) >= 0


@_lemma("f-ell-upper", _grid(2, 2, square=True))
def _f_ell_upper(m, n):
    """f and 1+ell increments are at most floor((m+1)/(m+n+1)*C(n+3,3)) - m"""
    ub = (m + 1) * comb(n + 3, 3) // (m + n + 1) - m
    return (f(m, n) - f(m - 1, n) <= ub) and (1 + ell(m, n) - ell(m - 1, n) <= ub)


@_lemma("13-f-diff-lower", _grid(2, 2, square=True))
def _13_f_diff_lower(m, n):
    """vdim of (1,3) with f(m,n)-f(m-1,n) 2-fat points is >= f(m-1,n)"""
    return vdim_profile(1, 3, m, n, [(2, f(m, n) - f(m - 1, n))]) >= f(m - 1, n)


@_lemma("23-triple-ell", _grid(2, 2, square=True))
def _23_triple_ell(m, n):
    """vdim of (2,3) with a 3-fat point and ell(m,n) 2-fat points is <=
    k_down(3,3;m-1,n)"""
    return vdim_profile(2, 3, m, n, [(3, 1), (2, ell(m, n))]) <= k_down(
        3, 3, m - 1, n
    )


@_lemma("23-ell-lower", _grid(2, 2, square=True))
def _23_ell_lower(m, n):
    """1+ell(m,n) >= ceil((m+1)/(m+n+1)*C(n+3,3)) + m"""
    return 1 + ell(m, n) >= _ceil_div((m + 1) * comb(n + 3, 3), m + n + 1) + m


@_lemma("32-quadruple-b", _line(2))
def _32_quadruple_b(n):
    """vdim of (3,2) on P^2 x P^n with a 3-fat point and b(n) 2-fat points is
    <= k_down(3,3;2,n-1)"""
    return vdim_profile(3, 2, 2, n, [(3, 1), (2, b(n))]) <= k_down(3, 3, 2, n - 1)


@_lemma("31-b-lower", _line(2))
def _31_b_lower(n):
    """1+b(n) >= ceil(10(n+1)/(n+3)) + n"""
    return 1 + b(n) >= _ceil_div(10 * (n + 1), n + 3) + n


@_lemma("13-ell-diff-lower", _grid(2, 2, square=True))
def _13_ell_diff_lower(m, n):
    """vdim of (1,3) with 1+ell(m,n)-ell(m-1,n) 2-fat points is >=
    ell(m-1,n)"""
    return vdim_profile(1, 3, m, n, [(2, 1 + ell(m, n) - ell(m - 1, n))]) >= ell(
        m - 1, n
    )


@_lemma("s-upper", _line(3))
def _s_upper(n):
    """1+ell(2,n)-s(n) <= floor(3/(n+3)*C(n+3,3)) - 2"""
    return 1 + ell(2, n) - s(n) <= 3 * comb(n + 3, 3) // (n + 3) - 2


@_lemma("s-below-ell", _line(3))
def _s_below_ell(n):
    """ell(2,n)-s(n) >= ceil((C(n+3,3)-1)/(n+1)); hence s(n) <= ell(2,n) and
    the excess 2-fat points kill degree 3 on P^n"""
    ok = ell(2, n) - s(n) >= _ceil_div(comb(n + 3, 3) - 1, n + 1)
    ok &= s(n) <= ell(2, n)
    ok &= vdim_profile(0, 3, 0, n, [(1, 1), (2, ell(2, n) - s(n))]) <= 0
    return ok


@_lemma("13-s-lower", _line(3))
def _13_s_lower(n):
    """vdim of (1,3) on P^2 x P^n with 1+ell(2,n)-s(n) 2-fat points is >=
    s(n)"""
    return vdim_profile(1, 3, 2, n, [(2, 1 + ell(2, n) - s(n))]) >= s(n)


@_lemma("b-mod3", _line(3))
def _b_mod3(n):
    """b(n)-b(n-1) is 4 when n = 1 mod 3 and 3 otherwise; b(n)-b(n-3) = 10"""
    step = 4 if n % 3 == 1 else 3
    ok = b(n) - b(n - 1) == step
    if n >= 4:
        ok &= b(n) - b(n - 3) == 10
    return ok


@_lemma("v-mod3", _line(4))
def _v_mod3(n):
    """v(n)-v(n-3) is 5 when n = 1 mod 3 and 8 otherwise"""
    step = 5 if n % 3 == 1 else 8
    return v(n) - v(n - 3) == step


@_lemma("33-u-lower", _grid(1, 1))
def _33_u_lower(m, n):
    """vdim of (3,3) with 1+u(m,n) 2-fat points is >= k_up(3,4;m,n-1)"""
    return vdim_profile(3, 3, m, n, [(2, 1 + u(m, n))]) >= k_up(3, 4, m, n - 1)


@_lemma("32-u-empty", _grid(1, 1))
def _32_u_empty(m, n):
    """vdim of (3,2) with one simple and u(m,n) 2-fat points is <= 0"""
    return vdim_profile(3, 2, m, n, [(1, 1), (2, u(m, n))]) <= 0


@_lemma("24-kup34-upper", _line(1))
def _24_kup34_upper(m):
    """1+k_up(3,4;m,1)-k_up(3,4;m-1,1) <= 2(m+1)"""
    return 1 + k_up(3, 4, m, 1) - k_up(3, 4, m - 1, 1) <= 2 * (m + 1)


@_lemma("u-mx1-lower", _line(1))
def _u_mx1_lower(m):
    """u(m,1) >= ceil(3*C(m+3,3)/(m+2))"""
    return u(m, 1) >= _ceil_div(3 * comb(m + 3, 3), m + 2)


@_lemma("34-mx1-vdims", _line(1))
def _34_mx1_vdims(m):
    """on P^m x P^1: (2,4) with 1+k_up(3,4;m,1)-k_up(3,4;m-1,1) 2-fat points
    has vdim >= k_up(3,4;m-1,1); (1,4) with the same number of 2-fat points and
    a simple point has vdim <= 0"""
    diff = k_up(3, 4, m, 1) - k_up(3, 4, m - 1, 1)
    ok = vdim_profile(2, 4, m, 1, [(2, 1 + diff)]) >= k_up(3, 4, m - 1, 1)
    ok &= vdim_profile(1, 4, m, 1, [(1, 1), (2, diff)]) <= 0
    return ok


@_lemma("u-h-growth", _grid(1, 2))
def _u_h_growth(m, n):
    """u(m,n)-u(m,n-1) and h(m,n)-h(m,n-1) are at least
    ceil((n+1)/(m+n+1)*C(m+3,3)) + n for m >= 2; for m = 1 the u increment is
    at least ceil(4(n+1)/(n+2))"""
    if m == 1:
        return u(1, n) - u(1, n - 1) >= _ceil_div(4 * (n + 1), n + 2)
    lb = _ceil_div((n + 1) * comb(m + 3, 3), m + n + 1) + n
    return (u(m, n) - u(m, n - 1) >= lb) and (h(m, n) - h(m, n - 1) >= lb)


@_lemma(
    "kdown34-vs-kup33",
    lambda bound: [
        (m, n)
        for m in range(1, bound + 1)
        for n in range(3, bound + 1)
        if (m, n) != (1, 3)
    ],
)
def _kdown34_vs_kup33(m, n):
    """k_down(3,4;m,n)-k_down(3,4;m,n-1) <= k_up(3,3;m,n) for n>=3, except
    (m,n)=(1,3)"""
    return k_down(3, 4, m, n) - k_down(3, 4, m, n - 1) <= k_up(3, 3, m, n)


@_lemma("33-triple-kdown34", _grid(1, 3))
def _33_triple_kdown34(m, n):
    """vdim of (3,3) with a 3-fat point and k_down(3,4;m,n)-k_down(3,4;m,n-1)
    2-fat points is <= k_down(3,4;m,n-1)"""
    diff = k_down(3, 4, m, n) - k_down(3, 4, m, n - 1)
    return vdim_profile(3, 3, m, n, [(3, 1), (2, diff)]) <= k_down(3, 4, m, n - 1)


@_lemma("32-h-empty", _line(1))
def _32_h_empty(k):
    """vdim of (3,2) with h 2-fat points is <= 0 on P^1 x P^n and P^m x P^1"""
    ok = vdim_profile(3, 2, 1, k, [(2, h(1, k))]) <= 0 if k >= 2 else True
    ok &= vdim_profile(3, 2, k, 1, [(2, h(k, 1))]) <= 0
    return ok


@_lemma("kdown34-mx2-closed", _line(1))
def _kdown34_mx2_closed(m):
    """k_down(3,4;m,2) = (5m^2+13m+4)/2"""
    return 2 * k_down(3, 4, m, 2) == 5 * m * m + 13 * m + 4


@_lemma("24-mx2-quadruple", _line(1))
def _24_mx2_quadruple(m):
    """vdim of (2,4) on P^m x P^2 with a 3-fat point, j(m) 2-fat points and
    k_down(3,4;m-1,2) simple points is <= 0"""
    return (
        vdim_profile(2, 4, m, 2, [(3, 1), (2, j(m)), (1, k_down(3, 4, m - 1, 2))])
        <= 0
    )


@_lemma("j-closed", _line(1))
def _j_closed(m):
    """j(m) = 5m+4, and the (1,4) step with 5 doubles and j(m-1) simple points
    has nonnegative vdim"""
    ok = j(m) == 5 * m + 4
    if m >= 2:
        ok &= j(m) - j(m - 1) == 5
        ok &= vdim_profile(1, 4, m, 2, [(2, 6), (1, j(m - 1))]) >= 0
        ok &= 1 + j(m) >= _ceil_div(15 * (m + 1), m + 3) + m
    return ok


@_lemma("34-w-lower", _grid(1, 1))
def _34_w_lower(m, n):
    """vdim of (3,4) with 1+w(m,n) 2-fat points and k_up(4,4;m-1,n) simple
    points is >= 0"""
    return (
        vdim_profile(3, 4, m, n, [(2, 1 + w(m, n)), (1, k_up(4, 4, m - 1, n))]) >= 0
    )


@_lemma("34-kdown44-empty", _grid(1, 1))
def _34_kdown44_empty(m, n):
    """vdim of (3,4) with a 3-fat point, k_down(4,4;m,n)-k_down(4,4;m-1,n)
    2-fat points and k_down(4,4;m-1,n) simple points is <= 0"""
    diff = k_down(4, 4, m, n) - k_down(4, 4, m - 1, n)
    return (
        vdim_profile(3, 4, m, n, [(3, 1), (2, diff), (1, k_down(4, 4, m - 1, n))])
        <= 0
    )


@_lemma("24-w-mx1", _line(2))
def _24_w_mx1(m):
    """vdim of (2,4) on P^m x P^1 with w(m,1) 2-fat points is <= 0 and w(m,1) >
    3m+2"""
    return vdim_profile(2, 4, m, 1, [(2, w(m, 1))]) <= 0 and w(m, 1) > 3 * m + 2


@_lemma("24-w-1xn", _line(1))
def _24_w_1xn(n):
    """vdim of (2,4) on P^1 x P^n with w(1,n) 2-fat points is <= 0"""
    return vdim_profile(2, 4, 1, n, [(2, w(1, n))]) <= 0


@_lemma("w-growth", _grid(2, 2))
def _w_growth(m, n):
    """w(m,n)-w(m-1,n) >= ceil((m+1)/(m+n+1)*C(n+4,4)) + m for m,n >= 2"""
    return w(m, n) - w(m - 1, n) >= _ceil_div(
        (m + 1) * comb(n + 4, 4), m + n + 1
    ) + m


@_lemma(
    "kdown44-vs-kup34",
    lambda bound: [
        (m, n)
        for m in range(2, bound + 1)
        for n in range(m, bound + 1)
        if (m, n) != (2, 2)
    ],
)
def _kdown44_vs_kup34(m, n):
    """k_down(4,4;m,n)-k_down(4,4;m-1,n) <= k_up(3,4;m,n) for n>=m>=2, except
    (m,n)=(2,2)"""
    return k_down(4, 4, m, n) - k_down(4, 4, m - 1, n) <= k_up(3, 4, m, n)


@_lemma("kdown44-vs-kup44", _grid(1, 1))
def _kdown44_vs_kup44(m, n):
    """1+k_down(4,4;m,n)-k_down(4,4;m-1,n) >= k_up(4,4;m,n)-k_up(4,4;m-1,n)"""
    ok = 1 + k_down(4, 4, m, n) - k_down(4, 4, m - 1, n) >= w(m, n)
    ok &= 1 + k_down(4, 4, 1, m) - k_down(4, 4, 1, m - 1) >= k_up(
        4, 4, 1, m
    ) - k_up(4, 4, 1, m - 1)
    return ok


@_lemma("kdown44-vs-kup43", _line(4))
def _kdown44_vs_kup43(n):
    """k_down(4,4;1,n)-k_down(4,4;1,n-1) <= k_up(4,3;1,n) for n >= 4"""
    return k_down(4, 4, 1, n) - k_down(4, 4, 1, n - 1) <= k_up(4, 3, 1, n)


@_lemma("43-triple-kdown44", _line(2))
def _43_triple_kdown44(n):
    """vdim of (4,3) on P^1 x P^n with a 3-fat point and
    k_down(4,4;1,n)-k_down(4,4;1,n-1) 2-fat points is <= k_down(4,4;1,n-1)"""
    diff = k_down(4, 4, 1, n) - k_down(4, 4, 1, n - 1)
    return vdim_profile(4, 3, 1, n, [(3, 1), (2, diff)]) <= k_down(4, 4, 1, n - 1)


def lemma_ids() -> list[str]:
    return sorted(_REGISTRY)


def verify_lemma(lemma_id: str, bound: int = 40) -> list[tuple[int, ...]]:
    """Check one lemma on its hypothesis range up to `bound`; returns the
    list of counterexamples (empty when the lemma holds).  A bound below
    the start of the range is an error: it would check nothing."""
    if lemma_id not in _REGISTRY:
        raise KeyError(f"unknown lemma {lemma_id!r}")
    domain, predicate = _REGISTRY[lemma_id]
    cases = domain(bound)
    if not cases:
        raise ValueError(f"lemma {lemma_id!r} has no cases up to bound {bound}")
    return [args for args in cases if not predicate(*args)]


def verify_all(bound: int = 40) -> dict[str, list[tuple[int, ...]]]:
    return {lid: verify_lemma(lid, bound) for lid in lemma_ids()}
