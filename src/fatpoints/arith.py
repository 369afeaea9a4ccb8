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

Every function here takes ints, and also integer arrays, entry by entry:
binomials come from ``schemes.binom``, a product form on arrays, and each
case split is a mask (``&``, ``|`` and comparisons, not ``if``, ``and`` or
``or``).  So ``verify_lemma`` calls a lemma's predicate once, on its whole domain
given as one array per argument, and turns only the failing entries back
into tuples of ints.  The arrays are int64 up to ``INT64_BOUND`` and hold
exact Python ints (dtype object) above it, because int64 wraps silently:

* The largest value any lemma forms up to bound B is the monomial count
  multi_binom(4,4;B,B) = C(B+4,4)^2 (found by tracking every operation of
  every predicate at bounds 30, 60 and 120).  It passes 2^63 at B = 518,
  and from there the int64 sweeps of ``easy-hypotheses``,
  ``kdown44-vs-kup34`` and ``w-growth`` report counterexamples that the
  exact sweep does not.
* ``INT64_BOUND`` is the largest B with 8 C(B+4,4)^2 < 2^63, a margin of
  8 over that value, so no wrapped value can decide a lemma.

``MAX_LEDGER_CASES`` caps the cases of one lemma, counted in closed form
before any case is listed.
"""
from __future__ import annotations

from typing import Callable, Iterable, NamedTuple

from . import _lazy_import
from .schemes import any_true, binom, conditions_of_fat_point

np = _lazy_import("numpy")  # loaded at the first lemma sweep

# the largest bound with 8 C(B+4,4)^2 < 2^63 (see the module docstring)
INT64_BOUND = 398
# one lemma's cases: the full grid up to bound 500 (see verify_lemma)
MAX_LEDGER_CASES = 250_000


def multi_binom(c: int, d: int, m: int, n: int) -> int:
    """Number of monomials of bidegree (c,d) on P^m x P^n.

    Degenerate boundary values m, n in {-1, 0} are allowed so that the
    recursions below can reference them: dimension 0 contributes a factor
    1, dimension -1 contributes 0 (an empty space has no monomials)."""
    if any_true((m < -1) | (n < -1) | (m + n + 1 < 1)):
        raise ValueError("factor dimensions out of range")
    return binom(m + c, c) * binom(n + d, d)


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


class _Domain(NamedTuple):
    """A lemma's hypothesis range up to a bound: `count` gives the number of
    cases in closed form, `columns` the cases as one int64 array per
    argument, in the order of nested loops with the first argument
    outermost."""

    count: Callable[[int], int]
    columns: Callable[[int], tuple[np.ndarray, ...]]


_REGISTRY: dict[str, tuple[_Domain, Callable]] = {}  # id -> (domain, predicate)


def _lemma(lemma_id, domain):
    def deco(fn):
        _REGISTRY[lemma_id] = (domain, fn)
        return fn

    return deco


def _line(lo):
    """Domain helper: n >= lo."""
    return _Domain(
        lambda bound: max(0, bound - lo + 1),
        lambda bound: (np.arange(lo, bound + 1, dtype=np.int64),),
    )


def _grid(m_lo, n_lo):
    """Domain helper: pairs (m, n) with m >= m_lo and n >= n_lo."""

    def columns(bound):
        ms = np.arange(m_lo, bound + 1, dtype=np.int64)
        ns = np.arange(n_lo, bound + 1, dtype=np.int64)
        return np.repeat(ms, len(ns)), np.tile(ns, len(ms))

    return _Domain(
        lambda bound: max(0, bound - m_lo + 1) * max(0, bound - n_lo + 1), columns
    )


def _triangle(lo):
    """Domain helper: pairs (m, n) with lo <= m <= n."""

    def columns(bound):
        m, n = np.triu_indices(max(0, bound - lo + 1))
        return m.astype(np.int64) + lo, n.astype(np.int64) + lo

    def count(bound):
        k = max(0, bound - lo + 1)
        return k * (k + 1) // 2

    return _Domain(count, columns)


def _without_corner(domain):
    """A domain of pairs without its first pair, the corner (m_lo, n_lo)."""
    return _Domain(
        lambda bound: max(0, domain.count(bound) - 1),
        lambda bound: tuple(c[1:] for c in domain.columns(bound)),
    )


@_lemma("easy-hypotheses", _grid(1, 1))
def _easy_hypotheses(m, n):
    """for c,d >= 3 the ambient system has at least (m+n+1)^2 monomials and a
    3-fat point leaves C(N+1,2) more dimensions than a 4-fat point"""
    N = m + n
    ok = True
    for c, d in ((3, 3), (3, 4), (4, 3), (4, 4)):
        ok &= multi_binom(c, d, m, n) >= (N + 1) ** 2
    gap = conditions_of_fat_point(4, N) - conditions_of_fat_point(3, N)
    ok &= gap >= binom(N + 1, 2)
    return ok


@_lemma("kup33-growth", _triangle(2))
def _kup33_growth(m, n):
    """k_up(3,3;m,n)-k_up(3,3;m-1,n) >= ceil((m+1)/(m+n+1)*C(n+3,3)) + m for
    2<=m<=n"""
    lhs = k_up(3, 3, m, n) - k_up(3, 3, m - 1, n)
    return lhs >= _ceil_div((m + 1) * binom(n + 3, 3), m + n + 1) + m


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


@_lemma("ell-f-monotone", _triangle(2))
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


@_lemma("f-vdim-nonneg", _triangle(2))
def _f_vdim_nonneg(m, n):
    """vdim of (2,3) with f(m,n) 2-fat points is >= 0"""
    return vdim_profile(2, 3, m, n, [(2, f(m, n))]) >= 0


@_lemma("f-ell-upper", _triangle(2))
def _f_ell_upper(m, n):
    """f and 1+ell increments are at most floor((m+1)/(m+n+1)*C(n+3,3)) - m"""
    ub = (m + 1) * binom(n + 3, 3) // (m + n + 1) - m
    return (f(m, n) - f(m - 1, n) <= ub) & (1 + ell(m, n) - ell(m - 1, n) <= ub)


@_lemma("13-f-diff-lower", _triangle(2))
def _13_f_diff_lower(m, n):
    """vdim of (1,3) with f(m,n)-f(m-1,n) 2-fat points is >= f(m-1,n)"""
    return vdim_profile(1, 3, m, n, [(2, f(m, n) - f(m - 1, n))]) >= f(m - 1, n)


@_lemma("23-triple-ell", _triangle(2))
def _23_triple_ell(m, n):
    """vdim of (2,3) with a 3-fat point and ell(m,n) 2-fat points is <=
    k_down(3,3;m-1,n)"""
    return vdim_profile(2, 3, m, n, [(3, 1), (2, ell(m, n))]) <= k_down(
        3, 3, m - 1, n
    )


@_lemma("23-ell-lower", _triangle(2))
def _23_ell_lower(m, n):
    """1+ell(m,n) >= ceil((m+1)/(m+n+1)*C(n+3,3)) + m"""
    return 1 + ell(m, n) >= _ceil_div((m + 1) * binom(n + 3, 3), m + n + 1) + m


@_lemma("32-quadruple-b", _line(2))
def _32_quadruple_b(n):
    """vdim of (3,2) on P^2 x P^n with a 3-fat point and b(n) 2-fat points is
    <= k_down(3,3;2,n-1)"""
    return vdim_profile(3, 2, 2, n, [(3, 1), (2, b(n))]) <= k_down(3, 3, 2, n - 1)


@_lemma("31-b-lower", _line(2))
def _31_b_lower(n):
    """1+b(n) >= ceil(10(n+1)/(n+3)) + n"""
    return 1 + b(n) >= _ceil_div(10 * (n + 1), n + 3) + n


@_lemma("13-ell-diff-lower", _triangle(2))
def _13_ell_diff_lower(m, n):
    """vdim of (1,3) with 1+ell(m,n)-ell(m-1,n) 2-fat points is >=
    ell(m-1,n)"""
    return vdim_profile(1, 3, m, n, [(2, 1 + ell(m, n) - ell(m - 1, n))]) >= ell(
        m - 1, n
    )


@_lemma("s-upper", _line(3))
def _s_upper(n):
    """1+ell(2,n)-s(n) <= floor(3/(n+3)*C(n+3,3)) - 2"""
    return 1 + ell(2, n) - s(n) <= 3 * binom(n + 3, 3) // (n + 3) - 2


@_lemma("s-below-ell", _line(3))
def _s_below_ell(n):
    """ell(2,n)-s(n) >= ceil((C(n+3,3)-1)/(n+1)); hence s(n) <= ell(2,n) and
    the excess 2-fat points kill degree 3 on P^n"""
    ok = ell(2, n) - s(n) >= _ceil_div(binom(n + 3, 3) - 1, n + 1)
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
    step = 3 + (n % 3 == 1)
    ok = b(n) - b(n - 1) == step
    ok &= (n < 4) | (b(n) - b(n - 3) == 10)
    return ok


@_lemma("v-mod3", _line(4))
def _v_mod3(n):
    """v(n)-v(n-3) is 5 when n = 1 mod 3 and 8 otherwise"""
    step = 8 - 3 * (n % 3 == 1)
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
    return u(m, 1) >= _ceil_div(3 * binom(m + 3, 3), m + 2)


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
    on_p1 = u(1, n) - u(1, n - 1) >= _ceil_div(4 * (n + 1), n + 2)
    lb = _ceil_div((n + 1) * binom(m + 3, 3), m + n + 1) + n
    above = (u(m, n) - u(m, n - 1) >= lb) & (h(m, n) - h(m, n - 1) >= lb)
    return (m == 1) & on_p1 | (m != 1) & above


@_lemma("kdown34-vs-kup33", _without_corner(_grid(1, 3)))
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
    ok = (k < 2) | (vdim_profile(3, 2, 1, k, [(2, h(1, k))]) <= 0)
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
    step = j(m) - j(m - 1) == 5
    step &= vdim_profile(1, 4, m, 2, [(2, 6), (1, j(m - 1))]) >= 0
    step &= 1 + j(m) >= _ceil_div(15 * (m + 1), m + 3) + m
    return (j(m) == 5 * m + 4) & ((m < 2) | step)


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
    return (vdim_profile(2, 4, m, 1, [(2, w(m, 1))]) <= 0) & (w(m, 1) > 3 * m + 2)


@_lemma("24-w-1xn", _line(1))
def _24_w_1xn(n):
    """vdim of (2,4) on P^1 x P^n with w(1,n) 2-fat points is <= 0"""
    return vdim_profile(2, 4, 1, n, [(2, w(1, n))]) <= 0


@_lemma("w-growth", _grid(2, 2))
def _w_growth(m, n):
    """w(m,n)-w(m-1,n) >= ceil((m+1)/(m+n+1)*C(n+4,4)) + m for m,n >= 2"""
    return w(m, n) - w(m - 1, n) >= _ceil_div(
        (m + 1) * binom(n + 4, 4), m + n + 1
    ) + m


@_lemma("kdown44-vs-kup34", _without_corner(_triangle(2)))
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


def _domain(lemma_id: str, bound: int) -> _Domain:
    """The lemma's domain, once its cases up to `bound` are counted: a
    ValueError if there are none, which would check nothing, or more than
    MAX_LEDGER_CASES."""
    if lemma_id not in _REGISTRY:
        raise KeyError(f"unknown lemma {lemma_id!r}")
    domain = _REGISTRY[lemma_id][0]
    count = domain.count(bound)
    if count == 0:
        raise ValueError(f"lemma {lemma_id!r} has no cases up to bound {bound}")
    if count > MAX_LEDGER_CASES:
        raise ValueError(
            f"lemma {lemma_id!r} has {count} cases up to bound {bound}, "
            f"over the limit of {MAX_LEDGER_CASES}"
        )
    return domain


def verify_lemma(lemma_id: str, bound: int = 40) -> list[tuple[int, ...]]:
    """Check one lemma on its hypothesis range up to `bound`; returns the
    list of counterexamples (empty when the lemma holds), in domain order.

    The predicate is called once, on the whole range as argument arrays:
    int64 up to INT64_BOUND, exact Python ints above it.  A range of no
    case, or of more than MAX_LEDGER_CASES, is a ValueError, raised before
    any case is listed.  The cap is the full grid to bound 500: there the
    exact arrays take 17-21 s for all 39 lemmas, and 2.4-3.3 s at a 125 MB
    peak RSS for the slowest, `u-h-growth` (2-vCPU Xeon).  Both grow with
    the number of cases."""
    columns = _domain(lemma_id, bound).columns(bound)
    if bound > INT64_BOUND:
        columns = tuple(c.astype(object) for c in columns)
    holds = np.asarray(_REGISTRY[lemma_id][1](*columns), dtype=bool)
    fails = np.flatnonzero(~np.broadcast_to(holds, columns[0].shape))
    return list(zip(*(c[fails].tolist() for c in columns)))


def verify_all(bound: int = 40) -> dict[str, list[tuple[int, ...]]]:
    """verify_lemma for every lemma; every range is counted before any
    lemma is checked."""
    for lid in lemma_ids():
        _domain(lid, bound)
    return {lid: verify_lemma(lid, bound) for lid in lemma_ids()}
