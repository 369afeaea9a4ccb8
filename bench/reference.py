"""Reference answers for the benchmark's correctness gate.

None of them depends on the prime or the seed: each is a fact about the
linear systems (or the arithmetic ledger), not about one random draw.
They are written out here rather than read from the package, so a change
to the package cannot move the reference along with it.
"""
from __future__ import annotations

from math import comb

# verify_main_theorem(3, 3): (space, degree) -> (r_low status, r_high status).
# Every one of the 27 embeddings is certified non-defective.  A certified
# status is a function of the virtual dimension alone: Zero at vdim <= 0,
# Regular at vdim > 0.
MAIN_THEOREM_STATUSES = {
    ((1, 1), (3, 3)): ("Regular", "Zero"),
    ((1, 2), (3, 3)): ("Zero", "Zero"),
    ((1, 3), (3, 3)): ("Zero", "Zero"),
    ((2, 1), (3, 3)): ("Zero", "Zero"),
    ((2, 2), (3, 3)): ("Zero", "Zero"),
    ((2, 3), (3, 3)): ("Regular", "Zero"),
    ((3, 1), (3, 3)): ("Zero", "Zero"),
    ((3, 2), (3, 3)): ("Regular", "Zero"),
    ((3, 3), (3, 3)): ("Regular", "Zero"),
    ((1, 1), (3, 4)): ("Regular", "Zero"),
    ((1, 2), (3, 4)): ("Zero", "Zero"),
    ((1, 3), (3, 4)): ("Zero", "Zero"),
    ((2, 1), (3, 4)): ("Regular", "Zero"),
    ((2, 2), (3, 4)): ("Zero", "Zero"),
    ((2, 3), (3, 4)): ("Regular", "Zero"),
    ((3, 1), (3, 4)): ("Zero", "Zero"),
    ((3, 2), (3, 4)): ("Zero", "Zero"),
    ((3, 3), (3, 4)): ("Zero", "Zero"),
    ((1, 1), (4, 4)): ("Regular", "Zero"),
    ((1, 2), (4, 4)): ("Regular", "Zero"),
    ((1, 3), (4, 4)): ("Zero", "Zero"),
    ((2, 1), (4, 4)): ("Regular", "Zero"),
    ((2, 2), (4, 4)): ("Zero", "Zero"),
    ((2, 3), (4, 4)): ("Regular", "Zero"),
    ((3, 1), (4, 4)): ("Zero", "Zero"),
    ((3, 2), (4, 4)): ("Regular", "Zero"),
    ((3, 3), (4, 4)): ("Zero", "Zero"),
}

# The paper replay: bundled fixtures per run_basecases filter, the
# collision-hypothesis cases that must all hold, and the size of the
# arithmetic-lemma ledger.
BASECASE_COUNTS = {None: 26, "44-1x1": 1}
HYPOTHESIS_CASES = (((2, 1), (3, 3)), ((1, 2), (3, 4)), ((2, 2), (4, 4)))
LEDGER_SIZE = 39
ARITH_BOUND = 40

# The classical list of defective Veronese embeddings (Alexander-Hirschowitz):
# quadrics for 2 <= r <= n, and four sporadic (n, d) -> r, each of defect 1.
AH_SPORADIC = {(2, 4): 5, (3, 4): 9, (4, 3): 7, (4, 4): 14}
AH_MAX_N = 5
AH_MAX_D = 6


def ah_defective_rs(n: int, d: int, sporadic=AH_SPORADIC) -> list[int]:
    if d == 2:
        return list(range(2, n + 1))
    return [sporadic[(n, d)]] if (n, d) in sporadic else []


def ah_defect(n: int, d: int, r: int) -> int:
    """Defect of the r-th secant variety of the degree-d Veronese of P^n,
    for r in ah_defective_rs(n, d).  For quadrics sigma_r is the variety of
    symmetric matrices of rank <= r, of dimension r(n+1) - C(r,2) - 1."""
    top = comb(n + d, n) - 1
    expected = min(top, r * (n + 1) - 1)
    if d == 2:
        return expected - min(top, r * (n + 1) - comb(r, 2) - 1)
    return 1


def ah_pairs(max_n: int, max_d: int) -> list[tuple[int, int]]:
    """(n, d) in the order verify_ah(max_n=..., max_d=...) reports them; it
    always appends the quadrics of P^5."""
    pairs = [(n, d) for n in range(1, max_n + 1) for d in range(2, max_d + 1)]
    return pairs + [(5, 2)]
