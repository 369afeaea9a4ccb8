"""Golden digests of interpolation matrices.

build_matrix must give the recorded matrices byte for byte: the same draws,
the same row order and the same columns, at two (prime, seed) pairs.  Each
digest is the matrix shape plus the SHA-256 of its int64 bytes.  The
digests in build_digests.json were recorded from the row-by-row build that
preceded the Kronecker-product one; regenerate them (run this file as a
script) only for an intended change of the matrices.
"""
import hashlib
import json
from pathlib import Path

import pytest

from fatpoints.degeneration import collision_scheme
from fatpoints.engine import DEFAULT_PRIME, build_matrix
from fatpoints.replication import load_bundled_registry
from fatpoints.schemes import make_scheme
from fatpoints.secant import critical_r
from fatpoints.spaces import Multidegree, MultiProjectiveSpace
from test_engine import _jet_instances

DIGESTS = Path(__file__).with_name("build_digests.json")
PAIRS = [(DEFAULT_PRIME, 3), (101, 1)]
GROUPS = ["registry", "main_theorem", "jets", "collisions"]


def _systems(group):
    """(label, space, degree, scheme) for every system of a group."""
    if group == "registry":
        for case in load_bundled_registry():
            yield case.case_id, case.space, case.degree, case.scheme
    elif group == "main_theorem":
        # the r_high schemes of verify_main_theorem(3, 3): the longest
        # scheme each is_defective question builds
        for c, d in ((3, 3), (3, 4), (4, 4)):
            for m in range(1, 4):
                for n in range(1, 4):
                    sp, dg = MultiProjectiveSpace((m, n)), Multidegree((c, d))
                    r_high = critical_r(sp, dg)[1]
                    yield f"{m}x{n}/{c},{d}", sp, dg, make_scheme([(2, r_high)])
    elif group == "jets":
        for i, (sp, dg, scheme) in enumerate(_jet_instances()):
            yield str(i), sp, dg, scheme
    else:
        for dims in ((1, 1), (1, 2), (2, 1), (2, 2)):
            sp = MultiProjectiveSpace(dims)
            for extra in range(4):
                scheme = collision_scheme(sp, extra_doubles=extra, seed=extra)
                yield f"{sp.label()}/+{extra}", sp, Multidegree((3, 3)), scheme


def _digests(group, prime, seed):
    out = {}
    for label, sp, dg, scheme in _systems(group):
        A = build_matrix(sp, dg, scheme, prime=prime, seed=seed).array
        out[label] = f"{A.shape[0]}x{A.shape[1]} {hashlib.sha256(A.tobytes()).hexdigest()}"
    return out


@pytest.mark.parametrize("group", GROUPS)
@pytest.mark.parametrize("prime,seed", PAIRS)
def test_build_matches_golden_digests(group, prime, seed):
    want = json.loads(DIGESTS.read_text())[f"{prime},{seed}"][group]
    assert _digests(group, prime, seed) == want


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(
        {f"{p},{s}": {g: _digests(g, p, s) for g in GROUPS} for p, s in PAIRS},
        indent=1,
    ) + "\n")
