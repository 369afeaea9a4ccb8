import dataclasses
import hashlib
import json

from fatpoints.engine import ALTERNATE_PRIME, PrimeFieldConfig
from fatpoints.replication import (
    BaseCase,
    load_bundled_registry,
    reconcile_specializations,
    run_basecases,
    verify_ah,
    verify_main_theorem,
)
from fatpoints.schemes import FatPoint, virtual_dim


# SHA-256 of the canonical dump below.  Any change to a fixture changes it,
# so update it only together with a fixture changed on purpose.
REGISTRY_DIGEST = "15bea971a422c7094ffee440dec25056df90ac8810b7cca4fe391217dbd89c7c"


def _vanishing(sub):
    return [sorted(s) for s in sub.vanishing]


def test_registry_matches_golden_digest():
    dump = []
    for c in load_bundled_registry():
        # the dump leaves out pinned coordinates and jets, so none may exist
        assert all(p.spec.coords is None for p in c.scheme.points), c.case_id
        assert not c.scheme.jets, c.case_id
        points = [
            [p.multiplicity, None if p.spec.stratum is None else _vanishing(p.spec.stratum)]
            for p in c.scheme.points
        ]
        contained = [_vanishing(sub) for sub in c.scheme.contained]
        dump.append(
            [c.case_id, list(c.factor_dims), list(c.degrees), c.expected, points, contained]
        )
    digest = hashlib.sha256(json.dumps(dump).encode()).hexdigest()
    assert digest == REGISTRY_DIGEST


def test_registry_size_and_coverage():
    cases = load_bundled_registry()
    assert len(cases) >= 20
    assert len({c.case_id for c in cases}) == len(cases)
    degrees = {c.degrees for c in cases}
    # all three target bidegrees and their reductions appear
    assert {(3, 3), (3, 4), (4, 4), (2, 3), (3, 2), (3, 1), (2, 4)} <= degrees


def test_expected_status_consistent_with_vdim():
    for c in load_bundled_registry():
        vd = virtual_dim(c.space, c.degree, c.scheme)
        if c.expected == "Regular":
            assert vd >= 0, c.case_id
        else:
            assert vd <= 0, c.case_id


def test_specialization_tables_reconcile():
    assert reconcile_specializations() == []


def test_run_basecases_all_pass():
    report = run_basecases()
    assert report["passed"]
    assert report["failed"] == []
    assert report["total"] >= 20
    assert report["table_flags"] == []


def test_filter_44():
    report = run_basecases(filter="4,4")
    assert report["total"] == 4
    assert report["passed"]


def test_corrupted_fixture_reported():
    cases = load_bundled_registry()
    case = next(c for c in cases if c.case_id == "33-1x1-triple")
    bad_scheme = dataclasses.replace(case.scheme)
    bad_scheme.points = [FatPoint(p.multiplicity + 1, p.spec) for p in case.scheme.points]
    bad = BaseCase(case.case_id, case.factor_dims, case.degrees,
                   case.expected, bad_scheme, case.note)
    report = run_basecases(cases=[bad])
    assert not report["passed"]
    assert report["failed"] == ["33-1x1-triple"]


def test_statuses_stable_across_seed_and_prime():
    base = run_basecases(filter="3,4")
    other = run_basecases(
        filter="3,4",
        config=PrimeFieldConfig(prime=ALTERNATE_PRIME, seed=12345),
    )
    assert [(e["id"], e["status"]) for e in base["cases"]] == [
        (e["id"], e["status"]) for e in other["cases"]
    ]


def test_verify_main_theorem_small():
    report = verify_main_theorem(max_m=2, max_n=2)
    assert report["passed"]
    assert len(report["cases"]) == 12


def test_verify_ah_examples():
    report = verify_ah(max_n=2, max_d=4)
    assert report["passed"]
    by_nd = {(e["n"], e["d"]): e for e in report["cases"]}
    assert by_nd[(2, 4)]["defects"] == {"5": 1}
    assert by_nd[(2, 3)]["certified_nondefective"]
