import dataclasses

from fatpoints.engine import ALTERNATE_PRIME, PrimeFieldConfig
from fatpoints.replication import (
    BaseCase,
    build_default_registry,
    load_bundled_registry,
    reconcile_specializations,
    registry_to_json,
    run_basecases,
    verify_ah,
    verify_main_theorem,
)
from fatpoints.schemes import FatPoint, virtual_dim


def test_bundled_registry_matches_source():
    built = registry_to_json(build_default_registry())
    loaded = registry_to_json(load_bundled_registry())
    assert built == loaded


def test_registry_size_and_coverage():
    cases = build_default_registry()
    assert len(cases) >= 20
    assert len({c.case_id for c in cases}) == len(cases)
    degrees = {c.degrees for c in cases}
    # all three target bidegrees and their reductions appear
    assert {(3, 3), (3, 4), (4, 4), (2, 3), (3, 2), (3, 1), (2, 4)} <= degrees


def test_expected_status_consistent_with_vdim():
    for c in build_default_registry():
        vd = virtual_dim(c.space, c.degree, c.scheme)
        if c.expected == "Regular":
            assert vd >= 0, c.case_id
        else:
            assert vd <= 0, c.case_id


def test_specialization_tables_reconcile():
    assert reconcile_specializations() == []


def test_case_json_roundtrip():
    for c in build_default_registry()[:5]:
        assert BaseCase.from_json(c.to_json()) == c


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
    cases = build_default_registry()
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
