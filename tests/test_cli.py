import json

import pytest

from fatpoints import cli
from fatpoints.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_dim_regular_exit0(capsys):
    code, out, _ = run_cli(
        capsys, "dim", "--space", "1x1", "--deg", "3,3", "--scheme", "3,2^3"
    )
    assert code == 0
    assert "dim 1" in out and "Regular" in out


def test_dim_zero_exit0(capsys):
    code, out, _ = run_cli(
        capsys, "dim", "--space", "2x1", "--deg", "3,3", "--scheme", "4,2^6"
    )
    assert code == 0
    assert "dim 0" in out and "Zero" in out


def test_dim_special_exit2(capsys):
    code, out, _ = run_cli(
        capsys, "dim", "--space", "2", "--deg", "4", "--scheme", "2^5"
    )
    assert code == 2
    assert "SpecialCandidate" in out and "dim 1" in out


def test_usage_errors_exit64(capsys):
    assert run_cli(capsys, "frobnicate")[0] == 64
    assert run_cli(capsys, "dim", "--space", "1x1")[0] == 64
    assert run_cli(capsys, "dim", "--space", "zz", "--deg", "3,3",
                   "--scheme", "2")[0] == 64
    assert run_cli(capsys, "dim", "--space", "1x1", "--deg", "3,3",
                   "--scheme", "nope")[0] == 64


def test_defective_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "defective", "--space", "1x1", "--deg", "3,3")
    assert code == 0 and "non-defective" in out
    code, out, _ = run_cli(capsys, "defective", "--space", "2", "--deg", "4")
    assert code == 2 and "r = 5" in out


def test_json_output_deterministic(capsys):
    args = ("dim", "--space", "1x1", "--deg", "3,3", "--scheme", "3,2^3", "--json")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["certificate"]["status"] == "Regular"


def test_seed_flag_changes_request_not_verdict(capsys):
    _, out1, _ = run_cli(capsys, "dim", "--space", "1x1", "--deg", "3,3",
                         "--scheme", "3,2^3", "--seed", "7", "--json")
    doc = json.loads(out1)
    assert doc["certificate"]["seed"] == 7
    assert doc["certificate"]["computed_dim"] == 1


def test_cache_roundtrip(tmp_path, capsys):
    cache = tmp_path / "cache.jsonl"
    args = ("dim", "--space", "1x1", "--deg", "3,3", "--scheme", "3,2^3",
            "--json", "--cache", str(cache))
    code1, out1, _ = run_cli(capsys, *args)
    assert code1 == 0
    assert "cached" not in json.loads(out1)
    lines = cache.read_text().splitlines()
    assert len(lines) == 1
    rec = json.loads(lines[0])
    assert rec["exit"] == 0 and "key" in rec

    code2, out2, _ = run_cli(capsys, *args)
    assert code2 == 0
    assert json.loads(out2)["cached"] is True
    # append-only: a hit adds nothing
    assert len(cache.read_text().splitlines()) == 1

    # different scheme -> different key -> new record
    run_cli(capsys, "dim", "--space", "1x1", "--deg", "3,3", "--scheme", "2^6",
            "--json", "--cache", str(cache))
    assert len(cache.read_text().splitlines()) == 2


def test_env_overrides(monkeypatch, capsys):
    monkeypatch.setenv("FATPOINTS_SEED", "99")
    _, out, _ = run_cli(capsys, "dim", "--space", "1x1", "--deg", "3,3",
                        "--scheme", "3,2^3", "--json")
    assert json.loads(out)["certificate"]["seed"] == 99


def test_verify_arith_cli(capsys):
    code, out, _ = run_cli(capsys, "verify-arith", "--lemma", "b-mod3",
                           "--n", "60")
    assert code == 0
    assert "0 counterexamples" in out
    assert "up to 60" in out


def test_verify_arith_range_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "verify-arith", "--lemma", "b-mod3",
                             "--n", "50..60")
    assert code == 64
    assert "'50..60'" in err and not out


def test_cache_record_is_one_write(tmp_path, monkeypatch):
    # a record above the 8 KiB buffer of a text-mode file, which that
    # file would hand to the kernel in more than one write(2)
    writes = []
    real_write = cli.os.write

    def write(fd, data):
        writes.append(len(data))
        return real_write(fd, data)

    monkeypatch.setattr(cli.os, "write", write)
    cache = tmp_path / "cache.jsonl"
    rec = {"key": "big", "result": {"blob": "x" * 20000}, "text": "t", "exit": 0}
    cli._cache_append(str(cache), {"key": "small", "exit": 1})
    cli._cache_append(str(cache), rec)
    assert writes[1] == len(json.dumps(rec, sort_keys=True)) + 1 > 8192
    assert len(writes) == 2
    assert cli._cache_lookup(str(cache), "big") == rec
    assert cache.read_text().count("\n") == 2


def test_basecases_filter_cli(capsys):
    code, out, _ = run_cli(capsys, "basecases", "--filter", "4,4")
    assert code == 0
    assert "4 fixtures, all pass" in out


def test_star_cli(capsys):
    code, out, _ = run_cli(capsys, "star", "--n", "3", "--json")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_hypotheses_cli(capsys):
    code, out, _ = run_cli(capsys, "hypotheses", "--space", "2x1", "--deg", "3,3")
    assert code == 0 and "hold" in out


def test_castelnuovo_cli(capsys):
    code, out, _ = run_cli(
        capsys, "castelnuovo", "--space", "2x2", "--deg", "3,3",
        "--scheme", "3,2^5", "--on-divisor", "0:0:3", "--divisor", "0:0",
    )
    assert code == 0 and "holds" in out


def test_on_divisor_overflow_is_usage_error(capsys):
    code, _, err = run_cli(
        capsys, "dim", "--space", "1x1", "--deg", "3,3", "--scheme", "2",
        "--on-divisor", "0:0:5",
    )
    assert code == 64


def test_damaged_cache_line_is_skipped(tmp_path, capsys):
    cache = tmp_path / "cache.jsonl"
    args = ("dim", "--space", "1x1", "--deg", "3,3", "--scheme", "3,2^3",
            "--cache", str(cache))
    code1, out1, _ = run_cli(capsys, *args)
    with open(cache, "a") as fh:
        fh.write('{"key": "abc", "resu')
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


@pytest.mark.parametrize("flag,value", [("--prime", "1000"), ("--retries", "-3")])
def test_bad_field_settings_exit64(capsys, flag, value):
    code, _, err = run_cli(capsys, "dim", "--space", "1x1", "--deg", "3,3",
                           "--scheme", "3,2^3", flag, value)
    assert code == 64
    assert value in err
