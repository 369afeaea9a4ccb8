import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from fatpoints import __version__, cli
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


def test_cache_record_of_another_version_is_a_miss(tmp_path, monkeypatch, capsys):
    cache = tmp_path / "cache.jsonl"
    args = ("dim", "--space", "1x1", "--deg", "3,3", "--scheme", "3,2^3",
            "--json", "--cache", str(cache))
    with monkeypatch.context() as m:
        m.setattr(cli, "__version__", "0.0.1")
        assert run_cli(capsys, *args)[0] == 0
    code, out, _ = run_cli(capsys, *args)
    assert code == 0 and "cached" not in json.loads(out)
    assert len(cache.read_text().splitlines()) == 2
    assert json.loads(run_cli(capsys, *args)[1])["cached"] is True


def test_version_matches_pyproject():
    # the cache key hashes __version__, so it must follow the release
    text = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    assert re.search(r'^version = "([^"]+)"$', text, re.M)[1] == __version__


def test_verify_arith_cli(capsys):
    code, out, _ = run_cli(capsys, "verify-arith", "--lemma", "b-mod3",
                           "--bound", "60")
    assert code == 0
    assert "0 counterexamples" in out
    assert "up to 60" in out


def test_unknown_lemma_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "verify-arith", "--lemma", "no-such-lemma")
    assert code == 64 and out == ""
    assert "'no-such-lemma'" in err


def test_closed_stdout_exits_with_the_verdict(tmp_path):
    # a reader that is already gone, as with `| head -c1` or `| true`
    env = dict(os.environ)
    src = str(Path(__file__).parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "fatpoints.cli", "dim", "--space", "1x1",
            "--deg", "3,3", "--scheme", "3,2^3", "--cache", str(tmp_path / "c.jsonl")]
    for _ in ("fresh reply", "cache hit"):
        r, w = os.pipe()
        os.close(r)
        try:
            proc = subprocess.run(argv, stdout=w, stderr=subprocess.PIPE,
                                  env=env, timeout=120)
        finally:
            os.close(w)
        assert proc.returncode == 0, proc.stderr
        assert b"Traceback" not in proc.stderr
    assert len((tmp_path / "c.jsonl").read_text().splitlines()) == 1


@pytest.mark.parametrize(
    "argv", [("--bound", "0"), ("--lemma", "v-mod3", "--bound", "3")]
)
def test_verify_arith_empty_range_is_usage_error(capsys, argv):
    # a bound that reaches none of a lemma's cases would pass vacuously
    code, out, err = run_cli(capsys, "verify-arith", *argv)
    assert code == 64 and out == ""
    assert f"has no cases up to bound {argv[-1]}" in err
    if "--lemma" in argv:
        assert "'v-mod3'" in err


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


@pytest.mark.parametrize("spec", ["0:0:5", "0:0:0", "0:0:-3"])
def test_on_divisor_overflow_is_usage_error(capsys, spec):
    # more strata than points, or a COUNT below 1, which confines no point
    system = ("--space", "1x1", "--deg", "3,3", "--scheme", "2", "--on-divisor", spec)
    for argv in (("dim", *system), ("castelnuovo", *system, "--divisor", "0:0")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 64 and out == ""
        assert err.startswith("fatpoints: ")


def test_damaged_cache_line_is_skipped(tmp_path, capsys):
    # cut short, not UTF-8, and valid JSON that is not an object
    for i, damage in enumerate(
        [b'{"key": "abc", "resu', b'{"key": "\xff\xfe"}', b"[1,2]", b'"x"', b"7"]
    ):
        cache = tmp_path / f"cache{i}.jsonl"
        args = ("dim", "--space", "1x1", "--deg", "3,3", "--scheme", "3,2^3",
                "--cache", str(cache))
        cache.write_bytes(damage + b"\n")
        code1, out1, _ = run_cli(capsys, *args)
        with open(cache, "ab") as fh:
            fh.write(damage)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0, damage
        assert out1 == out2
        assert len(cache.read_bytes().splitlines()) == 3
    # an object under the request's key that lacks a record's fields
    key = json.loads(cache.read_bytes().splitlines()[1])["key"]
    cache.write_text(json.dumps({"key": key, "exit": "0"}) + "\n")
    code3, out3, _ = run_cli(capsys, *args)
    assert code3 == 0 and out3 == out1


def test_unusable_cache_path_is_usage_error(tmp_path, capsys):
    for path in (tmp_path, tmp_path / "missing" / "cache.jsonl"):
        code, out, err = run_cli(capsys, "dim", "--space", "1x1", "--deg", "3,3",
                                 "--scheme", "2", "--cache", str(path))
        assert code == 64 and not out
        assert str(path) in err and "Traceback" not in err


@pytest.mark.parametrize("flag,value", [("--prime", "1000"), ("--retries", "-3")])
def test_bad_field_settings_exit64(capsys, flag, value):
    code, _, err = run_cli(capsys, "dim", "--space", "1x1", "--deg", "3,3",
                           "--scheme", "3,2^3", flag, value)
    assert code == 64
    assert value in err
