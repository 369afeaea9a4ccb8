import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fatpoints import __version__, arith, cli, engine
from fatpoints.cli import main
from fatpoints.engine import dimension
from fatpoints.schemes import make_scheme
from fatpoints.secant import is_defective, secant_dim, theorem_hypotheses
from fatpoints.spaces import Multidegree, MultiProjectiveSpace


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
    # the reply lists its two attempts, at two primes
    code, out, _ = run_cli(
        capsys, "dim", "--space", "2", "--deg", "4", "--scheme", "2^5", "--json"
    )
    assert code == 2
    runs = json.loads(out)["certificate"]["runs"]
    assert len(runs) == 2 and runs[0][0] != runs[1][0]


def test_usage_errors_exit64(capsys):
    assert run_cli(capsys, "frobnicate")[0] == 64
    assert run_cli(capsys, "dim", "--space", "1x1")[0] == 64
    assert run_cli(capsys, "dim", "--space", "zz", "--deg", "3,3",
                   "--scheme", "2")[0] == 64
    assert run_cli(capsys, "dim", "--space", "1x1", "--deg", "3,3",
                   "--scheme", "nope")[0] == 64
    # no critical number of double points: fewer monomials than N + 1
    for space, deg, counts in (("1x1", "1,0", "fewer monomials (2) than N + 1 = 3"),
                               ("1", "0", "fewer monomials (1) than N + 1 = 2")):
        code, _, err = run_cli(capsys, "defective", "--space", space, "--deg", deg)
        assert code == 64 and counts in err, err
    code, _, err = run_cli(capsys, "hypotheses", "--space", "1", "--deg", "0")
    assert code == 64 and "fewer monomials (1) than N + 1 = 2" in err, err
    # a bad degree, and a divisor without its INDEX, parsed by the handler
    system = ("--space", "1x1", "--deg", "3,3", "--scheme", "2")
    for argv, reason in (
        (("dim", "--space", "1x1", "--deg", "3,x", "--scheme", "2"), "bad degree"),
        (("castelnuovo", *system, "--divisor", "0"), "bad divisor"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 64 and out == "" and reason in err, err
        assert "Traceback" not in err


def test_defective_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "defective", "--space", "1x1", "--deg", "3,3")
    assert code == 0 and "non-defective" in out
    code, out, _ = run_cli(capsys, "defective", "--space", "2", "--deg", "4")
    assert code == 2 and "r = 5" in out
    # P^3 quartics: the evidence is at r_high = 9
    code, out, _ = run_cli(capsys, "defective", "--space", "3", "--deg", "4")
    assert code == 2 and "r = 9" in out


def test_secant_cli(tmp_path, capsys):
    # sigma_5 of the quartic Veronese surface has defect 1, sigma_4 none
    quartics = ("secant", "--space", "2", "--deg", "4")
    code, out, _ = run_cli(capsys, *quartics, "--r", "5")
    assert code == 2 and out == (
        "sigma_5 of the (4) embedding of 2: dim 13, expected 14, defect 1\n"
    )
    code, out, _ = run_cli(capsys, *quartics, "--r", "4", "--json")
    assert code == 0 and json.loads(out)["defect"] == 0
    args = (*quartics, "--r", "5", "--json", "--cache", str(tmp_path / "c.jsonl"))
    code, out, _ = run_cli(capsys, *args)
    assert code == 2 and json.loads(out)["defect"] == 1
    miss = json.loads(out)
    code, out, _ = run_cli(capsys, *args)
    assert code == 2 and json.loads(out) == dict(miss, cached=True)


def test_json_output_deterministic(capsys):
    args = ("dim", "--space", "1x1", "--deg", "3,3", "--scheme", "3,2^3", "--json")
    code1, out1, _ = run_cli(capsys, *args)
    engine._profiles.clear()  # the second run eliminates afresh
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["certificate"]["status"] == "Regular"


def test_report_shapes(capsys):
    # a report's JSON is its dataclass fields plus its named properties, so a
    # new field changes these lists and the digest
    sp, dg = MultiProjectiveSpace((1, 1)), Multidegree((3, 3))
    cert = dimension(sp, dg, make_scheme("3,2^3"))
    assert list(cert.to_json()) == [
        "status", "computed_dim", "virtual_dim", "expected_dim", "rank", "rows",
        "cols", "prime", "seed", "runs",
    ]
    assert list(secant_dim(sp, dg, 2).to_json()) == [
        "space", "degree", "r", "expected_dim", "actual_dim", "defect",
        "defective", "certificate",
    ]
    assert list(is_defective(sp, dg).to_json()) == [
        "space", "degree", "r_low", "r_high", "low", "high",
        "certified_nondefective", "defective_evidence",
    ]
    assert list(theorem_hypotheses(sp, dg).to_json()) == [
        "space", "degree", "r_values", "big_enough", "gap_ok", "dim3", "dim4",
        "per_r", "all_hold",
    ]
    code, out, _ = run_cli(capsys, "defective", "--space", "3x3", "--deg", "4,4", "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "a057dee70433fae4129152c3d2c7e55b74570b16605589579f84af625ddcf8e7"
    )


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


def test_no_request_key_is_made_without_a_cache(monkeypatch, capsys):
    def refuse(args):
        raise AssertionError("a key nothing reads")

    monkeypatch.setattr(cli, "_request_key", refuse)
    code, out, _ = run_cli(capsys, "dim", "--space", "1x1", "--deg", "3,3", "--scheme", "3,2^3")
    assert code == 0 and "Regular" in out


@pytest.mark.parametrize("argv, key", [
    (["dim", "--space", "2x2", "--deg", "2,2", "--scheme", "2^5", "--json"],
     "f9189b2082d17cbf4872f4c364b9f4406ecdf600dc427c563d5e023d4be81081"),
    (["secant", "--space", "2", "--deg", "4", "--r", "5"],
     "683c688699c36990ecbdbd0a5f64c1efca42b52502cbe6c9c0db315fbc2c81ac"),
])
def test_request_keys_are_those_version_0_1_2_wrote(tmp_path, argv, key):
    # the SHA-256 of the request, so records already written keep answering
    # however hashlib is bound; the cache path is not part of the key
    args = cli.build_parser().parse_args([*argv, "--cache", str(tmp_path / "c.jsonl")])
    assert __version__ == "0.1.2" and cli._request_key(args) == key


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


def _arith_reply(results, bound):
    """The verify-arith --json reply built from per-case results."""
    doc = {
        "bound": bound,
        "lemmas": {lid: {"counterexamples": [list(c) for c in ces]}
                   for lid, ces in results.items()},
        "total_counterexamples": sum(len(ces) for ces in results.values()),
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_verify_arith_replies_match_the_per_case_rule(capsys, monkeypatch,
                                                      per_case_failures):
    code, out, _ = run_cli(capsys, "verify-arith", "--bound", "40", "--json")
    ids = arith.lemma_ids()
    assert code == 0
    assert out == _arith_reply({lid: per_case_failures(lid, 40) for lid in ids}, 40)

    argv = ("verify-arith", "--lemma", "b-mod3", "--bound", "60", "--json")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == _arith_reply({"b-mod3": per_case_failures("b-mod3", 60)}, 60)
    # with counterexamples, which come back as ints that json can write
    domain, predicate = arith._REGISTRY["b-mod3"]
    monkeypatch.setitem(arith._REGISTRY, "b-mod3",
                        (domain, lambda n: predicate(n) & (n % 7 != 0)))
    code, out, _ = run_cli(capsys, *argv)
    want = per_case_failures("b-mod3", 60)
    assert code == 1 and len(want) == 8
    assert out == _arith_reply({"b-mod3": want}, 60)


def test_verify_arith_oversized_bound_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "verify-arith", "--bound", "1000000000")
    assert code == 64 and out == ""
    assert "over the limit of 250000" in err


def test_unknown_lemma_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "verify-arith", "--lemma", "no-such-lemma")
    assert code == 64 and out == ""
    assert "'no-such-lemma'" in err


def _module_env():
    """The environment for `python -m fatpoints.cli` from this checkout."""
    env = dict(os.environ)
    src = str(Path(__file__).parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_closed_stdout_exits_with_the_verdict(tmp_path):
    # a reader that is already gone, as with `| head -c1` or `| true`
    env = _module_env()
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


def _check_lookup_parses_only_lines_with_the_key(cache):
    key, other = "ab" * 32, "cd" * 32

    def record(k, text, code=0):
        return {"key": k, "result": {"exit": code}, "text": text, "exit": code}

    cli._cache_append(str(cache), record(other, "unrelated"))
    cli._cache_append(str(cache), record(other, f"mentions {key}"))
    # lines that hold the key but are cut short, not UTF-8, not an object,
    # or an object that lacks a record's fields; and an empty line
    with open(cache, "ab") as fh:
        for damaged in (
            b'{"key": "%s", "resu' % key.encode(),
            b'{"key": "%s\xff"}' % key.encode(),
            b'["%s"]' % key.encode(),
            json.dumps({"key": key, "exit": 0}).encode(),
            b"",
        ):
            fh.write(damaged + b"\n")
    assert cli._cache_lookup(str(cache), key) is None
    # the last record for a key wins
    cli._cache_append(str(cache), record(key, "first"))
    cli._cache_append(str(cache), record(other, "later"))
    cli._cache_append(str(cache), record(key, "second", 2))
    assert cli._cache_lookup(str(cache), key) == record(key, "second", 2)
    assert cli._cache_lookup(str(cache), other) == record(other, "later")
    # a last line that is a record under the key cut short, without a newline
    with open(cache, "ab") as fh:
        fh.write(json.dumps(record(key, "third"), sort_keys=True).encode()[:-2])
    assert cli._cache_lookup(str(cache), key) == record(key, "second", 2)


def test_cache_lookup_parses_only_lines_with_the_key(tmp_path):
    _check_lookup_parses_only_lines_with_the_key(tmp_path / "cache.jsonl")


@pytest.mark.parametrize("block", [1, 7, 64])
def test_cache_lookup_parses_only_lines_with_the_key_in_small_blocks(
        tmp_path, monkeypatch, block):
    # blocks that cut every line and key, so carried parts make them whole
    monkeypatch.setattr(cli, "_BLOCK", block)
    _check_lookup_parses_only_lines_with_the_key(tmp_path / "cache.jsonl")


def _reference_cache_lookup(path: str, key: str):
    """`_cache_lookup` as a loop over every line of the file from its start,
    where the last valid record wins: the reference that the search of the
    file's blocks from its end, which stops at the first valid record, must
    agree with."""
    try:
        fh = open(path, "rb")
    except FileNotFoundError:
        return None
    hit = None
    needle = key.encode()
    with fh:
        for line in fh:
            if needle not in line:
                continue
            try:
                rec = json.loads(line)
            except ValueError:
                continue
            if (
                isinstance(rec, dict) and rec.get("key") == key
                and isinstance(rec.get("result"), dict)
                and isinstance(rec.get("text"), str)
                and isinstance(rec.get("exit"), int)
            ):
                hit = rec
    return hit


@st.composite
def _cache_files(draw):
    """(keys, file bytes): records under two or three keys, some of whose
    texts mention another key, among damaged and empty lines."""
    # short keys also occur inside other keys and inside the field names
    keys = draw(st.lists(st.text("0123456789abcdef", min_size=1, max_size=64),
                         min_size=2, max_size=3, unique=True))
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        key = draw(st.sampled_from(keys))
        code = draw(st.integers(0, 3))
        text = draw(st.sampled_from(["t", *(f"mentions {k}" for k in keys)]))
        rec = json.dumps({"key": key, "result": {"exit": code}, "text": text,
                          "exit": code}, sort_keys=True).encode()
        kind = draw(st.sampled_from(
            ["record", "cut", "not-utf8", "list", "fieldless", "empty"]))
        if kind == "record":
            lines.append(rec)
        elif kind == "cut":
            lines.append(rec[:draw(st.integers(0, len(rec) - 1))])
        elif kind == "not-utf8":
            at = draw(st.integers(0, len(rec)))
            lines.append(rec[:at] + b"\xff" + rec[at:])
        elif kind == "list":
            lines.append(json.dumps([key, text]).encode())
        elif kind == "fieldless":
            fields = draw(st.sampled_from(
                [{}, {"exit": code}, {"result": {}, "text": text},
                 {"result": {}, "text": text, "exit": str(code)}]))
            lines.append(json.dumps(dict(fields, key=key)).encode())
        else:
            lines.append(b"")
    blob = b"\n".join(lines)
    if lines and draw(st.booleans()):
        blob += b"\n"
    return keys, blob


def _check_lookup_matches_the_line_loop(tmp_path_factory, case):
    keys, blob = case
    cache = tmp_path_factory.getbasetemp() / "lookup.jsonl"
    cache.write_bytes(blob)
    for key in [*keys, "f" * 65]:
        assert cli._cache_lookup(str(cache), key) == _reference_cache_lookup(
            str(cache), key)


# the last line is a record under the key, cut short and without a newline
_CUT_LAST_LINE = (["ab" * 32], b'{"exit": 0, "key": "%s", "result": {}, "text": "t"}\n'
                  b'{"exit": 1, "key": "%s", "resu' % (b"ab" * 32, b"ab" * 32))


@settings(max_examples=200, deadline=None)
@given(_cache_files())
@example((["ab" * 32, "cd" * 32], b""))
@example(_CUT_LAST_LINE)
def test_cache_lookup_matches_the_line_loop(tmp_path_factory, case):
    _check_lookup_matches_the_line_loop(tmp_path_factory, case)


@pytest.mark.parametrize("block", [1, 7, 64])
@settings(max_examples=100, deadline=None)
@given(_cache_files())
@example(_CUT_LAST_LINE)
def test_cache_lookup_matches_the_line_loop_in_small_blocks(tmp_path_factory, block, case):
    with pytest.MonkeyPatch.context() as m:
        m.setattr(cli, "_BLOCK", block)
        _check_lookup_matches_the_line_loop(tmp_path_factory, case)


def _large_cache(path, count: int) -> list[dict]:
    """A cache file of `count` records as _cache_append writes them, of
    about 210 bytes each, in one write."""
    records = [
        {"key": hashlib.sha256(b"%d" % i).hexdigest(),
         "result": {"dimension": i, "expected": i, "status": "Regular"},
         "text": f"request {i}: Regular, dimension {i}", "exit": 0}
        for i in range(count)
    ]
    path.write_bytes(b"".join(
        (json.dumps(rec, sort_keys=True) + "\n").encode() for rec in records))
    return records


def test_cache_lookup_holds_one_block(tmp_path):
    cache = tmp_path / "cache.jsonl"
    records = _large_cache(cache, 45000)
    size = cache.stat().st_size
    longest = max(len(line) for line in cache.read_bytes().splitlines())
    assert size >= 8 << 20 and size > 4 * cli._BLOCK
    for key, want in [(records[-1]["key"], records[-1]),  # a recent hit
                      (records[0]["key"], records[0]),  # an old hit
                      ("f" * 64, None)]:  # a miss
        tracemalloc.start()
        try:
            got = cli._cache_lookup(str(cache), key)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak < 2 * cli._BLOCK + longest, (key, peak)


def test_the_last_record_answers_after_one_block(tmp_path, monkeypatch):
    cache = tmp_path / "cache.jsonl"
    records = _large_cache(cache, 20000)
    read = []

    class CountingFile(io.FileIO):
        def readinto(self, buffer):
            n = super().readinto(buffer)
            read.append(n)
            return n

    monkeypatch.setattr(cli, "open", lambda path, mode: io.BufferedReader(
        CountingFile(path, mode)), raising=False)
    assert cli._cache_lookup(str(cache), records[-1]["key"]) == records[-1]
    assert sum(read) == cli._BLOCK < cache.stat().st_size
    read.clear()
    assert cli._cache_lookup(str(cache), "f" * 64) is None
    # a miss reads the file once: the reader rounds the one block that is
    # not a whole number of its buffers up by at most one buffer
    size = cache.stat().st_size
    assert size <= sum(read) < size + io.DEFAULT_BUFFER_SIZE


def test_one_parser_serves_every_call(monkeypatch, capsys):
    # calls that leave the parser in different states: a usage error, --help
    # (which exits from inside parse_args), and an appended option given and
    # then left out; each must print what a fresh process prints
    built = []
    real_init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    run_cli(capsys, "verify-arith", "--bound", "0")
    assert len(built) == 9  # the parser and its eight subcommands
    run_cli(capsys, "verify-arith", "--bound", "0")
    assert len(built) == 9

    monkeypatch.setenv("COLUMNS", "80")  # the width --help wraps at
    env = _module_env()
    dim = ("dim", "--space", "2", "--deg", "2", "--scheme", "1^4")
    for argv in (
        ("dim", "--space", "1x1", "--deg", "3,3"),
        ("--help",),
        (*dim, "--on-divisor", "0:0:2", "--on-divisor", "0:0:2"),
        dim,
    ):
        fresh = subprocess.run([sys.executable, "-m", "fatpoints.cli", *argv],
                               capture_output=True, text=True, env=env, timeout=120)
        assert run_cli(capsys, *argv) == (fresh.returncode, fresh.stdout, fresh.stderr)
    assert len(built) == 9


def test_basecases_filter_cli(capsys):
    code, out, _ = run_cli(capsys, "basecases", "--filter", "4,4")
    assert code == 0
    assert "4 fixtures, all pass" in out


def test_basecases_filter_without_fixtures_is_usage_error(capsys):
    # an empty replay would pass nothing and fail nothing
    code, out, err = run_cli(capsys, "basecases", "--filter", "zz")
    assert code == 64 and out == ""
    assert "'zz'" in err


def test_star_cli(capsys):
    code, out, _ = run_cli(capsys, "star", "--n", "3", "--json")
    assert code == 0
    assert json.loads(out)["passed"] is True


@pytest.mark.parametrize("argv, want", [
    (("star", "--n", "2", "--prime", "5", "--seed", "10"), 0),
    (("star", "--n", "3", "--prime", "7", "--seed", "3"), 0),
    (("star", "--n", "3", "--prime", "2"), 64),
], ids=["n2-p5", "n3-p7", "n3-p2"])
def test_star_at_small_primes_exits_without_a_traceback(capsys, argv, want):
    # in the first two, the first draw with no anchor on the hyperplane has
    # two proportional anchors, so a zero star point, and is drawn again;
    # F_2 is refused as a usage error, not with a traceback
    code, _, err = run_cli(capsys, *argv)
    assert code == want, err


def test_hypotheses_cli(capsys):
    code, out, _ = run_cli(capsys, "hypotheses", "--space", "2x1", "--deg", "3,3")
    assert code == 0 and "hold" in out


def test_castelnuovo_cli(capsys):
    code, out, _ = run_cli(
        capsys, "castelnuovo", "--space", "2x2", "--deg", "3,3",
        "--scheme", "3,2^5", "--on-divisor", "0:0:3", "--divisor", "0:0",
    )
    assert code == 0 and "holds" in out


def test_on_divisor_flags_place_the_next_points_in_turn(monkeypatch, capsys):
    # each --on-divisor confines the points that no earlier flag placed:
    # on P^2 x P^1, points 0-1 go to {x_0 = 0} and points 2-3 to {y_0 = 0}
    asked = []

    def recording(space, degree, scheme, config=None):
        asked.append(scheme)
        return dimension(space, degree, scheme, config)

    monkeypatch.setattr(cli, "dimension", recording)
    flags = ("--on-divisor", "0:0:2", "--on-divisor", "1:0:2")
    code, _, err = run_cli(
        capsys, "dim", "--space", "2x1", "--deg", "3,3", "--scheme", "2^4", *flags
    )
    assert code == 0, err
    [scheme] = asked
    on_x0, on_y0 = (frozenset({0}), frozenset()), (frozenset(), frozenset({0}))
    assert [pt.spec.stratum.vanishing for pt in scheme.points] == [on_x0] * 2 + [on_y0] * 2
    assert all(pt.spec.coords is None for pt in scheme.points)
    # four confined points, three in the scheme
    code, out, err = run_cli(
        capsys, "dim", "--space", "1x1", "--deg", "3,3", "--scheme", "2^3", *flags
    )
    assert code == 64 and out == "" and err.startswith("fatpoints: ")
    assert len(asked) == 1


@pytest.mark.parametrize(
    "spec",
    ["0:0:5", f"0:0:{10**15}", "0:0:0", "0:0:-3", "5:0:1", "-1:0:1", "0:0"],
)
def test_on_divisor_overflow_is_usage_error(capsys, spec):
    # more strata than points, also a COUNT whose strata could not even be
    # listed, a COUNT below 1, which confines no point, a FACTOR that the
    # space does not have, or no COUNT at all
    system = ("--space", "1x1", "--deg", "3,3", "--scheme", "2", f"--on-divisor={spec}")
    for argv in (("dim", *system), ("castelnuovo", *system, "--divisor", "0:0")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 64 and out == ""
        assert err.startswith("fatpoints: ")


_OVER_LIMIT = ("--space", "3x3", "--deg", "30,30")  # 29767936 columns
_SMALL = ("--space", "1x1", "--deg", "3,3")  # 16 columns


@pytest.mark.parametrize("argv, limit", [
    (("star", "--n", "29"), b"column limit"),
    (("star", "--n", "3000"), b"column limit"),
    (("defective", *_OVER_LIMIT), b"column limit"),
    (("hypotheses", *_OVER_LIMIT), b"column limit"),
    (("secant", *_OVER_LIMIT, "--r", "10000000"), b"column limit"),
    (("dim", *_OVER_LIMIT, "--scheme", "2^100000000"), b"column limit"),
    (("castelnuovo", *_OVER_LIMIT, "--scheme", "2^100000000", "--divisor", "0:0"),
     b"column limit"),
    (("secant", "--space", "1", "--deg", "2", "--r", "30000000"), b"8192 row limit"),
    (("dim", *_SMALL, "--scheme", "2^30000000"), b"8192 row limit"),
    (("castelnuovo", *_SMALL, "--scheme", "2^30000000", "--divisor", "0:0"),
     b"8192 row limit"),
], ids=["star-29", "star-3000", "defective", "hypotheses", "secant", "dim", "castelnuovo",
        "secant-rows", "dim-rows", "castelnuovo-rows"])
def test_star_past_the_column_limit_is_refused_at_once(argv, limit):
    # the column count is checked before any point is listed or drawn: the
    # cubics on P^28 have 4495 columns; the other systems would list or
    # draw millions of points.  So is the row count, from the scheme type
    # or the number of secant points: the last three systems are small in
    # columns, but would list tens of millions of points
    proc = subprocess.run([sys.executable, "-m", "fatpoints.cli", *argv],
                          capture_output=True, env=_module_env(), timeout=60)
    assert proc.returncode == 64, proc.stderr
    assert limit in proc.stderr and proc.stdout == b""


@pytest.mark.parametrize("n", [26, 27, 28])
def test_star_past_the_row_limit_is_refused_before_it_is_drawn(capsys, no_star_draw, n):
    # the doubled cubics on P^(n-1) fit the column limit up to n = 28 but
    # have binom(n+1, 2) * n > 8192 rows from n = 26 on: refused before any
    # coordinate of the star is drawn or any of its systems is certified
    code, out, err = run_cli(capsys, "star", "--n", str(n))
    assert code == 64 and out == ""
    assert "8192 row limit" in err


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


@pytest.mark.parametrize("flag,value", [("--prime", "1000")])
def test_bad_field_settings_exit64(capsys, flag, value):
    code, _, err = run_cli(capsys, "dim", "--space", "1x1", "--deg", "3,3",
                           "--scheme", "3,2^3", flag, value)
    assert code == 64
    assert value in err


def test_retries_is_not_an_option(capsys):
    # the attempt schedule is fixed: (prime, seed), then the alternate prime
    # at a fresh seed (engine.dimensions)
    code, out, err = run_cli(capsys, "dim", "--space", "1x1", "--deg", "3,3",
                             "--scheme", "2", "--retries", "2")
    assert code == 64 and out == ""
    assert "unrecognized arguments: --retries 2" in err
