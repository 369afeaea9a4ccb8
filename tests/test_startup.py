"""The start-up contract: numpy loads at the first matrix, not with the package,
and no request loads OpenSSL (hashlib's _hashlib): a cache key is hashed with
CPython's own SHA-256 module, _sha2 or _sha256.

Each test runs a fresh interpreter (sys.executable), because the test process
has numpy loaded already.  "Loads no numpy" means that no numpy.* submodule
is in sys.modules when the child ends: the package registers numpy there at
import, unexecuted, and numpy's first attribute access executes it.
"""
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fatpoints import _lazy_import, replication
from fatpoints.cli import main

SRC = str(Path(__file__).parents[1] / "src")

# runs its arguments through the CLI's main, prints the reply to stdout, and
# ends with one JSON line on stderr: the exit code, the numpy submodules that
# were loaded and whether OpenSSL was
CLI_PROBE = """
import json, sys
from fatpoints.cli import main
code = main(sys.argv[1:])
sys.stdout.flush()
numpy = sorted(m for m in sys.modules if m.startswith("numpy."))
openssl = "_hashlib" in sys.modules
print(json.dumps({"exit": code, "numpy": numpy, "openssl": openssl}), file=sys.stderr)
"""

DIM = ["dim", "--space", "2x2", "--deg", "2,2", "--scheme", "2^5", "--json"]


def _fresh(code: str, *args: str, cwd=None) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=120,
    )
    assert "Traceback" not in proc.stderr, proc.stderr
    return proc


def _probe(*argv: str, cwd=None) -> tuple[str, dict]:
    """The stdout and the probe's line of one fresh CLI run."""
    proc = _fresh(CLI_PROBE, *argv, cwd=cwd)
    return proc.stdout, json.loads(proc.stderr.splitlines()[-1])


def _cli(*argv: str, cwd=None) -> tuple[int, str, list[str]]:
    """(exit code, stdout, loaded numpy submodules) of one fresh CLI run."""
    out, probe = _probe(*argv, cwd=cwd)
    return probe["exit"], out, probe["numpy"]


def test_the_lazy_binding_of_a_loaded_or_missing_module():
    assert _lazy_import("numpy") is sys.modules["numpy"]
    with pytest.raises(ModuleNotFoundError, match="no_such_module"):
        _lazy_import("no_such_module")
    assert "no_such_module" not in sys.modules


def test_importing_the_package_and_its_registry_loads_no_numpy():
    proc = _fresh(
        "import sys, fatpoints\n"
        "fatpoints.load_bundled_registry()\n"
        "print(sorted(m for m in sys.modules if m.startswith('numpy.')))"
    )
    assert proc.stdout == "[]\n"


def test_a_cache_hit_and_a_usage_error_load_no_numpy(tmp_path):
    argv = [*DIM, "--cache", str(tmp_path / "c.jsonl")]
    code, miss, loaded = _cli(*argv)
    assert code == 0 and loaded
    code, hit, loaded = _cli(*argv)
    assert code == 0 and loaded == []
    assert json.loads(hit) == dict(json.loads(miss), cached=True)

    code, _, loaded = _cli("dim", "--space", "1x1", "--deg", "3,3", "--scheme", "2",
                           "--prime", "1000")
    assert code == 64 and loaded == []


def test_a_fresh_miss_loads_numpy_and_answers_as_in_process(capsys):
    code, reply, loaded = _cli(*DIM)
    assert code == 0 and "numpy._core" in loaded
    assert main(DIM) == 0
    assert reply == capsys.readouterr().out


def test_no_request_loads_openssl(tmp_path):
    # the request key is the CLI's one hash, and only --cache makes one; it
    # falls back to hashlib, and so to OpenSSL, only where CPython's own
    # SHA-256 module is not built
    builtin = any(importlib.util.find_spec(m) for m in ("_sha2", "_sha256"))
    openssl = not builtin and importlib.util.find_spec("_hashlib") is not None
    reply, probe = _probe(*DIM)
    assert probe["exit"] == 0 and probe["openssl"] is False
    argv = [*DIM, "--cache", str(tmp_path / "c.jsonl")]
    miss, probe = _probe(*argv)
    assert probe["exit"] == 0 and probe["openssl"] is openssl
    assert miss == reply
    hit, probe = _probe(*argv)
    assert probe["exit"] == 0 and probe["openssl"] is openssl
    assert json.loads(hit) == dict(json.loads(reply), cached=True)


@pytest.mark.skipif(replication._allowed_cpus() < 2, reason="fewer than 2 CPUs allowed")
def test_the_first_basecases_of_a_fresh_process_fan_out():
    if replication._openblas_threads() is None:
        pytest.skip("no OpenBLAS thread control, so the drivers run serially")
    # the OpenBLAS lookup is made once per process, so it must see numpy's
    # library mapped although nothing has loaded numpy before the driver
    proc = _fresh(
        "import fatpoints\n"
        "from fatpoints import replication\n"
        "report = fatpoints.run_basecases()\n"
        "print(report['passed'], replication._openblas_threads() is not None)"
    )
    assert proc.stdout.split() == ["True", "True"]
