"""The benchmark's workloads.

Each workload draws its question list from the benchmark seed once
(`prepare`), answers the whole list in one timed pass (`run_pass`), and
checks a pass's answers against a reference that does not depend on the
prime or the seed (`check`).  Pass k runs with PrimeFieldConfig(seed=seed+k),
so repeated passes replay the same questions over consecutive seeds.

Only public functions of the package are called, and always through the
module attribute at call time, so the timing wrappers of a traced pass
see every call.  README.md says why each workload is in the benchmark.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random

import fatpoints
import fatpoints.cli

import reference as ref

MultiProjectiveSpace = fatpoints.MultiProjectiveSpace
Multidegree = fatpoints.Multidegree


class Outcome:
    """Answers checked and the ones that were wrong or raised."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def merge(self, other: "Outcome") -> None:
        self.attempted += other.attempted
        self.failures.extend(other.failures)


def _answer(fn, *args, **kwargs):
    """Call into the package; an exception becomes the answer, which the
    gate then counts as a failure instead of stopping the run."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        return exc


def _space_degree(dims, degs):
    return MultiProjectiveSpace(tuple(dims)), Multidegree(tuple(degs))


# --- rank kernel against the exact oracle ----------------------------------


def oracle_systems(seed: int, count: int = 3):
    """Small systems of fat points with pinned integer coordinates."""
    rng = random.Random(seed)
    systems = []
    for _ in range(count):
        dims = rng.choice(((1, 1), (1, 2), (2, 1), (2,)))
        degs = tuple(rng.randint(2, 3) for _ in dims)
        points = []
        for _ in range(rng.randint(1, 3)):
            coords = tuple(
                tuple(rng.randint(1, 30) for _ in range(n + 1)) for n in dims
            )
            points.append(
                fatpoints.FatPoint(rng.randint(1, 3), fatpoints.PointSpec(None, coords))
            )
        systems.append((*_space_degree(dims, degs), fatpoints.FatPointScheme(points)))
    return systems


def oracle_check(seed: int) -> Outcome:
    """The rank the engine's kernel reports through dimension() must equal
    the rank over the rationals from exact_rank_oracle."""
    out = Outcome()
    config = fatpoints.PrimeFieldConfig(seed=seed)
    for space, degree, scheme in oracle_systems(seed):
        cert = _answer(fatpoints.dimension, space, degree, scheme, config)
        exact = _answer(fatpoints.engine.exact_rank_oracle, space, degree, scheme)
        ok = not isinstance(cert, Exception) and cert.rank == exact
        out.check(ok, f"oracle {space.label()} ({degree.label()}) "
                      f"{scheme.type_label()}: {getattr(cert, 'rank', cert)} != {exact}")
    return out


# --- workloads ----------------------------------------------------------------


class MainTheorem:
    name = "main_theorem"

    def prepare(self, seed, workdir, small=False):
        return {"max_m": 1 if small else 3, "max_n": 2 if small else 3}

    def run_pass(self, inputs, config, phase):
        return _answer(
            fatpoints.verify_main_theorem, inputs["max_m"], inputs["max_n"], config
        )

    def check(self, inputs, result, reference=ref.MAIN_THEOREM_STATUSES):
        expected = {
            key: statuses for key, statuses in reference.items()
            if key[0][0] <= inputs["max_m"] and key[0][1] <= inputs["max_n"]
        }
        out = Outcome()
        if isinstance(result, Exception):
            for key in expected:
                out.check(False, f"main_theorem {key}: raised {result!r}")
            return out
        got = {(tuple(e["space"]), tuple(e["degree"])): e for e in result["cases"]}
        for key, statuses in expected.items():
            e = got.pop(key, None)
            ok = (
                e is not None
                and e["certified_nondefective"]
                and (e["low_status"], e["high_status"]) == statuses
            )
            out.check(ok, f"main_theorem {key}: {e}")
        for key in got:
            out.check(False, f"main_theorem: unexpected case {key}")
        return out


class Registry:
    name = "registry"

    def prepare(self, seed, workdir, small=False):
        return {
            "basecase_filter": "44-1x1" if small else None,
            "hypotheses": ref.HYPOTHESIS_CASES[:1] if small else ref.HYPOTHESIS_CASES,
            "arith_bound": 12 if small else ref.ARITH_BOUND,
            "castelnuovo": castelnuovo_cases(seed, 2 if small else 8),
        }

    def run_pass(self, inputs, config, phase):
        return {
            "basecases": _answer(
                fatpoints.run_basecases, filter=inputs["basecase_filter"], config=config
            ),
            "hypotheses": [
                _answer(fatpoints.theorem_hypotheses, *_space_degree(*case), config)
                for case in inputs["hypotheses"]
            ],
            "ledger": _answer(fatpoints.verify_all, inputs["arith_bound"]),
            "castelnuovo": [
                _answer(fatpoints.castelnuovo_bound_check, *case, config)
                for case in inputs["castelnuovo"]
            ],
        }

    def check(self, inputs, result, reference=None):
        reference = reference or {
            "basecases": ref.BASECASE_COUNTS, "ledger": ref.LEDGER_SIZE,
        }
        out = Outcome()
        report = result["basecases"]
        if isinstance(report, Exception):
            out.check(False, f"run_basecases raised {report!r}")
        else:
            for e in report["cases"]:
                out.check(e["ok"], f"fixture {e['id']}: {e['status']}")
            expected = reference["basecases"][inputs["basecase_filter"]]
            out.check(report["total"] == expected,
                      f"{report['total']} fixtures, expected {expected}")
            out.check(not report["table_flags"], f"table flags {report['table_flags']}")
        for case, rep in zip(inputs["hypotheses"], result["hypotheses"]):
            ok = not isinstance(rep, Exception) and rep.all_hold
            out.check(ok, f"hypotheses {case}: {rep!r}")
        ledger = result["ledger"]
        if isinstance(ledger, Exception):
            out.check(False, f"verify_all raised {ledger!r}")
        else:
            for lemma, counterexamples in ledger.items():
                out.check(not counterexamples, f"lemma {lemma}: {counterexamples[:3]}")
            out.check(len(ledger) == reference["ledger"],
                      f"ledger has {len(ledger)} lemmas")
        for case, rep in zip(inputs["castelnuovo"], result["castelnuovo"]):
            ok = not isinstance(rep, Exception) and (
                rep["bound_holds"] and rep["additive"] and rep["vdim_le_dim"]
            )
            out.check(ok, f"castelnuovo {case[0].label()} ({case[1].label()}): {rep!r}")
        return out


def castelnuovo_cases(seed: int, count: int):
    """(space, degree, scheme, divisor) with some points on the divisor."""
    rng = random.Random(seed)
    cases = []
    while len(cases) < count:
        dims = (rng.randint(1, 2), rng.randint(1, 2))
        factor = rng.randrange(2)
        if dims[factor] < 2:
            factor = 1 - factor
        if dims[factor] < 2:
            continue
        space, degree = _space_degree(dims, (rng.randint(1, 3), rng.randint(1, 3)))
        divisor = fatpoints.DivisorSpec(factor, rng.randint(0, dims[factor]))
        scheme = fatpoints.make_scheme([(rng.randint(1, 3), rng.randint(1, 4))])
        scheme = fatpoints.specialize_onto(
            space, scheme, divisor, rng.randint(1, len(scheme.points))
        )
        cases.append((space, degree, scheme, divisor))
    return cases


class Veronese:
    name = "veronese"

    def prepare(self, seed, workdir, small=False):
        return {"max_n": 2 if small else ref.AH_MAX_N, "max_d": 4 if small else ref.AH_MAX_D}

    def run_pass(self, inputs, config, phase):
        return _answer(
            fatpoints.verify_ah, config, max_n=inputs["max_n"], max_d=inputs["max_d"]
        )

    def check(self, inputs, result, reference=ref.AH_SPORADIC):
        pairs = ref.ah_pairs(inputs["max_n"], inputs["max_d"])
        out = Outcome()
        if isinstance(result, Exception):
            for pair in pairs:
                out.check(False, f"veronese {pair}: raised {result!r}")
            return out
        cases = result["cases"]
        for pair, e in zip(pairs, cases):
            n, d = pair
            rs = ref.ah_defective_rs(n, d, reference)
            defects = {str(r): ref.ah_defect(n, d, r) for r in rs}
            ok = (
                (e["n"], e["d"]) == pair
                and e["expected_defective_rs"] == rs
                and e["certified_nondefective"] == (not rs)
                and e["defects"] == defects
            )
            out.check(ok, f"veronese {pair}: {e}")
        for _ in range(abs(len(cases) - len(pairs))):
            out.check(False, f"veronese: {len(cases)} cases, expected {len(pairs)}")
        return out


class CliSweep:
    name = "cli_sweep"

    def prepare(self, seed, workdir, small=False):
        requests = cli_requests(seed, 20 if small else 300)
        order = list(range(len(requests)))
        random.Random(seed).shuffle(order)
        return {
            "requests": requests,
            "hit_order": order,
            "cache": os.path.join(workdir, "cli-cache.jsonl"),
        }

    def run_pass(self, inputs, config, phase):
        cache = inputs["cache"]
        if os.path.exists(cache):
            os.remove(cache)
        tail = ["--json", "--cache", cache]
        with phase("cli_sweep.misses"):
            misses = [_cli(argv + tail) for argv in inputs["requests"]]
        cache_bytes = os.path.getsize(cache) if os.path.exists(cache) else 0
        hits = [None] * len(misses)
        with phase("cli_sweep.hits"):
            for i in inputs["hit_order"]:
                hits[i] = _cli(inputs["requests"][i] + tail)
        return {"misses": misses, "hits": hits, "cache_bytes": cache_bytes}

    def check(self, inputs, result, reference=None):
        """A miss must answer (exit 0 certified or 2 special candidate) and
        the cached reply must repeat it, apart from `cached: true`."""
        out = Outcome()
        for argv, miss, hit in zip(inputs["requests"], result["misses"], result["hits"]):
            label = " ".join(argv)
            miss_doc, hit_doc = _doc(miss[1]), _doc(hit[1])
            out.check(
                miss[0] in (0, 2) and isinstance(miss_doc, dict) and "cached" not in miss_doc,
                f"cli miss {label}: exit {miss[0]} {miss[1][:200]!r}",
            )
            out.check(
                hit[0] == miss[0] and isinstance(miss_doc, dict)
                and hit_doc == dict(miss_doc, cached=True),
                f"cli hit {label}: exit {hit[0]} vs {miss[0]}",
            )
        return out


# (space, degree) pairs of at most 70 columns
_CLI_SYSTEMS = tuple(
    (dims, degs)
    for dims, degree_range in (
        ((1,), (2, 3, 4)), ((2,), (2, 3, 4)), ((3,), (2, 3, 4)), ((4,), (2, 3, 4)),
        ((1, 1), (1, 2, 3)), ((1, 2), (1, 2, 3)), ((2, 1), (1, 2, 3)),
        ((2, 2), (1, 2)), ((1, 1, 1), (1, 2)),
    )
    for degs in itertools.product(degree_range, repeat=len(dims))
)


def cli_requests(seed: int, count: int) -> list[list[str]]:
    """`count` distinct small requests in a fixed mix (6 dim : 3 secant :
    1 defective), so every seed asks for about the same amount of work."""
    rng = random.Random(seed)
    n_defective = count // 10
    n_secant = 3 * count // 10
    kinds = ["defective"] * n_defective + ["secant"] * n_secant
    kinds += ["dim"] * (count - len(kinds))
    rng.shuffle(kinds)
    defective = rng.sample(_CLI_SYSTEMS, n_defective)
    seen, out = set(), []
    for kind in kinds:
        while True:
            if kind == "defective":
                (dims, degs), extra = defective.pop(), ()
            else:
                dims, degs = rng.choice(_CLI_SYSTEMS)
                if kind == "secant":
                    extra = ("--r", str(rng.randint(1, 8)))
                else:
                    terms = [f"{rng.randint(1, 3)}^{rng.randint(1, 6)}"
                             for _ in range(rng.randint(1, 2))]
                    extra = ("--scheme", ",".join(terms))
            argv = (kind, "--space", "x".join(map(str, dims)),
                    "--deg", ",".join(map(str, degs)), *extra, "--seed", str(seed))
            if argv not in seen:
                break
        seen.add(argv)
        out.append(list(argv))
    return out


def _cli(argv: list[str]) -> tuple[int | None, str]:
    """(exit code, stdout) of one in-process CLI call; exit None if it raised."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = _answer(fatpoints.cli.main, argv)
    if isinstance(code, Exception):
        return None, repr(code)
    return code, stdout.getvalue()


def _doc(text: str):
    try:
        return json.loads(text)
    except ValueError:
        return None


WORKLOADS = {w.name: w for w in (MainTheorem(), Registry(), Veronese(), CliSweep())}
