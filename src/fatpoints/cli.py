"""Command-line interface.

Exit codes encode the strength of the result so automation can gate on
certification: 0 = certified (Regular/Zero, or a passing verification),
2 = evidence-grade special candidate, 3 = inconclusive, 1 = verification
failure, 64 = usage error.

With --cache PATH, requests are keyed by a content hash and answered from
an append-only JSONL file when already computed.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

from . import __version__, arith
from .degeneration import (
    DivisorSpec,
    castelnuovo_bound_check,
    star_configuration,
    star_nonspeciality_check,
    star_span_check,
)
from .engine import DEFAULT_PRIME, DimensionVerdict, PrimeFieldConfig, dimension
from .replication import run_basecases
from .schemes import make_scheme, virtual_dim
from .secant import is_defective, secant_dim, theorem_hypotheses
from .spaces import CoordinateSubvariety, Multidegree, MultiProjectiveSpace

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_SPECIAL = 2
EXIT_INCONCLUSIVE = 3
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _parse_space(text: str) -> MultiProjectiveSpace:
    try:
        return MultiProjectiveSpace(tuple(int(t) for t in text.split("x")))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad space {text!r}: {exc}")


def _parse_deg(text: str) -> Multidegree:
    try:
        return Multidegree(tuple(int(t) for t in text.split(",")))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad degree {text!r}: {exc}")


def _parse_divisor(text: str) -> DivisorSpec:
    try:
        factor, index = (int(t) for t in text.split(":"))
        return DivisorSpec(factor, index)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad divisor {text!r}, expected FACTOR:INDEX"
        )


def _strata_from_flags(space, on_divisor: list[str] | None, npoints: int):
    """Each --on-divisor FACTOR:INDEX:COUNT confines the next COUNT points
    (in scheme order) to the coordinate divisor {x_index = 0}."""
    strata: list[CoordinateSubvariety | None] = []
    for spec in on_divisor or []:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError(f"bad --on-divisor {spec!r}, expected FACTOR:INDEX:COUNT")
        factor, index, count = (int(t) for t in parts)
        sub = DivisorSpec(factor, index).as_subvariety(space)
        strata.extend([sub] * count)
    if len(strata) > npoints:
        raise ValueError("--on-divisor flags cover more points than the scheme has")
    return strata


def _config(args) -> PrimeFieldConfig:
    prime = args.prime
    if prime is None:
        prime = int(os.environ.get("FATPOINTS_PRIME", DEFAULT_PRIME))
    seed = args.seed
    if seed is None:
        seed = int(os.environ.get("FATPOINTS_SEED", 0))
    return PrimeFieldConfig(prime=prime, seed=seed, retries=args.retries)


def _status_exit(status: DimensionVerdict) -> int:
    if status.certified:
        return EXIT_OK
    if status == DimensionVerdict.SPECIAL_CANDIDATE:
        return EXIT_SPECIAL
    return EXIT_INCONCLUSIVE


# --- subcommand handlers: return (request, doc, text, exit_code) ---------


def _cmd_dim(args, config):
    space = _parse_space(args.space)
    degree = _parse_deg(args.deg)
    strata = _strata_from_flags(space, args.on_divisor, 10**9)
    profile = args.scheme
    scheme = make_scheme(profile, strata or None)
    cert = dimension(space, degree, scheme, config)
    request = {
        "command": "dim",
        "space": list(space.factor_dims),
        "degree": list(degree.degrees),
        "scheme": scheme.to_json(),
    }
    doc = {
        "space": list(space.factor_dims),
        "degree": list(degree.degrees),
        "type": scheme.type_label(),
        "certificate": cert.to_json(),
    }
    text = (
        f"L_{{{space.label()}}}^{{{degree.label()}}}({scheme.type_label()}): "
        f"dim {cert.computed_dim} (vdim {cert.virtual_dim}, "
        f"expected {cert.expected_dim}) {cert.status.value}"
    )
    return request, doc, text, _status_exit(cert.status)


def _cmd_secant(args, config):
    space = _parse_space(args.space)
    degree = _parse_deg(args.deg)
    verdict = secant_dim(space, degree, args.r, config)
    request = {
        "command": "secant",
        "space": list(space.factor_dims),
        "degree": list(degree.degrees),
        "r": args.r,
    }
    doc = verdict.to_json()
    text = (
        f"sigma_{args.r} of the ({degree.label()}) embedding of {space.label()}: "
        f"dim {verdict.actual_dim}, expected {verdict.expected_dim}, "
        f"defect {verdict.defect}"
    )
    return request, doc, text, _status_exit(verdict.certificate.status)


def _cmd_defective(args, config):
    space = _parse_space(args.space)
    degree = _parse_deg(args.deg)
    report = is_defective(space, degree, config)
    request = {
        "command": "defective",
        "space": list(space.factor_dims),
        "degree": list(degree.degrees),
    }
    doc = report.to_json()
    if report.certified_nondefective:
        text = (
            f"({degree.label()}) embedding of {space.label()}: non-defective "
            f"(certified at r = {report.r_low}, {report.r_high})"
        )
        code = EXIT_OK
    elif report.defective_evidence:
        text = (
            f"({degree.label()}) embedding of {space.label()}: evidence of "
            f"defectivity at r = {', '.join(map(str, report.defective_evidence))}"
        )
        code = EXIT_SPECIAL
    else:
        text = f"({degree.label()}) embedding of {space.label()}: inconclusive"
        code = EXIT_INCONCLUSIVE
    return request, doc, text, code


def _cmd_hypotheses(args, config):
    space = _parse_space(args.space)
    degree = _parse_deg(args.deg)
    report = theorem_hypotheses(space, degree, config)
    request = {
        "command": "hypotheses",
        "space": list(space.factor_dims),
        "degree": list(degree.degrees),
    }
    doc = report.to_json()
    verdict = "hold" if report.all_hold else "FAIL"
    text = (
        f"collision hypotheses for ({degree.label()}) on {space.label()} "
        f"at r in {list(report.r_values)}: {verdict} "
        f"(dim L(3) = {report.dim3}, dim L(4) = {report.dim4})"
    )
    return request, doc, text, EXIT_OK if report.all_hold else EXIT_FAIL


def _cmd_basecases(args, config):
    report = run_basecases(filter=args.filter, config=config)
    request = {"command": "basecases", "filter": args.filter}
    lines = [
        f"{'ok  ' if e['ok'] else 'FAIL'} {e['id']:24s} "
        f"L_{{{'x'.join(map(str, e['space']))}}}^{{{','.join(map(str, e['degree']))}}}"
        f"({e['type']}) -> {e['status']} dim {e['computed_dim']}"
        for e in report["cases"]
    ]
    lines.append(
        f"{report['total']} fixtures, "
        + ("all pass" if report["passed"] else f"FAILED: {report['failed']}")
    )
    return request, report, "\n".join(lines), EXIT_OK if report["passed"] else EXIT_FAIL


def _parse_bound(text: str) -> int:
    """'--n HI' -> HI.  Each lemma is checked on its own hypothesis range up
    to HI, so there is no lower bound to give: 'LO..HI' is a usage error."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"--n takes one upper bound HI, got {text!r}") from None


def _cmd_verify_arith(args, config):
    bound = _parse_bound(args.n) if args.n is not None else args.bound
    if args.lemma:
        ids = [args.lemma]
    else:
        ids = arith.lemma_ids()
    results = {}
    for lid in ids:
        results[lid] = arith.verify_lemma(lid, bound=bound)
    total = sum(len(v) for v in results.values())
    request = {"command": "verify-arith", "lemmas": ids, "bound": bound}
    doc = {
        "bound": bound,
        "lemmas": {
            lid: {"counterexamples": [list(c) for c in ces]}
            for lid, ces in results.items()
        },
        "total_counterexamples": total,
    }
    text = f"{len(ids)} lemma(s) checked up to {bound}: {total} counterexamples"
    for lid, ces in results.items():
        if ces:
            text += f"\n  {lid}: {ces[:5]}"
    return request, doc, text, EXIT_OK if total == 0 else EXIT_FAIL


def _cmd_star(args, config):
    star = star_configuration(args.n, config.prime, config.seed)
    span_ok = star_span_check(star)
    certs = star_nonspeciality_check(args.n, config)
    ok = span_ok and all(c.status.certified for c in certs.values())
    request = {"command": "star", "n": args.n}
    doc = {
        "n": args.n,
        "span_ok": span_ok,
        "systems": {name: c.to_json() for name, c in certs.items()},
        "passed": ok,
    }
    text = (
        f"star configuration in P^{args.n}: span check "
        f"{'ok' if span_ok else 'FAIL'}; "
        + "; ".join(
            f"{name} dim {c.computed_dim} {c.status.value}"
            for name, c in certs.items()
        )
    )
    return request, doc, text, EXIT_OK if ok else EXIT_FAIL


def _cmd_castelnuovo(args, config):
    space = _parse_space(args.space)
    degree = _parse_deg(args.deg)
    strata = _strata_from_flags(space, args.on_divisor, 10**9)
    scheme = make_scheme(args.scheme, strata or None)
    divisor = _parse_divisor(args.divisor)
    report = castelnuovo_bound_check(space, degree, scheme, divisor, config)
    ok = report["additive"] and report["bound_holds"] and report["vdim_le_dim"]
    request = {
        "command": "castelnuovo",
        "space": list(space.factor_dims),
        "degree": list(degree.degrees),
        "scheme": scheme.to_json(),
        "divisor": [divisor.factor, divisor.index],
    }
    text = (
        f"dim {report['dim']} <= {report['dim_residue']} (residue) + "
        f"{report['dim_trace']} (trace): "
        f"{'holds' if report['bound_holds'] else 'FAILS'}; vdim additivity "
        f"{'holds' if report['additive'] else 'FAILS'}"
    )
    return request, dict(report, passed=ok), text, EXIT_OK if ok else EXIT_FAIL


# --- cache ---------------------------------------------------------------


def _request_key(args, config: PrimeFieldConfig) -> str:
    skip = {"handler", "json", "cache", "prime", "seed", "retries"}
    payload = {k: v for k, v in vars(args).items() if k not in skip}
    # the version keeps records of another engine version from being replayed
    payload.update(
        prime=config.prime, seed=config.seed, retries=config.retries,
        version=__version__,
    )
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _cache_lookup(path: str, key: str):
    try:
        fh = open(path)
    except FileNotFoundError:
        return None
    hit = None
    with fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError:
                continue  # a damaged line, e.g. a write cut short
            if rec.get("key") == key:
                hit = rec
    return hit


def _cache_append(path: str, rec: dict):
    """Append one record as a single write(2) on an O_APPEND descriptor, so
    the lines of concurrent runs cannot interleave."""
    data = (json.dumps(rec, sort_keys=True) + "\n").encode()
    fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        if os.write(fd, data) != len(data):
            raise OSError(f"short write to the cache file {path}")
    finally:
        os.close(fd)


# --- argument parsing ------------------------------------------------------


def _add_common(sp):
    sp.add_argument("--prime", type=int, default=None)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--retries", type=int, default=2)
    sp.add_argument("--json", action="store_true", help="emit a JSON report")
    sp.add_argument("--cache", metavar="PATH", help="JSONL result cache")


def _add_system_flags(sp, scheme=True):
    sp.add_argument("--space", required=True, help="factor dims, e.g. 1x2")
    sp.add_argument("--deg", required=True, help="multidegree, e.g. 3,4")
    if scheme:
        sp.add_argument("--scheme", required=True, help="type, e.g. 3,2^15")
        sp.add_argument(
            "--on-divisor", action="append", metavar="FACTOR:INDEX:COUNT",
            help="confine the next COUNT points to a coordinate divisor",
        )


def build_parser() -> _Parser:
    parser = _Parser(prog="fatpoints", description=__doc__)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    sub.required = True

    sp = sub.add_parser("dim", help="dimension of a linear system")
    _add_system_flags(sp)
    _add_common(sp)
    sp.set_defaults(handler=_cmd_dim)

    sp = sub.add_parser("secant", help="dimension of one secant variety")
    _add_system_flags(sp, scheme=False)
    sp.add_argument("--r", type=int, required=True)
    _add_common(sp)
    sp.set_defaults(handler=_cmd_secant)

    sp = sub.add_parser("defective", help="certify non-defectivity")
    _add_system_flags(sp, scheme=False)
    _add_common(sp)
    sp.set_defaults(handler=_cmd_defective)

    sp = sub.add_parser("hypotheses", help="collision-argument hypotheses")
    _add_system_flags(sp, scheme=False)
    _add_common(sp)
    sp.set_defaults(handler=_cmd_hypotheses)

    sp = sub.add_parser("basecases", help="replay the fixture registry")
    sp.add_argument("--filter", default=None)
    _add_common(sp)
    sp.set_defaults(handler=_cmd_basecases)

    sp = sub.add_parser("verify-arith", help="check the arithmetic lemmas")
    sp.add_argument("--lemma", default=None)
    sp.add_argument("--bound", type=int, default=40)
    sp.add_argument("--n", default=None, metavar="HI", help="same as --bound")
    _add_common(sp)
    sp.set_defaults(handler=_cmd_verify_arith)

    sp = sub.add_parser("star", help="star-configuration checks")
    sp.add_argument("--n", type=int, required=True)
    _add_common(sp)
    sp.set_defaults(handler=_cmd_star)

    sp = sub.add_parser("castelnuovo", help="residue/trace bound check")
    _add_system_flags(sp)
    sp.add_argument("--divisor", required=True, metavar="FACTOR:INDEX")
    _add_common(sp)
    sp.set_defaults(handler=_cmd_castelnuovo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE

    try:
        config = _config(args)
    except ValueError as exc:
        print(f"fatpoints: {exc}", file=sys.stderr)
        return EXIT_USAGE

    key = _request_key(args, config)
    if args.cache:
        rec = _cache_lookup(args.cache, key)
        if rec is not None:
            cached_doc = dict(rec["result"], cached=True)
            if args.json:
                print(json.dumps(cached_doc, sort_keys=True, indent=2))
            else:
                print(rec["text"])
            return rec["exit"]

    try:
        request, doc, text, code = args.handler(args, config)
    except (ValueError, argparse.ArgumentTypeError) as exc:
        print(f"fatpoints: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if args.cache:
        _cache_append(
            args.cache,
            {"key": key, "request": request, "result": doc,
             "text": text, "exit": code},
        )

    if args.json:
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
