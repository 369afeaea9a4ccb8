"""Command-line interface.

Exit codes encode the strength of the result so automation can gate on
certification: 0 = certified (Regular/Zero, or a passing verification),
2 = evidence-grade special candidate, 3 = inconclusive, 1 = verification
failure, 64 = usage error.

With --cache PATH, requests are keyed by a content hash and answered from
an append-only JSONL file when already computed.  The key is CPython's own
SHA-256 (_sha2, or _sha256 before Python 3.12), so no request loads
OpenSSL's libcrypto; hashlib serves only where neither module is built.  A
lookup reads the file from its end, one block at a time, so it holds one
block of the file, and a recent record answers after the first read.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import __version__, arith
from .degeneration import (
    DivisorSpec,
    castelnuovo_bound_check,
    specialize_onto,
    star_configuration,
    star_nonspeciality_check,
    star_span_check,
)
from .engine import DimensionVerdict, PrimeFieldConfig, dimension
from .replication import run_basecases
from .schemes import FatPointScheme, make_scheme
from .secant import is_defective, secant_dim, theorem_hypotheses
from .spaces import Multidegree, MultiProjectiveSpace

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


def _system_from_flags(args):
    """The space, degree and scheme of --space, --deg and a --scheme type,
    where each --on-divisor FACTOR:INDEX:COUNT confines the next COUNT points
    (in scheme order) to the coordinate divisor {x_index = 0}: specialize_onto
    on the points not yet placed.  The scheme is held as runs, so neither
    step lists a point; the column and row limits are checked before any
    point is drawn (dimension, castelnuovo_bound_check)."""
    space, degree = _parse_space(args.space), _parse_deg(args.deg)
    scheme, placed = make_scheme(args.scheme), 0
    for spec in args.on_divisor or []:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError(f"bad --on-divisor {spec!r}, expected FACTOR:INDEX:COUNT")
        factor, index, count = (int(t) for t in parts)
        if count < 1:
            raise ValueError(f"bad --on-divisor {spec!r}, COUNT must be >= 1")
        head, rest = scheme.split(placed)
        rest = specialize_onto(space, FatPointScheme(rest), DivisorSpec(factor, index), count)
        scheme = FatPointScheme(head + rest.runs)
        placed += count
    return space, degree, scheme


def _config(args) -> PrimeFieldConfig:
    return PrimeFieldConfig(prime=args.prime, seed=args.seed)


def _status_exit(status: DimensionVerdict) -> int:
    if status.certified:
        return EXIT_OK
    if status == DimensionVerdict.SPECIAL_CANDIDATE:
        return EXIT_SPECIAL
    return EXIT_INCONCLUSIVE


# --- subcommand handlers: return (doc, text, exit_code) -----------------


def _cmd_dim(args, config):
    space, degree, scheme = _system_from_flags(args)
    cert = dimension(space, degree, scheme, config)
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
    return doc, text, _status_exit(cert.status)


def _cmd_secant(args, config):
    space = _parse_space(args.space)
    degree = _parse_deg(args.deg)
    verdict = secant_dim(space, degree, args.r, config)
    doc = verdict.to_json()
    text = (
        f"sigma_{args.r} of the ({degree.label()}) embedding of {space.label()}: "
        f"dim {verdict.actual_dim}, expected {verdict.expected_dim}, "
        f"defect {verdict.defect}"
    )
    return doc, text, _status_exit(verdict.certificate.status)


def _cmd_defective(args, config):
    space = _parse_space(args.space)
    degree = _parse_deg(args.deg)
    report = is_defective(space, degree, config)
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
    return doc, text, code


def _cmd_hypotheses(args, config):
    space = _parse_space(args.space)
    degree = _parse_deg(args.deg)
    report = theorem_hypotheses(space, degree, config)
    doc = report.to_json()
    verdict = "hold" if report.all_hold else "FAIL"
    text = (
        f"collision hypotheses for ({degree.label()}) on {space.label()} "
        f"at r in {list(report.r_values)}: {verdict} "
        f"(dim L(3) = {report.dim3}, dim L(4) = {report.dim4})"
    )
    return doc, text, EXIT_OK if report.all_hold else EXIT_FAIL


def _cmd_basecases(args, config):
    report = run_basecases(filter=args.filter, config=config)
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
    return report, "\n".join(lines), EXIT_OK if report["passed"] else EXIT_FAIL


def _cmd_verify_arith(args, config):
    if args.lemma:
        results = {args.lemma: arith.verify_lemma(args.lemma, args.bound)}
    else:
        results = arith.verify_all(args.bound)
    total = sum(len(v) for v in results.values())
    doc = {
        "bound": args.bound,
        "lemmas": {
            lid: {"counterexamples": [list(c) for c in ces]}
            for lid, ces in results.items()
        },
        "total_counterexamples": total,
    }
    text = f"{len(results)} lemma(s) checked up to {args.bound}: {total} counterexamples"
    for lid, ces in results.items():
        if ces:
            text += f"\n  {lid}: {ces[:5]}"
    return doc, text, EXIT_OK if total == 0 else EXIT_FAIL


def _cmd_star(args, config):
    # star_configuration refuses an oversized star before it draws one
    star = star_configuration(args.n, config.prime, config.seed)
    certs = star_nonspeciality_check(star, config.seed)
    span_ok = star_span_check(star)
    ok = span_ok and all(c.status.certified for c in certs.values())
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
    return doc, text, EXIT_OK if ok else EXIT_FAIL


def _cmd_castelnuovo(args, config):
    space, degree, scheme = _system_from_flags(args)
    divisor = _parse_divisor(args.divisor)
    report = castelnuovo_bound_check(space, degree, scheme, divisor, config)
    ok = report["additive"] and report["bound_holds"] and report["vdim_le_dim"]
    text = (
        f"dim {report['dim']} <= {report['dim_residue']} (residue) + "
        f"{report['dim_trace']} (trace): "
        f"{'holds' if report['bound_holds'] else 'FAILS'}; vdim additivity "
        f"{'holds' if report['additive'] else 'FAILS'}"
    )
    return dict(report, passed=ok), text, EXIT_OK if ok else EXIT_FAIL


# --- cache ---------------------------------------------------------------


@functools.cache
def _sha256():
    """CPython's own SHA-256 constructor, bound at the first request key.
    hashlib would map OpenSSL's libcrypto (about 3.5 MB of RSS) to hash a
    few hundred bytes, so it serves only where neither module is built, as
    random.py does for its SHA-512.  All three give the same digest."""
    try:
        from _sha2 import sha256  # Python 3.12+
    except ImportError:
        try:
            from _sha256 import sha256  # Python 3.10-3.11
        except ImportError:
            from hashlib import sha256
    return sha256


def _request_key(args) -> str:
    payload = {
        k: v for k, v in vars(args).items() if k not in ("handler", "json", "cache")
    }
    # the version keeps records of another engine version from being replayed
    payload["version"] = __version__
    blob = json.dumps(payload, sort_keys=True).encode()
    return _sha256()(blob).hexdigest()


_BLOCK = 1 << 20  # the bytes of the cache file a lookup reads at a time


def _cache_record(line, key: str):
    """The record that `line` holds under `key`, or None for a damaged line:
    cut short, not UTF-8, not an object, or without a record's fields."""
    try:
        rec = json.loads(line)
    except ValueError:
        return None
    # a hit must be a record as _cache_append writes it
    if (
        isinstance(rec, dict) and rec.get("key") == key
        and isinstance(rec.get("result"), dict)
        and isinstance(rec.get("text"), str)
        and isinstance(rec.get("exit"), int)
    ):
        return rec
    return None


def _cache_lookup(path: str, key: str):
    """The last valid record under `key` in the cache file at `path`, or None
    for a missing file or no such record.  The file is read from its end in
    blocks of _BLOCK bytes, and the first valid record found answers, so a
    lookup holds one block, a recent record costs one read and a miss reads
    the file once.  Every record _cache_append writes holds its key verbatim,
    so each block's bytes are searched for the key's, and only the line
    around an occurrence is parsed.  A block's first line may begin in the
    block before it; that part is carried into the next read, so a line cut
    by a block boundary is parsed whole, and once.  A damaged line is
    skipped."""
    try:
        fh = open(path, "rb")
    except FileNotFoundError:
        return None
    needle = key.encode()
    with fh:
        end = fh.seek(0, os.SEEK_END)
        carry = b""  # the file from `end` to the first newline after it
        while end:
            start = max(end - _BLOCK, 0)
            fh.seek(start)
            block = fh.read(end - start)
            end = start
            # the whole lines begin after the block's first newline, or at
            # the file's start
            head = block.find(b"\n") + 1 if start else 0
            if start and not head:  # a line longer than the block
                carry = block + carry
            else:
                last = block.rfind(b"\n") + 1
                # the line the block's end cuts, made whole by the carry
                line = block[last:] + carry
                if needle in line and (rec := _cache_record(line, key)) is not None:
                    return rec
                at = last
                while (at := block.rfind(needle, head, at)) >= 0:
                    # the search goes on before this line, so no line is parsed twice
                    at, stop = block.rfind(b"\n", 0, at) + 1, block.find(b"\n", at) + 1
                    if (rec := _cache_record(block[at:stop], key)) is not None:
                        return rec
                carry = block[:head]
            del block  # so that the next read does not hold two blocks
    return None


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
    sp.add_argument("--prime", type=int, default=PrimeFieldConfig.prime)
    sp.add_argument("--seed", type=int, default=PrimeFieldConfig.seed)
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


@functools.cache
def build_parser() -> _Parser:
    """The CLI's parser, built at the first call and shared by every later
    one in the process; `main` only parses with it."""
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
    sp.add_argument("--lemma", default=None, choices=arith.lemma_ids(), metavar="LEMMA")
    sp.add_argument("--bound", type=int, default=40)
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


def _usage(message) -> int:
    print(f"fatpoints: {message}", file=sys.stderr)
    return EXIT_USAGE


def _reply(args, doc: dict, text: str, code: int) -> int:
    """Print a reply and return its exit code.  If the reader has closed
    stdout (`| head`), drop the rest quietly; the code stays the verdict's."""
    try:
        print(json.dumps(doc, sort_keys=True, indent=2) if args.json else text)
        sys.stdout.flush()
    except BrokenPipeError:
        # so that the flush at interpreter exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE

    try:
        config = _config(args)
    except ValueError as exc:
        return _usage(exc)

    if args.cache:
        key = _request_key(args)
        try:
            rec = _cache_lookup(args.cache, key)
        except OSError as exc:
            return _usage(f"cannot read the cache file {args.cache}: {exc.strerror}")
        if rec is not None:
            cached_doc = dict(rec["result"], cached=True)
            return _reply(args, cached_doc, rec["text"], rec["exit"])

    try:
        doc, text, code = args.handler(args, config)
    except (ValueError, argparse.ArgumentTypeError) as exc:
        return _usage(exc)

    if args.cache:
        try:
            _cache_append(
                args.cache, {"key": key, "result": doc, "text": text, "exit": code}
            )
        except OSError as exc:
            reason = exc.strerror or exc
            return _usage(f"cannot write the cache file {args.cache}: {reason}")

    return _reply(args, doc, text, code)


if __name__ == "__main__":
    sys.exit(main())
