"""Spans recorded by timing wrappers that the benchmark installs from
outside the package.

A target is a public function named by its defining module, such as
``engine.rank_fp``.  Other modules import the same function object under
their own names (``secant.dimension`` and ``replication.dimension`` are
``engine.dimension``; ``engine.ideal_basis`` is ``spaces.ideal_basis``), so
the wrapper replaces every binding of that object in every loaded
``fatpoints`` module.  A target that no longer exists is skipped and its
metrics are reported as absent.

The package runs its work on one thread, so the open-span stack is a plain
list owned by the tracer.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    sid: int
    name: str
    parent: int | None
    root: int
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {
            "id": self.sid,
            "name": self.name,
            "parent": self.parent,
            "root": self.root,
            "start": self.start,
            "end": self.end,
            **self.attrs,
        }


class Tracer:
    """Keeps every span in memory; `write_jsonl` dumps them at the end."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        sid = len(self.spans)
        span = Span(
            sid, name,
            parent.sid if parent else None,
            parent.root if parent else sid,
            time.perf_counter(),
        )
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    @contextlib.contextmanager
    def phase(self, name: str):
        """A span opened by the benchmark itself around part of a pass."""
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_json()) + "\n")


# --- targets --------------------------------------------------------------


def _rank_attrs(args, kwargs, result) -> dict:
    rows, cols = args[0].shape
    return {"rows": rows, "cols": cols, "rank": int(result)}


def _matrix_attrs(args, kwargs, result) -> dict:
    return {"rows": result.rows, "cols": result.cols}


def _certificate_attrs(args, kwargs, result) -> dict:
    return {
        "attempts": len(result.runs),
        "first_attempt_certified": result.status.certified and len(result.runs) == 1,
    }


@dataclass(frozen=True)
class Target:
    name: str  # "<module>.<function>" inside the fatpoints package
    annotate: Callable | None = None

    @property
    def module(self) -> str:
        return "fatpoints." + self.name.rsplit(".", 1)[0]

    @property
    def attr(self) -> str:
        return self.name.rsplit(".", 1)[1]


TARGETS = (
    Target("spaces.ideal_basis"),
    Target("schemes.make_scheme"),
    Target("engine.draw_scheme_points"),
    Target("engine.build_matrix", _matrix_attrs),
    Target("engine.rank_fp", _rank_attrs),
    Target("engine.dimension", _certificate_attrs),
    Target("secant.secant_dim"),
    Target("secant.is_defective"),
    Target("secant.theorem_hypotheses"),
    Target("degeneration.castelnuovo_bound_check"),
    Target("replication.run_basecases"),
    Target("replication.verify_ah"),
    Target("replication.verify_main_theorem"),
    Target("arith.verify_all"),
    Target("cli.main"),
)


def _wrap(tracer: Tracer, target: Target, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.open(target.name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if target.annotate is not None:
            span.attrs = target.annotate(args, kwargs, result)
        return result

    return wrapper


class Wrappers:
    """Installs a wrapper at every binding of each target; `remove` puts the
    original objects back."""

    def __init__(self, tracer: Tracer, targets=TARGETS):
        self.absent: list[str] = []
        self._patched: list[tuple[object, str, object]] = []
        for target in targets:
            try:
                module = importlib.import_module(target.module)
            except ImportError:
                module = None
            original = getattr(module, target.attr, None)
            if original is None:
                self.absent.append(target.name)
                continue
            wrapper = _wrap(tracer, target, original)
            for mod in _package_modules():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def remove(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()


def _package_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "fatpoints" or name.startswith("fatpoints."))
    ]
