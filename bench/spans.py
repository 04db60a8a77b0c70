"""Span recorder for the traced run, attached from outside the package.

Spans go around the CLI commands (opened by the session itself) and around
the calls `cli` and `memscan` make through their module-level names:
`load_dump`, `scan_key_candidates`, `verify_key`, `confirm_chain`, `probe`
and `decrypt_file`. Wrapping those names changes no code in the package and
is undone when the traced pass ends. Spans stay in memory and are written
once, at the end of the run.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator


@dataclass
class Span:
    trace: str
    span: int
    parent: int | None
    name: str
    start: float
    end: float
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans of one run; every span carries the run's trace id."""

    def __init__(self, trace_id: str) -> None:
        self.trace_id = trace_id
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str) -> Iterator[dict[str, Any]]:
        """Time the body; the yielded dict becomes the span's attributes."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        attrs: dict[str, Any] = {}
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(self.trace_id, span_id, parent, name, start, end, attrs))

    def wrap(self, name: str, fn: Callable, describe: Callable[[Any], dict]) -> Callable:
        """`fn` inside a span; `describe(result)` adds attributes."""

        def traced(*args, **kwargs):
            with self.span(name) as attrs:
                result = fn(*args, **kwargs)
                attrs.update(describe(result))
                return result

        return traced

    @contextmanager
    def attached(self, cli_module, memscan_module) -> Iterator[None]:
        """Wrap the layer entry points the commands call, then restore them."""
        targets = [
            (cli_module, "probe", lambda t: {"infected": t is not None}),
            (cli_module, "decrypt_file",
             lambda r: {"status": r.status.value, "original_length": r.original_length}),
            (cli_module, "load_dump",
             lambda img: {"ranges": len(img.ranges),
                          "mapped_bytes": sum(r.length for r in img.ranges)}),
            (cli_module, "verify_key", lambda ok: {"verified": ok}),
            (memscan_module, "scan_key_candidates",
             lambda cands: {"candidates": len(cands),
                            "keyed": sum(1 for c in cands if c.key is not None)}),
            (memscan_module, "verify_key", lambda ok: {"verified": ok}),
            (memscan_module, "confirm_chain", lambda ok: {"confirmed": ok}),
        ]
        saved = [(module, name, getattr(module, name)) for module, name, _ in targets]
        try:
            for module, name, describe in targets:
                setattr(module, name, self.wrap(name, getattr(module, name), describe))
            yield
        finally:
            for module, name, original in saved:
                setattr(module, name, original)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def self_time(parent: Span, spans: list[Span]) -> float:
    """Duration of `parent` minus that of its direct children.

    Children of one span come from the one thread that opened it, so they
    never overlap and their durations add up to the time they cover.
    """
    return parent.duration - sum(s.duration for s in spans if s.parent == parent.span)
