"""In-memory spans recorded around calls into the library's public layers.

Spans come from the benchmark's own code: either a ``with tracer.span(...)``
block around a call, or a wrapper that temporarily replaces a public
function in the module that calls it (``render.classify_grid`` as seen by
``render.render``, ``expmap.max_modulus`` as seen by ``Params``, ...).
The library itself is not modified.  Spans are written out once, when the
run ends, and per-layer self times are derived from them afterwards.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator


class Tracer:
    """Span recorder: each span is ``[name, start_ns, end_ns, parent, run]``.

    ``parent`` is the index of the enclosing span (-1 at top level) and
    ``run`` identifies the benchmark operation the span belongs to.
    """

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.run_id = -1
        self.captured: list[Any] = []
        self._stack: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter_ns(), 0, parent, self.run_id]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter_ns()
            self._stack.pop()

    def patch(
        self,
        module: Any,
        attr: str,
        name: str | Callable[..., str],
        capture: bool = False,
    ) -> None:
        """Replace ``module.attr`` by a spanning wrapper until :meth:`unpatch`.

        ``name`` may be a function of the call's arguments.  With
        ``capture`` the return value is kept in :attr:`captured` (by
        reference, so the span does not pay for copying it).
        """
        fn = getattr(module, attr)

        def traced(*args: Any, **kwargs: Any) -> Any:
            label = name(*args, **kwargs) if callable(name) else name
            with self.span(label):
                out = fn(*args, **kwargs)
            if capture:
                self.captured.append(out)
            return out

        self._patched.append((module, attr, fn))
        setattr(module, attr, traced)

    def unpatch(self) -> None:
        while self._patched:
            module, attr, fn = self._patched.pop()
            setattr(module, attr, fn)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, run in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start_ns": start, "end_ns": end,
                         "parent": parent, "run": run}
                    )
                    + "\n"
                )

    def times(self, name: str, self_time: bool = False) -> list[float]:
        """Durations in seconds of all spans called ``name``.

        With ``self_time`` the part covered by child spans is subtracted
        (children of one span never overlap: the benchmark is one thread).
        """
        child_ns = [0] * len(self.spans)
        if self_time:
            for _, start, end, parent, _ in self.spans:
                if parent >= 0:
                    child_ns[parent] += end - start
        return [
            (end - start - child_ns[i]) * 1e-9
            for i, (n, start, end, _, _) in enumerate(self.spans)
            if n == name
        ]


def p50_tail(samples: list[float]) -> tuple[float, float, int]:
    """Median, tail and sample count.

    The tail is the highest percentile with at least ten samples beyond
    it, i.e. the eleventh largest sample.  Below 21 samples that would not
    lie above the median, and the median is reported instead.  An empty
    list gives zeros.
    """
    n = len(samples)
    if n == 0:
        return 0.0, 0.0, 0
    xs = sorted(samples)
    mid = n // 2
    p50 = xs[mid] if n % 2 else 0.5 * (xs[mid - 1] + xs[mid])
    tail = xs[n - 11] if n >= 21 else p50
    return p50, tail, n
