"""In-memory tracing of calls into the public functions of `sgdtherm`.

The tracer never edits the package: it swaps module attributes (and two
ensemble methods) for timing wrappers while a `with Tracer(...)` block runs,
and puts the originals back on exit.  Two kinds of wrapper exist:

* span wrappers record (name, start, end, parent) for calls that happen at
  most a few thousand times per grid;
* hot wrappers, for the per-step calls (`sample_batch`, `batch_grad`,
  `full_loss`), only add to a call count and a time total, because a span per
  step would hold millions of records.  The time spent in hot calls inside a
  span is subtracted from that span's self time.

A patch target that no longer exists is listed in `unwrapped` instead of
failing, so a refactor that bypasses a wrapped function shows up as lost
`trace.coverage`, not as an error.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

_MISSING = object()


def patch_targets(cli, sphere, analysis, ensembles):
    """(owner, attribute, layer name, hot?) for every wrapped call site.

    Each function is patched where it is looked up at call time: `cli` calls
    the names it imported, `sphere` calls `sample_batch`, `gradient_stats`
    and `knn_entropy` through its own globals, and the stepping loop binds
    the ensemble's methods through the class.
    """
    hyper = ensembles.HyperplaneEnsemble
    return [
        (cli, "run_seeded", "sphere.run_seeded", False),
        (sphere, "sample_batch", "sphere.sample_batch", True),
        (hyper, "batch_grad", "ensembles.batch_grad", True),
        (hyper, "full_loss", "ensembles.full_loss", True),
        (sphere, "gradient_stats", "gradients.gradient_stats", False),
        (sphere, "knn_entropy", "entropy.knn_entropy", False),
        (analysis, "knn_entropy", "entropy.knn_entropy", False),
        (cli, "extract_stationary", "analysis.extract_stationary", False),
        (cli, "uniform_sphere_baseline", "analysis.uniform_sphere_baseline", False),
        (cli, "temperature_curve", "analysis.temperature_curve", False),
        (cli, "free_energy_curve", "analysis.free_energy_curve", False),
        (cli, "finite_difference_temperature", "analysis.finite_difference_temperature", False),
        (cli, "fit_power_law", "analysis.fit_power_law", False),
        (cli, "kernel_smooth_triangular", "analysis.kernel_smooth_triangular", False),
        (cli, "kernel_smooth_gaussian_logtime", "analysis.kernel_smooth_gaussian_logtime", False),
        (cli, "save_config", "cli.save_config", False),
        (cli, "write_series", "cli.write_series", False),
        (cli, "write_summary", "cli.write_summary", False),
        (cli, "load_config", "cli.load_config", False),
        (cli, "read_summary", "cli.read_summary", False),
        (cli, "read_series", "cli.read_series", False),
    ]


class Tracer:
    """Spans and hot-call totals for one traced repetition."""

    def __init__(self, targets):
        self.targets = targets
        # span: [name, start, end, parent, hot_at_open, hot_at_close, attrs]
        self.spans: list[list] = []
        self.hot: dict[str, list] = {}  # name -> [calls, seconds]
        self.hot_total = 0.0
        self.unwrapped: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- spans ---------------------------------------------------------
    def open(self, name: str, attrs: dict | None = None) -> int:
        parent = self._stack[-1] if self._stack else None
        sid = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.hot_total, None, attrs])
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        span = self.spans[sid]
        span[2] = time.perf_counter()
        span[5] = self.hot_total
        self._stack.pop()

    def _span_wrapper(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            attrs = None
            if name == "entropy.knn_entropy":
                shape = getattr(args[0], "shape", None)
                if shape is not None and len(shape) == 2:
                    attrs = {"n": int(shape[0]), "d": int(shape[1])}
            sid = tracer.open(name, attrs)
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                span_attrs = tracer.spans[sid][6] or {}
                span_attrs["error"] = type(exc).__name__
                tracer.spans[sid][6] = span_attrs
                raise
            finally:
                tracer.close(sid)

        return wrapper

    def _hot_wrapper(self, name, fn):
        tracer = self
        stat = self.hot.setdefault(name, [0, 0.0])
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stat[0] += 1
                stat[1] += dt
                tracer.hot_total += dt

        return wrapper

    # -- patching ------------------------------------------------------
    def __enter__(self):
        for owner, attr, name, hot in self.targets:
            original = vars(owner).get(attr, _MISSING)
            fn = getattr(owner, attr, None)
            if fn is None:
                self.unwrapped.append(f"{getattr(owner, '__name__', owner)}.{attr}")
                continue
            wrapper = self._hot_wrapper(name, fn) if hot else self._span_wrapper(name, fn)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._saved.clear()
        return False

    # -- reductions ----------------------------------------------------
    def children(self) -> dict[int, list[int]]:
        kids: dict[int, list[int]] = {}
        for sid, span in enumerate(self.spans):
            if span[3] is not None:
                kids.setdefault(span[3], []).append(sid)
        return kids

    def self_times(self) -> list[float]:
        """Duration minus child spans and hot calls made directly inside the span."""
        kids = self.children()
        out = []
        for sid, (_, start, end, _, hot0, hot1, _) in enumerate(self.spans):
            child = kids.get(sid, [])
            child_time = sum(self.spans[c][2] - self.spans[c][1] for c in child)
            child_hot = sum(self.spans[c][5] - self.spans[c][4] for c in child)
            out.append((end - start) - child_time - ((hot1 - hot0) - child_hot))
        return out

    def descendants(self, root: int) -> list[int]:
        kids = self.children()
        out, todo = [], list(kids.get(root, []))
        while todo:
            sid = todo.pop()
            out.append(sid)
            todo.extend(kids.get(sid, []))
        return out

    def write(self, path: Path) -> None:
        payload = {
            "spans": [
                {"id": sid, "name": s[0], "start": s[1], "end": s[2], "parent": s[3],
                 "hot_s": s[5] - s[4], **({"attrs": s[6]} if s[6] else {})}
                for sid, s in enumerate(self.spans)
            ],
            "hot_calls": {k: {"calls": v[0], "seconds": v[1]} for k, v in self.hot.items()},
            "unwrapped": self.unwrapped,
        }
        path.write_text(json.dumps(payload), encoding="utf-8")
