"""Span tracing from outside the library.

The traced run replaces selected ``nlsgauge`` functions, at the module
attributes their callers look up, with wrappers that record one span per
call: name, start, end and the span that was open when the call began.
Spans are kept in flat arrays in memory, written out once at the end, and
reduced to per-name call counts and self times (a span's duration minus the
part of its interval that its child spans cover).
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
from array import array

import numpy as np

# (span name, home module, attribute path, modules whose attribute is wrapped)
# ``None`` wraps every loaded nlsgauge module attribute bound to the same
# function object, so a caller that imported the name directly is traced too.
# ``solve_banded`` is scipy's function; only solver's binding is wrapped, so
# the span is the banded solve of the time step and not the one inside
# ``fieldgrid.cumulative_integral``.
TRACED = (
    ("fieldgrid.to_hydro", "fieldgrid", "to_hydro", None),
    ("fieldgrid.derivative4", "fieldgrid", "derivative4", None),
    ("fieldgrid.laplacian4", "fieldgrid", "laplacian4", None),
    ("fieldgrid.cumulative_integral", "fieldgrid", "cumulative_integral", None),
    ("fieldgrid.write_field_csv", "fieldgrid", "write_field_csv", None),
    ("models.eval_nonlinearity", "models", "eval_nonlinearity", None),
    ("models.current_functional", "models", "current_functional", None),
    ("models.RhoExpr.make", "models", "RhoExpr.make", None),
    ("solver.solve_banded", "solver", "solve_banded", ("solver",)),
    ("solver.integrate", "solver", "integrate", None),
    ("solver.verify_equivalence", "solver", "verify_equivalence", None),
    ("solver.export_trajectory", "solver", "export_trajectory", None),
    ("gauge.analysis_generator_field", "gauge", "analysis_generator_field", None),
    ("gauge.discrete_generator_field", "gauge", "discrete_generator_field", None),
    ("gauge.apply_gauge", "gauge", "apply_gauge", None),
    ("gauge.transform_model", "gauge", "transform_model", None),
    ("equivalence.push_forward", "equivalence", "push_forward", None),
    ("equivalence.equivalence_generator", "equivalence", "equivalence_generator", None),
    ("equivalence.linearizable", "equivalence", "linearizable", None),
    ("coupled.transform_coupled", "coupled", "transform_coupled", None),
)

TRACED_NAMES = tuple(name for name, *_ in TRACED)

# Spans whose wrapper also counts the bytes of the file named by the first
# argument, read after the call returns.
COUNTS_BYTES = ("fieldgrid.write_field_csv",)


class Tracer:
    """In-memory span store; one instance per traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ix = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.bytes: dict[str, int] = {}
        self._stack: list[int] = []

    def _index(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn):
        ix = self._index(name)
        clock = time.perf_counter_ns
        name_ix, start, end, parent, stack = (
            self.name_ix, self.start, self.end, self.parent, self._stack
        )
        counts_bytes = name in COUNTS_BYTES

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name_ix.append(ix)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if counts_bytes:
                self.bytes[name] = self.bytes.get(name, 0) + os.path.getsize(args[0])
            return result

        return traced

    def write(self, path: str) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_ix=np.frombuffer(self.name_ix, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
        )

    def totals(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, self seconds) for every span name recorded."""
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        ix = np.frombuffer(self.name_ix, dtype=np.int32)
        own = self_times(start, end, parent)
        calls = np.bincount(ix, minlength=len(self.names))
        self_ns = np.bincount(ix, weights=own, minlength=len(self.names))
        return {
            name: (int(calls[k]), float(self_ns[k]) * 1e-9)
            for k, name in enumerate(self.names)
        }


def self_times(start, end, parent) -> np.ndarray:
    """Self time of each span: its duration minus the length of the union of
    its children's intervals, each child clipped to the parent's interval.

    ``parent[i]`` is the index of span i's parent, or -1 for a root span.
    Times are integers (nanoseconds); the result is float64 nanoseconds.
    """
    start = np.asarray(start, dtype=np.int64)
    end = np.asarray(end, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    own = (end - start).astype(np.float64)
    kids = np.flatnonzero(parent >= 0)
    if kids.size == 0:
        return own
    p = parent[kids]
    lo = np.maximum(start[kids], start[p])
    hi = np.minimum(end[kids], end[p])
    keep = hi > lo
    p, lo, hi = p[keep], lo[keep], hi[keep]
    order = np.lexsort((lo, p))
    p, lo, hi = p[order], lo[order], hi[order]
    # Union length per parent: walk each parent's children in start order and
    # count only the part of each interval past the furthest end seen so far
    # among its earlier siblings.  The running maximum is segmented by parent
    # by offsetting each group above every earlier one.
    t0 = lo.min()
    span = int(hi.max() - t0) + 1
    group = np.cumsum(np.r_[0, p[1:] != p[:-1]])
    shifted = (hi - t0) + group * span
    run_max = np.maximum.accumulate(shifted) - group * span + t0
    prev_end = np.r_[np.iinfo(np.int64).min, run_max[:-1]]
    prev_end[np.r_[True, p[1:] != p[:-1]]] = np.iinfo(np.int64).min
    covered = np.maximum(hi - np.maximum(lo, prev_end), 0)
    own -= np.bincount(p, weights=covered.astype(np.float64), minlength=len(own))
    return own


def _resolve(module, path: str):
    """(owner, attribute name) for a dotted attribute path on a module."""
    owner = module
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every function in TRACED for the duration of the block and
    restore the original attributes afterwards, also on error."""
    package = [
        mod for name, mod in sorted(sys.modules.items())
        if name == "nlsgauge" or name.startswith("nlsgauge.")
    ]
    saved = []
    try:
        for name, home, path, only in TRACED:
            home_mod = sys.modules.get(f"nlsgauge.{home}")
            if home_mod is None:
                continue
            try:
                owner, attr = _resolve(home_mod, path)
            except AttributeError:
                continue
            if "." in path:  # a class attribute: keep its descriptor
                raw = owner.__dict__.get(attr)
                if not isinstance(raw, staticmethod):
                    continue
                saved.append((owner, attr, raw))
                setattr(owner, attr, staticmethod(tracer.wrap(name, raw.__func__)))
                continue
            original = getattr(owner, attr, None)
            if original is None:
                continue
            wrapped = tracer.wrap(name, original)
            sites = package if only is None else [
                sys.modules[f"nlsgauge.{m}"] for m in only
            ]
            for mod in sites:
                if getattr(mod, attr, None) is original:
                    saved.append((mod, attr, original))
                    setattr(mod, attr, wrapped)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
