"""Span tracing for the benchmark, done entirely from the benchmark's side.

The tracer replaces public functions of the ``ssae`` modules with wrappers
by assigning to the module (or class) attribute.  The package's modules
call each other through those attributes (``trainer`` calls
``core.cost``, ``core.cost`` calls the module-global ``shrink_mask``), so
calls between layers go through the wrappers too.  Nothing under ``src/``
changes.

Each call becomes one span: name, start, end, parent span and the id of
the operation (frame, batch or training cycle) the workload was running.
Spans live in flat typed arrays, about 30 bytes each, so a traced run that
records a million spans stays small; they are written out once, at the
end of the run.
"""

from __future__ import annotations

import functools
import time
from array import array
from contextlib import contextmanager

import numpy as np

from ssae import baselines, core, cs, data, trainer

# (owner, attribute, span name).  Baseline methods are wrapped per subclass
# so their spans carry the transform kind.
TARGETS = (
    (data, "load_csv", "data.load_csv"),
    (data, "sphere", "data.sphere"),
    (data, "sphere_rows", "data.sphere_rows"),
    (data, "desphere_rows", "data.desphere_rows"),
    (data, "dataset_std", "data.dataset_std"),
    (core, "hidden_activation", "core.hidden_activation"),
    (core, "shrink", "core.shrink"),
    (core, "shrink_mask", "core.shrink_mask"),
    (core, "round_code", "core.round_code"),
    (core, "reconstruct", "core.reconstruct"),
    (core, "cost", "core.cost"),
    (core, "gradient", "core.gradient"),
    (core.SsaeParams, "from_vector", "core.SsaeParams.from_vector"),
    (trainer, "fit", "trainer.fit"),
    (trainer, "minimize", "trainer.minimize"),
    (trainer, "evaluate_rmse", "trainer.evaluate_rmse"),
    (trainer, "init_params", "trainer.init_params"),
    (cs, "measure", "cs.measure"),
    (cs, "lasso_recover_batch", "cs.lasso_recover_batch"),
    (baselines.DctSparsifier, "encode", "baselines.encode.dct"),
    (baselines.DctSparsifier, "decode", "baselines.decode.dct"),
    (baselines.PcaSparsifier, "encode", "baselines.encode.pca"),
    (baselines.PcaSparsifier, "decode", "baselines.decode.pca"),
)

_ABSENT = object()


class Tracer:
    """In-memory span recorder; ``op`` is the id stamped on new spans."""

    def __init__(self):
        self.names: list[str] = []
        self.op = -1
        self._name = array("i")
        self._parent = array("i")
        self._op = array("q")
        self._start = array("q")
        self._end = array("q")
        self._stack = [-1]

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        names_a, parent_a, op_a = self._name, self._parent, self._op
        start_a, end_a, stack = self._start, self._end, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start_a)
            names_a.append(nid)
            parent_a.append(stack[-1])
            op_a.append(self.op)
            end_a.append(0)
            stack.append(idx)
            start_a.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end_a[idx] = clock()
                stack.pop()

        return traced

    @contextmanager
    def installed(self, targets=TARGETS):
        """Wrap every target for the duration of the block, then restore."""
        saved = []
        try:
            for owner, attr, name in targets:
                raw = owner.__dict__.get(attr, _ABSENT)
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self.wrap(name, raw.__func__))
                else:
                    wrapped = self.wrap(name, getattr(owner, attr))
                saved.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                if raw is _ABSENT:
                    delattr(owner, attr)  # the attribute was inherited
                else:
                    setattr(owner, attr, raw)

    def spans(self) -> "Spans":
        return Spans(
            names=list(self.names),
            name=np.frombuffer(self._name, dtype=np.int32).copy(),
            parent=np.frombuffer(self._parent, dtype=np.int32).copy(),
            op=np.frombuffer(self._op, dtype=np.int64).copy(),
            start=np.frombuffer(self._start, dtype=np.int64).copy(),
            end=np.frombuffer(self._end, dtype=np.int64).copy(),
        )


class Spans:
    """Recorded spans as columns, with inclusive and self durations in ns."""

    def __init__(self, names, name, parent, op, start, end):
        self.names, self.name, self.parent, self.op = names, name, parent, op
        self.start, self.end = start, end
        self.dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=self.dur[has_parent],
                            minlength=len(self.dur))
        # A span's self time is its duration minus what its children cover;
        # spans nest strictly because the benchmark is one thread.
        self.self_ns = self.dur - child

    def __len__(self):
        return len(self.dur)

    def select(self, name: str, ops=None) -> np.ndarray:
        """Boolean mask of spans called ``name``, optionally within ``ops``."""
        ids = [i for i, n in enumerate(self.names) if n == name]
        mask = np.isin(self.name, ids)
        if ops is not None:
            mask &= np.isin(self.op, np.asarray(list(ops), dtype=np.int64))
        return mask

    def total_ns(self, name: str, ops=None) -> float:
        return float(self.dur[self.select(name, ops)].sum())

    def self_total_ns(self, name: str) -> float:
        return float(self.self_ns[self.select(name)].sum())

    def calls(self, name: str, ops=None) -> int:
        return int(self.select(name, ops).sum())

    def mean_ns(self, name: str, ops=None) -> float:
        mask = self.select(name, ops)
        return float(self.dur[mask].mean()) if mask.any() else 0.0

    def child_total_ns(self, name: str, parent_names) -> float:
        """Time in ``name`` spans whose direct parent is one of ``parent_names``."""
        mask = self.select(name)
        parents = np.zeros(len(self.dur), dtype=bool)
        for p in parent_names:
            parents |= self.select(p)
        own_parent = self.parent[mask]
        ok = own_parent >= 0
        hit = np.zeros(len(own_parent), dtype=bool)
        hit[ok] = parents[own_parent[ok]]
        return float(self.dur[mask][hit].sum())

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), name=self.name,
                 parent=self.parent, op=self.op, start=self.start, end=self.end)
