"""Span recording around enrichedfp's public functions, installed from outside.

``Instrument`` rebinds each target at every module namespace that binds it
(``array_norm`` is also ``enrichedfp.solver.array_norm`` and
``enrichedfp.contraction.array_norm``; ``certify`` is also
``enrichedfp.cli.certify``), so calls made through any of those names are
recorded.  Spans stay in memory until ``Recorder.totals`` reduces them.
"""

from __future__ import annotations

import functools
import importlib
import pathlib
import time
import tracemalloc
from array import array
from collections import defaultdict

import numpy as np

MODULES = (
    "enrichedfp",
    "enrichedfp.space",
    "enrichedfp.solver",
    "enrichedfp.contraction",
    "enrichedfp.cclass",
    "enrichedfp.problems",
    "enrichedfp.cli",
)

VALIDATORS = {
    "validate_cclass": "cclass.validate_cclass",
    "validate_altering": "cclass.validate_altering",
    "validate_phiu": "cclass.validate_phiu",
    "validate_monotone_triple": "cclass.validate_monotone",
}

# (module, attribute path, span name)
SPAN_TARGETS = (
    ("space", "Mapping.apply", "space.apply"),
    ("space", "array_norm", "space.array_norm"),
    ("space", "Point.from_array", "space.point_wrap"),
    ("solver", "run_picard", "solver.run"),
    ("solver", "run_schaefer", "solver.run"),
    ("solver", "run_jungck_schaefer", "solver.run"),
    ("solver", "IterationTrace.to_csv", "cli.serialize"),
    ("contraction", "certify", "contraction.certify"),
    ("contraction", "pair_holds", "contraction.pair"),
    ("contraction", "hr_sides", "contraction.sides"),
    ("contraction", "jungck_sides", "contraction.sides"),
    ("contraction", "ContractionVariant.__post_init__", "contraction.variant_build"),
    ("contraction", "PairSampler.pairs", "contraction.sampler"),
    ("contraction", "ContractionCertificate.to_json", "cli.serialize"),
    *(("cclass", fn, span) for fn, span in VALIDATORS.items()),
    ("cclass", "get_triple", "cclass.get_triple"),
    ("problems", "get_problem", "problems.get_problem"),
    ("problems", "builtin_problems", "problems.builtin_problems"),
    ("problems", "random_affine", "problems.random_affine"),
    ("cli", "main", "cli.main"),
)

# Triple components: evaluations are counted, not spanned, when a validator runs them.
GRID_EVAL_TARGETS = (
    ("cclass", "CClassFunction.__call__"),
    ("cclass", "AlteringDistance.__call__"),
    ("cclass", "PhiU.__call__"),
)


class Recorder:
    """Spans as parallel arrays: name, parent, command id, start, end.

    The parent of a span is the span open when it began; ``command`` is the
    index of the CLI command the harness was running.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.command = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.distinct: defaultdict[str, set] = defaultdict(set)
        self.command_id = -1
        self._stack = [-1]

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        i = len(self.end)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.command.append(self.command_id)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int):
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def current(self) -> str:
        top = self._stack[-1]
        return self.names[self.name[top]] if top >= 0 else ""

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, total seconds, self seconds).

        Self time is a span's duration minus the durations of its children;
        children of one span never overlap, since calls nest on one thread.
        """
        n = len(self.end)
        name = np.frombuffer(self.name, dtype=np.intc)
        parent = np.frombuffer(self.parent, dtype=np.intc)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=n)
        own = dur - child
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        self_s = np.bincount(name, weights=own, minlength=k)
        return {
            nm: (int(calls[i]), float(total[i]), float(self_s[i]))
            for i, nm in enumerate(self.names)
        }


def _resolve(module: str, path: str):
    owner = importlib.import_module(f"enrichedfp.{module}")
    *classes, attr = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    return owner, attr


class Instrument:
    """Rebinds targets to wrappers as they are added; exiting the context restores them."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []
        self._modules = [importlib.import_module(m) for m in MODULES]

    def replace(self, module: str, path: str, make):
        """Rebind ``module:path`` to ``make(original_function)`` wherever it is bound."""
        owner, attr = _resolve(module, path)
        raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            self.bind(owner, attr, classmethod(make(raw.__func__)))
        elif isinstance(owner, type):
            self.bind(owner, attr, make(raw))
        else:
            wrapped = make(raw)
            for mod in self._modules:
                for name, value in list(vars(mod).items()):
                    if value is raw:
                        self.bind(mod, name, wrapped)

    def bind(self, owner, attr, value):
        """Set ``owner.attr`` to ``value`` until the context exits."""
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()


def _spanned(rec: Recorder, span: str, fn, after=None):
    nid = rec.name_id(span)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        i = rec.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(i)
        if after is not None:
            after(args, result)
        return result

    return traced


def trace_layers(rec: Recorder) -> Instrument:
    """Instrument every layer target, recording into ``rec``."""

    def iterations(_args, trace):
        rec.counts["solver.iterations"] += trace.wall_iterations

    def generated(_args, pairs):
        rec.counts["contraction.pairs_generated"] += len(pairs)

    def triple_name(_args, triple):
        rec.distinct["cclass.triples"].add(triple.name)

    def written(args, _result):
        # CLI outputs are ASCII, so characters are bytes
        rec.counts["cli.write.bytes"] += len(args[1])

    after = {
        "solver.run": iterations,
        "contraction.sampler": generated,
        "cclass.get_triple": triple_name,
    }
    inst = Instrument()
    for module, path, span in SPAN_TARGETS:
        inst.replace(module, path, lambda fn, s=span: _spanned(rec, s, fn, after.get(s)))
    write = _spanned(rec, "cli.write", pathlib.Path.write_text, written)
    inst.bind(pathlib.Path, "write_text", write)

    validator_spans = set(VALIDATORS.values())

    def counted(fn):
        @functools.wraps(fn)
        def call(*args, **kwargs):
            if rec.current() in validator_spans:
                rec.counts["cclass.grid_evals"] += 1
            return fn(*args, **kwargs)

        return call

    for module, path in GRID_EVAL_TARGETS:
        inst.replace(module, path, counted)
    return inst


def trace_solver_memory(peaks: list[int]) -> Instrument:
    """Instrument the run_* engines to record each run's tracemalloc peak in bytes."""

    def measured(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        return run

    inst = Instrument()
    for module, path, span in SPAN_TARGETS:
        if span == "solver.run":
            inst.replace(module, path, measured)
    return inst
