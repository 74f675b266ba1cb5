"""Span tracing of canf's public functions, installed from outside the package.

A :class:`Tracer` wraps each function in :data:`TRACED` in every ``canf.*``
module namespace that binds it (``eig_hermitian`` is bound in both ``music``
and ``baselines``, ``localize`` in ``music``, ``baselines`` and ``bench``), so a
call is seen whichever module it is made from.  Spans are recorded only inside
an op opened with :meth:`Tracer.op`; a span is ``[name, start_ns, end_ns,
parent, op_id]`` where ``parent`` indexes the enclosing span.  Spans stay in
memory until :func:`write_spans` is called.  :meth:`Installation.remove` puts
every original object back.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns

#: (module under ``canf``, function or ``Class.method``) of every traced layer.
TRACED = (
    ("channel", "synthesize"),
    ("covariance", "covariance_ls"),
    ("covariance", "covariance_sample"),
    ("covariance", "decouple"),
    ("covariance", "vectorize_to_coarray"),
    ("covariance", "spatial_smooth"),
    ("covariance", "build_bundle"),
    ("geometry", "difference_coarray"),
    ("music", "SpectrumGrid.for_layout"),
    ("music", "eig_hermitian"),
    ("music", "angle_spectrum"),
    ("music", "detect_peaks"),
    ("music", "range_spectrum"),
    ("music", "classify_range_spectrum"),
    ("music", "localize"),
    ("baselines", "localize_dense"),
    ("baselines", "localize_farfield_virtual"),
    ("baselines", "localize_subarray"),
    ("bench", "run_trial"),
    ("bench", "associate"),
)

TRACED_NAMES = tuple(f"{module}.{qualname}" for module, qualname in TRACED)

OP_SPAN = "op"
_MARK = "__perfbench_traced__"


def _count_candidates(result, counters: Counter) -> None:
    counters["music.candidates"] += len(getattr(result, "candidates", ()))


def _count_true_labels(result, counters: Counter) -> None:
    counters["music.range_true"] += sum(1 for c in result if getattr(c, "is_true", False))


#: Counts taken from return values, at the boundary where the work happens.
OBSERVERS = {
    "music.localize": _count_candidates,
    "music.classify_range_spectrum": _count_true_labels,
}


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._op_id = None

    @contextmanager
    def op(self, op_id):
        """Open the root span of one op; traced calls inside become its children."""
        if self._stack:
            raise RuntimeError("ops do not nest")
        self._op_id = op_id
        idx = len(self.spans)
        self.spans.append([OP_SPAN, 0, 0, None, op_id])
        self._stack.append(idx)
        self.spans[idx][1] = perf_counter_ns()
        try:
            yield
        finally:
            self.spans[idx][2] = perf_counter_ns()
            self._stack.pop()
            self._op_id = None

    def wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            idx = len(spans)
            record = [name, 0, 0, stack[-1], self._op_id]
            spans.append(record)
            stack.append(idx)
            record[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter_ns()
                stack.pop()
            if observe is not None:
                observe(result, self.counters)
            return result

        setattr(traced, _MARK, name)
        return traced


def _canf_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "canf" or name.startswith("canf."))
    ]


class Installation:
    """The wrappers one :func:`install` put in place, and how to undo them."""

    def __init__(self) -> None:
        self.patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def remove(self) -> None:
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()

    def __enter__(self) -> "Installation":
        return self

    def __exit__(self, *exc) -> None:
        self.remove()


def install(tracer: Tracer) -> Installation:
    """Wrap every function in :data:`TRACED` wherever a canf module binds it.

    A name the installed canf no longer defines is listed in ``missing``
    and simply reports no calls.
    """
    inst = Installation()
    modules = _canf_modules()
    for (module_name, qualname), name in zip(TRACED, TRACED_NAMES):
        module = importlib.import_module(f"canf.{module_name}")
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            cls = getattr(module, cls_name, None)
            raw = None if cls is None else cls.__dict__.get(attr)
            if raw is None:
                inst.missing.append(name)
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                patched = type(raw)(tracer.wrap(name, raw.__func__))
            else:
                patched = tracer.wrap(name, raw)
            setattr(cls, attr, patched)
            inst.patches.append((cls, attr, raw))
            continue
        original = getattr(module, qualname, None)
        if original is None:
            inst.missing.append(name)
            continue
        wrapper = tracer.wrap(name, original)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    inst.patches.append((mod, attr, original))
    return inst


def installed_wrappers() -> list[str]:
    """Where a tracing wrapper is bound in canf right now (empty when clean)."""
    found = []
    for mod in _canf_modules():
        for attr, value in vars(mod).items():
            if getattr(value, _MARK, None):
                found.append(f"{mod.__name__}.{attr}")
            if isinstance(value, type) and value.__module__.startswith("canf"):
                for cattr, raw in vars(value).items():
                    if getattr(getattr(raw, "__func__", raw), _MARK, None):
                        found.append(f"{mod.__name__}.{attr}.{cattr}")
    return found


def self_times(spans: list[list]) -> list[int]:
    """Self time of every span: its duration minus the time of its children.

    Children of a span run one after another in a single thread, so their
    durations add up to the part of the parent's interval they cover.
    """
    child_ns = [0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            child_ns[parent] += end - start
    return [end - start - child_ns[i] for i, (_, start, end, _, _) in enumerate(spans)]


def layer_totals(spans: list[list]) -> dict[str, tuple[int, int]]:
    """``name -> (calls, self_ns)`` summed over all spans."""
    totals: dict[str, list[int]] = {}
    for span, self_ns in zip(spans, self_times(spans)):
        entry = totals.setdefault(span[0], [0, 0])
        entry[0] += 1
        entry[1] += self_ns
    return {name: (calls, ns) for name, (calls, ns) in totals.items()}


def write_spans(path, spans: list[list]) -> None:
    """One JSON array per line: name, start_ns, end_ns, parent, op id."""
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")
