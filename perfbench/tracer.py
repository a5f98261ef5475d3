"""Per-layer tracing by temporarily wrapping the public functions of ``sgc``.

While a ``Tracer`` is installed, every public module-level function of the
layer modules is replaced by a wrapper that records one span per call: the
function's name, start and end time, the span that was open when it was
called, the item it belongs to, and the change in ``Budget.spent`` of the
budget it was handed.  The wrapper is bound in place of the original under
every name any ``sgc`` module holds it by (``from .x import f`` copies the
reference, so each importing module is patched), and in module-level dicts
that map names to functions (the claim-checker tables in ``sgc.verify``).
``uninstall`` binds every original again and checks that no wrapper is left.

Nodes charged past a budget's limit are not counted: such a charge raises
before any work is done (``ham_path_in_mask`` charges ``2**n`` up front).

Self time is a span's duration minus the durations of its direct children.
Self nodes are a span's nodes minus the nodes its descendants charged to the
same budget object, so summing self nodes over all spans counts every search
node exactly once.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from types import FunctionType, ModuleType

LAYER_MODULES = ("construct", "covers", "families", "flow", "graphs",
                 "invariants", "search", "trees", "verify")

# Leaf primitives whose whole body costs less than the wrapper would add:
# spans for them would time the tracer, not the program.  ``bits`` is also a
# generator, where a span would only cover creating the iterator.
UNTRACED = frozenset({"graphs.bits", "graphs.norm_edge"})


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0
    nodes: int = 0          # self nodes
    classified: int = 0     # calls whose result reads as yes/no
    yes: int = 0


@dataclass
class _Frame:
    index: int
    budget: object
    spent0: int
    child_s: float = 0.0
    child_nodes: int = 0


@dataclass
class Tracer:
    """Records spans for wrapped ``sgc`` calls; install, run, uninstall."""

    item: int | None = None   # index of the item being timed; None pauses recording
    stats: dict[str, LayerStats] = field(default_factory=dict)
    names: list[str] = field(default_factory=list)
    _name_ids: dict[str, int] = field(default_factory=dict)
    # one entry per span, in call order (columns keep memory small)
    span_name: array = field(default_factory=lambda: array("i"))
    span_parent: array = field(default_factory=lambda: array("i"))
    span_item: array = field(default_factory=lambda: array("i"))
    span_start: array = field(default_factory=lambda: array("d"))
    span_end: array = field(default_factory=lambda: array("d"))
    span_nodes: array = field(default_factory=lambda: array("q"))
    _stack: list[_Frame] = field(default_factory=list)
    _patches: list[tuple[object, object, object]] = field(default_factory=list)
    _originals: dict[int, object] = field(default_factory=dict)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = _sgc_modules()
        wrappers: dict[int, FunctionType] = {}
        for short in LAYER_MODULES:
            mod = modules[f"sgc.{short}"]
            for attr, obj in sorted(vars(mod).items()):
                if (isinstance(obj, FunctionType) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__
                        and f"{short}.{attr}" not in UNTRACED):
                    wrappers[id(obj)] = self._wrap(f"{short}.{attr}", obj)
                    self._originals[id(obj)] = obj
        try:
            for target, key, obj in list(_bindings(modules.values())):
                if id(obj) in wrappers and obj is self._originals[id(obj)]:
                    self._patches.append((target, key, obj))
                    _bind(target, key, wrappers[id(obj)])
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        """Bind every original again, then check that nothing traced remains."""
        for target, key, original in reversed(self._patches):
            _bind(target, key, original)
        self._patches.clear()
        leftovers = [key for _, key, obj in _bindings(_sgc_modules().values())
                     if getattr(obj, "__wrapped_by_tracer__", None) is self]
        if leftovers:
            raise RuntimeError(f"tracer left wrappers bound: {leftovers}")

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn: FunctionType) -> FunctionType:
        name_id = self._name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        stats = self.stats.setdefault(name, LayerStats())
        budget_pos = _budget_position(fn)
        classify = _classifier(fn)
        budget_type = _budget_type()
        stack = self._stack
        clock = time.perf_counter
        cols = (self.span_name, self.span_parent, self.span_item,
                self.span_start, self.span_end, self.span_nodes)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.item is None:
                return fn(*args, **kwargs)
            budget = None
            if budget_pos is not None:
                budget = (args[budget_pos] if len(args) > budget_pos
                          else kwargs.get("budget"))
                if not isinstance(budget, budget_type):
                    budget = None
            index = len(cols[0])
            cols[0].append(name_id)
            cols[1].append(stack[-1].index if stack else -1)
            cols[2].append(self.item)
            for col in cols[3:]:
                col.append(0)      # filled in when the call returns
            frame = _Frame(index, budget,
                           min(budget.spent, budget.max_nodes) if budget is not None else 0)
            stack.append(frame)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                nodes = (min(budget.spent, budget.max_nodes) - frame.spent0
                         if budget is not None else 0)
                cols[3][index] = start
                cols[4][index] = end
                cols[5][index] = nodes
                duration = end - start
                stats.calls += 1
                stats.self_s += duration - frame.child_s
                stats.nodes += nodes - frame.child_nodes
                if stack:
                    stack[-1].child_s += duration
                if nodes and budget is not None:
                    for outer in reversed(stack):
                        if outer.budget is budget:
                            outer.child_nodes += nodes
                            break
                if classify is not None:
                    stats.classified += 1
                    stats.yes += classify(result)

        wrapper.__wrapped_by_tracer__ = self
        return wrapper

    # -- output ------------------------------------------------------------

    def span_count(self) -> int:
        return len(self.span_name)

    def _columns(self) -> dict[str, array]:
        return {"name": self.span_name, "parent": self.span_parent,
                "item": self.span_item, "start": self.span_start,
                "end": self.span_end, "nodes": self.span_nodes}

    def write_spans(self, stem: Path) -> tuple[Path, Path]:
        """Write ``<stem>.json`` (layer names and column layout) and
        ``<stem>.bin`` (the columns back to back, native byte order)."""
        columns = self._columns()
        header = {"count": self.span_count(), "names": self.names,
                  "byteorder": sys.byteorder,
                  "columns": [[key, col.typecode] for key, col in columns.items()],
                  "doc": "span i: names[name[i]] ran from start[i] to end[i] "
                         "(perf_counter seconds) for item[i], called from span "
                         "parent[i] (-1: the benchmark), charging nodes[i]"}
        meta, data = stem.with_suffix(".json"), stem.with_suffix(".bin")
        meta.write_text(json.dumps(header), encoding="ascii")
        with open(data, "wb") as out:
            for col in columns.values():
                col.tofile(out)
        return meta, data


def read_spans(stem: Path) -> tuple[list[str], dict[str, array]]:
    """Load what ``Tracer.write_spans`` wrote: (layer names, columns)."""
    header = json.loads(stem.with_suffix(".json").read_text(encoding="ascii"))
    columns = {}
    with open(stem.with_suffix(".bin"), "rb") as data:
        for key, typecode in header["columns"]:
            col = array(typecode)
            col.fromfile(data, header["count"])
            if header["byteorder"] != sys.byteorder:
                col.byteswap()
            columns[key] = col
    return header["names"], columns


def _sgc_modules() -> dict[str, ModuleType]:
    return {name: mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "sgc" or name.startswith("sgc."))}


def _bindings(modules):
    """(namespace, key, value) for every module attribute and every entry of a
    module-level dict, where a function can be held by name."""
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            yield mod, attr, obj
            if isinstance(obj, dict) and attr != "__builtins__":
                for key, val in list(obj.items()):
                    yield obj, key, val


def _bind(target, key, value) -> None:
    if isinstance(target, dict):
        target[key] = value
    else:
        setattr(target, key, value)


def _budget_type() -> type:
    return sys.modules["sgc.search"].Budget


def _budget_position(fn: FunctionType) -> int | None:
    params = list(inspect.signature(fn).parameters)
    return params.index("budget") if "budget" in params else None


_CHECK_OUTCOMES = frozenset({"verified", "violation", "timeout", "skipped"})


def _classifier(fn: FunctionType):
    """How to read a call's result as yes (1) or no (0), from the function's
    declared return type; None for functions whose result is not a verdict."""
    ret = str(fn.__annotations__.get("return", ""))
    if ret in ("Decision", "ConstructResult"):
        return lambda r: int(r is not None and r.status in ("yes", "ok"))
    if ret == "tuple[str, str]" and fn.__name__.startswith("check_"):
        return lambda r: int(r is not None and r[0] == "verified")
    if ret.endswith("| None"):
        return lambda r: int(r is not None)
    return None
