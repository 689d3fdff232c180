"""Span tracer for the traced benchmark run.

The tracer wraps every public function of the flowvol layers from outside,
at every module attribute that refers to it, so that from-imports such as
``verify.evaluate`` and ``lidskii.count_flows`` are timed too.  The
``lru_cache`` wrapper of ``lidskii.volume_terms`` is wrapped as a whole, so
cache hits count as calls.  A call that returns a generator is followed by
one span per ``next()``.

Spans live in flat arrays (name id, parent index, start, end, argument id)
so that the few million spans of a verify run fit in memory; they are
written out once, after the traced calls.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
import types
from array import array

LAYERS = ("graphs", "kostant", "lidskii", "ctengine", "dyck", "cyclic",
          "closedforms", "verify", "cli")

# layers whose calls record their arguments, for repeat_ratio; evaluate_case
# and volume_terms record them so that each case span can be mapped to its
# suite and the cached graphs can be listed
ARG_LAYERS = ("dyck", "kostant", "ctengine")
ARG_FUNCTIONS = ("verify.evaluate_case", "lidskii.volume_terms")

NO_PARENT = -1
NO_ARG = -1


def _freeze(value):
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    return value


class Tracer:
    """Records spans of calls into the public functions of the layers."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_of = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.arg = array("i")
        self.stack = [NO_PARENT]
        # per traced function: frozen argument tuple -> first-seen id
        self.arg_ids: dict[str, dict] = {}
        self._patched: list[tuple[types.ModuleType, str, object]] = []
        self.originals: dict[str, object] = {}

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"flowvol.{layer}") for layer in LAYERS}
        wrappers: dict[int, object] = {}
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if not (isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info")):
                    continue
                name = f"{layer}.{attr}"
                self.originals[name] = obj
                wrappers[id(obj)] = (obj, self._wrap(name, obj, layer))
        for module_name, module in list(sys.modules.items()):
            if module_name != "flowvol" and not module_name.startswith("flowvol."):
                continue
            for attr, obj in list(vars(module).items()):
                found = wrappers.get(id(obj))
                if found is not None and found[0] is obj:
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, found[1])

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def _wrap(self, name: str, fn, layer: str):
        call_id = self._name_id(name)
        next_id = self._name_id(name + "#next")
        stop_id = self._name_id(name + "#stop")
        track = layer in ARG_LAYERS or name in ARG_FUNCTIONS
        seen = self.arg_ids.setdefault(name, {}) if track else None
        names, parent, start, end, arg = (
            self.name_of, self.parent, self.start, self.end, self.arg)
        stack = self.stack
        clock = time.perf_counter
        isgenerator = inspect.isgenerator

        def timed_next(gen):
            while True:
                idx = len(start)
                names.append(next_id)
                parent.append(stack[-1])
                arg.append(NO_ARG)
                end.append(0.0)
                stack.append(idx)
                start.append(clock())
                try:
                    item = next(gen)
                except StopIteration:
                    end[idx] = clock()
                    stack.pop()
                    names[idx] = stop_id
                    return
                except BaseException:
                    end[idx] = clock()
                    stack.pop()
                    raise
                end[idx] = clock()
                stack.pop()
                yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            names.append(call_id)
            parent.append(stack[-1])
            if seen is None:
                arg.append(NO_ARG)
            else:
                key = (_freeze(args), _freeze(kwargs))
                arg.append(seen.setdefault(key, len(seen)))
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if isgenerator(result):
                return timed_next(result)
            return result

        return wrapper

    # -- output ---------------------------------------------------------------

    def write(self, stem: str) -> None:
        """Write the spans as ``<stem>.spans.bin`` (the arrays one after the
        other) and ``<stem>.spans.json`` (names and layout)."""
        with open(stem + ".spans.bin", "wb") as handle:
            for field in (self.name_of, self.parent, self.start, self.end, self.arg):
                field.tofile(handle)
        layout = {
            "count": len(self.start),
            "fields": [["name", "H"], ["parent", "i"], ["start", "d"],
                       ["end", "d"], ["arg", "i"]],
            "names": self.names,
        }
        with open(stem + ".spans.json", "w", encoding="utf-8") as handle:
            json.dump(layout, handle)

    def summarize(self) -> dict[str, dict[str, float]]:
        """Per traced function: calls, items yielded, total and self seconds,
        and calls whose arguments were already seen.  Self time is a span's
        duration minus the time its child spans cover."""
        count = len(self.start)
        start, end, parent, name_of = self.start, self.end, self.parent, self.name_of
        child = array("d", bytes(8 * count))
        for idx in range(count):
            up = parent[idx]
            if up != NO_PARENT:
                child[up] += end[idx] - start[idx]
        per_name = [[0, 0.0, 0.0] for _ in self.names]  # count, duration, self
        for idx in range(count):
            duration = end[idx] - start[idx]
            slot = per_name[name_of[idx]]
            slot[0] += 1
            slot[1] += duration
            slot[2] += duration - child[idx]
        out: dict[str, dict[str, float]] = {}
        for name_id in range(0, len(self.names), 3):
            name = self.names[name_id]
            calls, duration, self_s = per_name[name_id]
            nexts, _, next_self = per_name[name_id + 1]
            _, _, stop_self = per_name[name_id + 2]
            distinct = len(self.arg_ids.get(name, ()))
            out[name] = {
                "calls": calls,
                "items": nexts,
                "duration_s": duration,
                "self_s": self_s + next_self + stop_self,
                "repeats": calls - distinct if name in self.arg_ids else 0,
            }
        return out

    def roots_duration(self) -> float:
        return sum(
            self.end[idx] - self.start[idx]
            for idx in range(len(self.start))
            if self.parent[idx] == NO_PARENT
        )

    def call_spans(self, name: str):
        """(argument key, duration) of every call span of one function."""
        call_id = self.names.index(name)
        keys = {ident: key for key, ident in self.arg_ids.get(name, {}).items()}
        for idx in range(len(self.start)):
            if self.name_of[idx] == call_id:
                yield keys.get(self.arg[idx]), self.end[idx] - self.start[idx]

    def children_of(self, name: str, child_name: str) -> int:
        """Number of call spans of child_name whose parent is a call of name."""
        parent_id = self.names.index(name)
        child_id = self.names.index(child_name)
        return sum(
            1
            for idx in range(len(self.start))
            if self.name_of[idx] == child_id
            and self.parent[idx] != NO_PARENT
            and self.name_of[self.parent[idx]] == parent_id
        )
