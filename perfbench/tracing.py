"""In-memory span recorder for traced benchmark passes.

`Tracer.install` wraps every public function of the rainbow_lab modules under
each name a module binds it to. `from .coloring import find_rainbow_triple`
in cli.py binds a copy of the function, so wrapping coloring's attribute
alone would miss the calls cli makes; here cli.find_rainbow_triple and
coloring.find_rainbow_triple are separate spans of the same function.

A span has a name ("<calling module>.<function>"), a layer (the module that
defines the function), start, end, parent, and the time it covered. A plain
call covers end - start. A generator covers only the steps that run inside
it, from the first `next` to exhaustion, so a consumer's own work between
items is not charged to the generator. Self time is covered time minus the
time covered by the span's children.
"""
from __future__ import annotations

import array
import functools
import gzip
import inspect
import time
import types

MODULES = ("cli", "formulas", "search", "modcore", "coloring", "constructions", "certificates")

# one span = 6 doubles: name id, parent index, start, end, covered, items/found
_NAME, _PARENT, _START, _END, _COVERED, _EXTRA = range(6)
_STRIDE = 6


class Tracer:
    def __init__(self):
        self.data = array.array("d")
        self.names: list[str] = []
        self.layers: list[str] = []
        self.funcs: list[str] = []
        self.stack = [-1]

    def _name_id(self, name: str, fn) -> int:
        self.names.append(name)
        self.layers.append(fn.__module__.rsplit(".", 1)[-1])
        self.funcs.append(fn.__name__)
        return len(self.names) - 1

    def install(self, package) -> None:
        """Wrap the public functions bound in the package and its modules."""
        namespaces = [(m, getattr(package, m)) for m in MODULES] + [("rainbow_lab", package)]
        originals = {}
        for _, ns in namespaces:
            for attr, value in vars(ns).items():
                if (
                    isinstance(value, types.FunctionType)
                    and not attr.startswith("_")
                    and value.__module__.startswith("rainbow_lab.")
                ):
                    originals[(ns, attr)] = value
        for (ns, attr), fn in originals.items():
            label = ns.__name__.rsplit(".", 1)[-1]
            nid = self._name_id(f"{label}.{attr}", fn)
            wrap = self._wrap_gen if inspect.isgeneratorfunction(fn) else self._wrap_call
            setattr(ns, attr, functools.wraps(fn)(wrap(fn, nid)))

    def _open(self, nid: int) -> int:
        i = len(self.data) // _STRIDE
        self.data.extend((nid, self.stack[-1], 0.0, 0.0, 0.0, 0.0))
        return i

    def _wrap_call(self, fn, nid):
        data, stack, clock, open_span = self.data, self.stack, time.perf_counter, self._open

        def traced(*args, **kwargs):
            i = open_span(nid)
            stack.append(i)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                base = i * _STRIDE
                data[base + _START] = t0
                data[base + _END] = t1
                data[base + _COVERED] = t1 - t0
            data[base + _EXTRA] = result is not None
            return result

        return traced

    def _wrap_gen(self, fn, nid):
        data, stack, clock, open_span = self.data, self.stack, time.perf_counter, self._open

        def traced(*args, **kwargs):
            i = open_span(nid)
            base = i * _STRIDE
            data[base + _START] = clock()
            gen = fn(*args, **kwargs)
            covered, items = 0.0, 0
            try:
                while True:
                    stack.append(i)
                    t0 = clock()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        covered += clock() - t0
                        stack.pop()
                    items += 1
                    yield item
            finally:
                gen.close()
                data[base + _END] = clock()
                data[base + _COVERED] = covered
                data[base + _EXTRA] = items

        return traced

    def __len__(self) -> int:
        return len(self.data) // _STRIDE

    def spans(self):
        """(name, layer, func, parent, start, end, covered, extra) per span."""
        d = self.data
        for i in range(len(self)):
            b = i * _STRIDE
            nid = int(d[b + _NAME])
            yield (
                self.names[nid], self.layers[nid], self.funcs[nid], int(d[b + _PARENT]),
                d[b + _START], d[b + _END], d[b + _COVERED], d[b + _EXTRA],
            )

    def write(self, path) -> None:
        """Dump every span as tab-separated text, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tname\tparent\tstart\tend\tcovered\n")
            for i, (name, _, _, parent, start, end, covered, _) in enumerate(self.spans()):
                fh.write(f"{i}\t{name}\t{parent}\t{start:.9f}\t{end:.9f}\t{covered:.9f}\n")

    def summary(self) -> dict:
        """Per layer and per layer.function: calls, self time, covered time.

        `calls` of a layer counts entries into it (spans whose parent belongs to
        another layer or to no span); `calls` of a function counts every span.
        """
        rows = list(self.spans())
        child_cover = [0.0] * len(rows)
        for name, layer, func, parent, start, end, covered, extra in rows:
            if parent >= 0:
                child_cover[parent] += covered
        layers: dict[str, dict] = {}
        funcs: dict[str, dict] = {}
        names: dict[str, dict] = {}
        for i, (name, layer, func, parent, start, end, covered, extra) in enumerate(rows):
            self_s = covered - child_cover[i]
            entry = parent < 0 or rows[parent][1] != layer
            lay = layers.setdefault(layer, {"calls": 0, "self_s": 0.0})
            lay["calls"] += entry
            lay["self_s"] += self_s
            fk = f"{layer}.{func}"
            f = funcs.setdefault(fk, {"calls": 0, "self_s": 0.0, "covered_s": 0.0, "extra": 0.0})
            f["calls"] += 1
            f["self_s"] += self_s
            f["covered_s"] += covered
            f["extra"] += extra
            nm = names.setdefault(name, {"calls": 0, "covered_s": 0.0})
            nm["calls"] += 1
            nm["covered_s"] += covered
        return {"spans": len(rows), "layers": layers, "funcs": funcs, "names": names}
