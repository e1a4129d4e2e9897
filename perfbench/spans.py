"""Span tracing of lpsample from the outside, by wrapping its public callables.

``Tracer.install()`` replaces every public module function of ``lpsample.*``
(at every module that binds it, so ``cli``'s by-name imports are covered too)
and every public method of the public classes with a wrapper that records a
span: name, start, end, parent span and request id.  Spans live in compact
in-memory arrays until ``uninstall()``, which puts every original object back;
``layer_times()`` then reduces them to per-layer counts and self times.

A span's name is ``<module>.<function>`` with the class dropped, so the
vector and matrix trees' ``query_entry`` share ``ptree.query_entry``.  When a
span has the same name as its parent (the matrix tree delegating to a column
tree, a builder calling a constructor) it is folded into the parent: its self
time still counts, but it is not counted as a separate call.

``bookkeeping_s`` is the wrappers' own time around the top-level spans of
requests: the part of a request's latency that the tracer adds outside every
span.
"""

from __future__ import annotations

import array
import functools
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

from workloads import depth_plus_one

# special span names; everything else is <module>.<function>
_RENAMED = {
    ("ptree", "WeightedVectorTree.__init__"): "ptree.build",
    ("ptree", "WeightedVectorTree._from_magnitudes"): "ptree.build",
    ("ptree", "WeightedVectorTree.from_bytes"): "ptree.build",
    ("ptree", "WeightedMatrixTree.__init__"): "ptree.build",
    ("ptree", "build_vector_tree"): "ptree.build",
    ("ptree", "build_matrix_tree"): "ptree.build",
    ("lincomb", "CombinationSampler.__init__"): "lincomb.sampler_init",
}
_CLI_COMMANDS = ("mp_curve", "ratio_table", "inner_product", "lincomb", "dfe", "ingest")


# per-name counters taken from a call's arguments and result; they run only
# for calls that return, and only for the outermost span of a name
def _count_sample_indices(args, kwargs, result):
    return {"items": len(result)}


def _count_sample_entries(args, kwargs, result):
    return {"items": len(result[0])}


def _count_build(args, kwargs, result):
    tree = result if result is not None else args[0]
    rows, cols = tree.shape if hasattr(tree, "shape") else (len(tree), 1)
    return {"items": rows * cols}


def _count_visits(args, kwargs, result):
    tree = args[0]
    if not hasattr(tree, "last_op_visits"):
        return {}
    return {"visits": tree.last_op_visits, "visit_ops": 1, "depth_plus_one": depth_plus_one(len(tree))}


def _count_estimate(args, kwargs, result):
    return {"items": result.total_samples}


def _count_sample_many(args, kwargs, result):
    return {"items": len(result[0]), "proposals": result[1]}


def _count_sample(args, kwargs, result):
    return {"iterations": result.iterations, "queries": result.queries}


def _count_exact_m(args, kwargs, result):
    return {"items": int(np.size(args[0]))}


def _count_trials(args, kwargs, result):
    return {"items": kwargs.get("trials", args[4])}


def _count_mp_curve(args, kwargs, result):
    return {"items": len(result) * result[0].trials}


def _count_spec_sample(args, kwargs, result):
    return {"items": int(np.size(result))}


def _count_load(args, kwargs, result):
    return {"items": result.nnz}


def _count_to_dense(args, kwargs, result):
    return {"bytes": result.size * 8}


def _count_run_dfe(args, kwargs, result):
    return {"items": result.total_measurements}


def _count_paulis(args, kwargs, result):
    return {"items": len(result[0])}


_COUNTERS = {
    "ptree.sample_indices": _count_sample_indices,
    "ptree.sample_entries": _count_sample_entries,
    "ptree.build": _count_build,
    "ptree.sample_index": _count_visits,
    "ptree.update_entry": _count_visits,
    "estimators.estimate_inner_product": _count_estimate,
    "estimators.estimate_trace_inner_product": _count_estimate,
    "lincomb.sample_many": _count_sample_many,
    "lincomb.sample": _count_sample,
    "lincomb.exact_m": _count_exact_m,
    "lincomb.run_ratio_experiment": _count_trials,
    "lincomb.mp_curve": _count_mp_curve,
    "randkit.sample": _count_spec_sample,
    "sparseio.load_matrix": _count_load,
    "sparseio.to_dense": _count_to_dense,
    "dfe.run_dfe": _count_run_dfe,
    "dfe.sample_paulis": _count_paulis,
}


def _lpsample_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "lpsample" or name.startswith("lpsample."))]


def _short(module) -> str:
    return module.__name__.rpartition(".")[2]


def traced_targets():
    """The (span name, owner, attribute, original) targets ``install`` wraps.

    Owners are classes for methods and the defining module for functions;
    ``install`` additionally rebinds each function wherever else it is bound.
    """
    import lpsample.cli as cli

    targets = []
    for module in _lpsample_modules():
        short = _short(module)
        if module is cli:
            names = ["main", "build_parser"] + [f"cmd_{c}" for c in _CLI_COMMANDS]
        else:
            names = getattr(module, "__all__", [])
        for attr in names:
            obj = getattr(module, attr)
            if inspect.isclass(obj):
                if issubclass(obj, BaseException) or obj.__module__ != module.__name__:
                    continue
                for meth, raw in vars(obj).items():
                    special = _RENAMED.get((short, f"{obj.__name__}.{meth}"))
                    if special is None and meth.startswith("_"):
                        continue
                    func = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
                    if inspect.isfunction(func):
                        targets.append((special or f"{short}.{meth}", obj, meth, raw))
            elif inspect.isfunction(obj) and obj.__module__ == module.__name__:
                if module is cli and attr.startswith("cmd_"):
                    name = "cli." + attr[4:].replace("_", "-")
                else:
                    name = _RENAMED.get((short, attr), f"{short}.{attr}")
                targets.append((name, module, attr, obj))
    return targets


class Tracer:
    """In-memory span recorder over wrapped lpsample callables."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._start = array.array("d")
        self._end = array.array("d")
        self._parent = array.array("q")
        self._name = array.array("q")
        self._request = array.array("q")
        self._stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(int)
        self.request_id = -1
        self._bookkeeping = array.array("d", [0.0])
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping --------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, func):
        nid = self._name_id(name)
        counter = _COUNTERS.get(name)
        start, end, parent_of, name_of, request_of = (
            self._start, self._end, self._parent, self._name, self._request)
        stack = self._stack
        counters = self.counters
        bookkeeping = self._bookkeeping
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            t_in = clock()
            parent = stack[-1] if stack else -1
            k = len(name_of)
            name_of.append(nid)
            parent_of.append(parent)
            request_of.append(self.request_id)
            start.append(0.0)
            end.append(0.0)
            stack.append(k)
            t0 = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[k] = t0
                end[k] = t1
            if counter is not None and (parent < 0 or name_of[parent] != nid):
                for key, value in counter(args, kwargs, result).items():
                    counters[f"{name}.{key}"] += value
            if parent < 0 and request_of[k] >= 0:
                bookkeeping[0] += (t0 - t_in) + (clock() - t1)
            return result

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = _lpsample_modules()
        for name, owner, attr, original in traced_targets():
            if inspect.isclass(owner):
                if isinstance(original, (classmethod, staticmethod)):
                    wrapped = type(original)(self._wrap(name, original.__func__))
                else:
                    wrapped = self._wrap(name, original)
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapped)
                continue
            wrapped = self._wrap(name, original)
            for module in modules:
                for bound, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, bound, original))
                        setattr(module, bound, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- spans ---------------------------------------------------------------

    @property
    def bookkeeping_s(self) -> float:
        return self._bookkeeping[0]

    def __len__(self) -> int:
        return len(self._name)

    def spans(self) -> dict[str, np.ndarray]:
        """All recorded spans as arrays, indexed by opening order."""
        def view(buf, dtype):
            return np.frombuffer(buf, dtype=dtype).copy() if len(buf) else np.zeros(0, dtype)

        return {
            "start": view(self._start, np.float64),
            "end": view(self._end, np.float64),
            "parent": view(self._parent, np.int64),
            "name": view(self._name, np.int64),
            "request": view(self._request, np.int64),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.spans())

    def layer_times(self) -> tuple[dict[str, dict[str, float]], float]:
        """Per span name: outermost ``calls`` and ``busy_s`` (self time).

        Also returns the summed duration of the top-level spans opened inside
        a request (request id >= 0), that is, the request time the spans cover.
        """
        s = self.spans()
        dur = s["end"] - s["start"]
        parent, name = s["parent"], s["name"]
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        self_time = dur - child
        outermost = ~nested
        outermost[nested] = name[parent[nested]] != name[nested]
        width = len(self.names)
        busy = np.bincount(name, weights=self_time, minlength=width)
        calls = np.bincount(name[outermost], minlength=width)
        table = {n: {"calls": int(calls[i]), "busy_s": float(busy[i])} for i, n in enumerate(self.names)}
        return table, float(dur[~nested & (s["request"] >= 0)].sum())
