"""In-memory span tracer for anncalc, installed from outside the package.

The tracer replaces every public function of the layer modules with a
wrapper, in every namespace a caller looks it up in (``anncalc.euler.realize``
and ``anncalc.realize`` are separate bindings of one function), and puts the
originals back on ``uninstall``.  Each call becomes a span (name, start, end,
parent) appended to flat lists; nothing is aggregated while timing.

Arithmetic counts for ``realize`` and the size of the nets returned by
``spacetime_net``/``deserialize`` are computed inside the wrapper, after the
call returns, under a ``trace.bookkeeping`` span of their own, so that they
are charged neither to the call nor to its caller.
"""

from __future__ import annotations

import inspect
import sys
from array import array
import time
import weakref

import numpy as np

from workloads import SUITES

LAYERS = ("network", "ops", "constructors", "euler", "verification")

BOOKKEEPING = "trace.bookkeeping"

# Phase of a suite's time.  A span takes the phase of its outermost classified
# ancestor below the suite span, so the realize calls inside an oracle count
# as oracle time and the probe realize inside relu_identity as construction.
_ORACLE = {
    "euler.euler_oracle",
    "euler.euler_nodes",
    "euler.perturbed_iterates",
    "constructors.tent_f",
    "constructors.tent_g",
}
_REALIZE = {"network.realize", "network.forward_states"}
_CONSTRUCT_EULER = {
    "euler.spacetime_net",
    "euler.euler_space_net",
    "euler.residual_chain",
    "euler.residual_step",
    "euler.time_hat_nets",
    "network.affine",
}
PHASES = ("construct", "oracle", "realize", "other")

# Per-layer metrics reported by a traced run, in output order, with
# (unit, better).  Every workload reports all of them; a layer a workload
# does not exercise reads 0.
_CALL_METRICS = {
    "ops": ("compose", "parallel_equal", "parallel_general", "power", "relu_identity",
            "sum_general"),
    "constructors": ("scalar_vector_product", "product_net", "square_unit", "hat_net"),
    "euler": ("spacetime_net", "euler_space_net", "residual_chain", "euler_oracle",
              "euler_nodes"),
}


def per_layer_metrics() -> list[tuple[str, str, str]]:
    out = [
        ("network.realize.calls", "count", "lower"),
        ("network.realize.self_s", "s", "lower"),
        ("network.realize.points", "count", "higher"),
        ("network.realize.dense_mults", "count", "lower"),
        ("network.realize.nnz_mults", "count", "lower"),
        ("network.realize.useful_ratio", "ratio", "higher"),
        ("network.realize.weight_bytes", "bytes", "lower"),
        ("network.serialize.self_s", "s", "lower"),
        ("network.serialize.bytes", "bytes", "lower"),
        ("network.deserialize.self_s", "s", "lower"),
        ("network.params", "count", "lower"),
        ("network.nnz", "count", "lower"),
    ]
    for layer, funcs in _CALL_METRICS.items():
        for fn in funcs:
            out.append((f"{layer}.{fn}.calls", "count", "lower"))
            out.append((f"{layer}.{fn}.self_s", "s", "lower"))
    for suite in SUITES:
        out.append((f"verification.{suite}.wall_s", "s", "lower"))
        for phase in PHASES:
            out.append((f"verification.{suite}.{phase}_s", "s", "lower"))
    out.append(("verification.halton.self_s", "s", "lower"))
    out += [
        ("trace.wall_s", "s", "lower"),
        ("trace.layer_self_s", "s", "lower"),
        ("trace.bookkeeping_s", "s", "lower"),
        ("trace.remainder_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
    return out


def _phase_of(name: str) -> str | None:
    if name in _ORACLE:
        return "oracle"
    if name in _REALIZE:
        return "realize"
    if name in _CONSTRUCT_EULER or name.split(".", 1)[0] in ("ops", "constructors"):
        return "construct"
    return None


class Tracer:
    """Spans of traced passes, kept in memory until ``aggregate``/``dump``."""

    def __init__(self):
        self.name_ids: dict[str, int] = {}
        self.names = array("q")
        self.parents = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []
        self._layer_nnz = weakref.WeakKeyDictionary()
        self._net_cost = weakref.WeakKeyDictionary()
        self.counts = {
            "network.realize.points": 0,
            "network.realize.dense_mults": 0,
            "network.realize.nnz_mults": 0,
            "network.realize.weight_bytes": 0,
            "network.serialize.bytes": 0,
            "network.params": 0,
            "network.nnz": 0,
        }

    # -- spans ------------------------------------------------------------

    def _id(self, name: str) -> int:
        return self.name_ids.setdefault(name, len(self.name_ids))

    def _open(self, nid: int) -> int:
        i = len(self.names)
        self.names.append(nid)
        self.parents.append(self._stack[-1])
        self.ends.append(0)
        self._stack.append(i)
        self.starts.append(time.perf_counter_ns())
        return i

    def _close(self, i: int) -> None:
        self.ends[i] = time.perf_counter_ns()
        self._stack.pop()

    def span(self, name: str):
        return _Span(self, self._id(name))

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = self._id(name)
        book = self._id(BOOKKEEPING)
        open_, close = self._open, self._close
        after = {
            "network.realize": self._count_realize,
            "network.serialize": self._count_serialize,
            "network.deserialize": self._count_built,
            "euler.spacetime_net": self._count_built,
        }.get(name)

        if after is None:
            def traced(*args, **kwargs):
                i = open_(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(i)
        else:
            def traced(*args, **kwargs):
                i = open_(nid)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    close(i)
                j = open_(book)
                try:
                    after(args, kwargs, result)
                finally:
                    close(j)
                return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def install(self) -> None:
        """Wrap the public functions of every layer module in every caller."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"anncalc.{layer}"]
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        callers = [m for n, m in sys.modules.items() if n == "anncalc" or n.startswith("anncalc.")]
        for mod in callers:
            for attr, val in list(vars(mod).items()):
                wrapper = wrappers.get(id(val))
                if wrapper is not None and wrapper.__wrapped__ is val:
                    self._patched.append((mod, attr, val))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, val in reversed(self._patched):
            setattr(mod, attr, val)
        self._patched.clear()

    # -- counts (run under trace.bookkeeping spans) --------------------------

    def _nnz(self, layer) -> int:
        n = self._layer_nnz.get(layer)
        if n is None:
            n = int(np.count_nonzero(layer.weights))
            self._layer_nnz[layer] = n
        return n

    def _count_realize(self, args, kwargs, result) -> None:
        bound = dict(zip(("net", "act", "x"), args), **kwargs)
        net, x = bound["net"], bound["x"]
        cost = self._net_cost.get(net)
        if cost is None:
            dense = sum(l.rows * l.cols for l in net.layers)
            nnz = sum(self._nnz(l) for l in net.layers)
            nbytes = sum(l.weights.nbytes + l.bias.nbytes for l in net.layers)
            cost = self._net_cost[net] = (dense, nnz, nbytes)
        shape = np.shape(x)
        points = 1 if len(shape) == 1 else shape[0]
        c = self.counts
        c["network.realize.points"] += points
        c["network.realize.dense_mults"] += points * cost[0]
        c["network.realize.nnz_mults"] += points * cost[1]
        c["network.realize.weight_bytes"] += cost[2]

    def _count_serialize(self, args, kwargs, result) -> None:
        self.counts["network.serialize.bytes"] += len(result)

    def _count_built(self, args, kwargs, net) -> None:
        c = self.counts
        for l in net.layers:
            c["network.params"] += l.rows * (l.cols + 1)
            c["network.nnz"] += self._nnz(l) + int(np.count_nonzero(l.bias))

    # -- results ------------------------------------------------------------

    def arrays(self):
        return tuple(
            np.frombuffer(a, dtype=np.int64)
            for a in (self.names, self.parents, self.starts, self.ends)
        )

    def self_ns(self):
        """Per-span self time: duration minus the durations of its children.

        Spans come from one thread and nest, so children never overlap and
        the covered part of a span is the plain sum of its children.
        """
        names, parents, starts, ends = self.arrays()
        dur = ends - starts
        child = np.bincount(parents + 1, weights=dur, minlength=len(dur) + 1)[1:]
        return dur - child.astype(np.int64), dur

    def aggregate(self, passes: int, root: str, overhead_s: float) -> tuple[dict, dict]:
        """Per-pass per-layer metrics, plus the consistency sums behind them.

        ``root`` names the span the benchmark opens around each traced pass;
        its self time is the part of the pass spent outside every layer.
        """
        names, parents, _, _ = self.arrays()
        self_t, dur = self.self_ns()
        table = {v: k for k, v in self.name_ids.items()}
        by_name = np.bincount(names, weights=self_t, minlength=len(table))
        calls = np.bincount(names, minlength=len(table))

        def self_s(name):
            nid = self.name_ids.get(name)
            return 0.0 if nid is None else by_name[nid] / 1e9 / passes

        def ncalls(name):
            nid = self.name_ids.get(name)
            return 0 if nid is None else int(calls[nid]) / passes

        suites = self._suite_phases(names, parents, self_t, table)
        root_id = self.name_ids[root]
        book_id = self.name_ids.get(BOOKKEEPING, -1)
        is_root = names == root_id
        is_book = names == book_id
        wall_ns = int(dur[is_root].sum())
        remainder_ns = int(self_t[is_root].sum())
        book_ns = int(self_t[is_book].sum())
        layer_ns = int(self_t[~is_root & ~is_book].sum())

        m = {}
        c = self.counts
        m["network.realize.calls"] = ncalls("network.realize")
        m["network.realize.self_s"] = self_s("network.realize")
        for key in ("points", "dense_mults", "nnz_mults", "weight_bytes"):
            m[f"network.realize.{key}"] = c[f"network.realize.{key}"] / passes
        dense = c["network.realize.dense_mults"]
        m["network.realize.useful_ratio"] = c["network.realize.nnz_mults"] / dense if dense else 0.0
        m["network.serialize.self_s"] = self_s("network.serialize")
        m["network.serialize.bytes"] = c["network.serialize.bytes"] / passes
        m["network.deserialize.self_s"] = self_s("network.deserialize")
        m["network.params"] = c["network.params"] / passes
        m["network.nnz"] = c["network.nnz"] / passes
        for layer, funcs in _CALL_METRICS.items():
            for fn in funcs:
                m[f"{layer}.{fn}.calls"] = ncalls(f"{layer}.{fn}")
                m[f"{layer}.{fn}.self_s"] = self_s(f"{layer}.{fn}")
        for suite in SUITES:
            split = suites.get(suite, {})
            m[f"verification.{suite}.wall_s"] = split.get("wall", 0) / 1e9 / passes
            for phase in PHASES:
                m[f"verification.{suite}.{phase}_s"] = split.get(phase, 0) / 1e9 / passes
        m["verification.halton.self_s"] = self_s("verification.halton")
        m["trace.wall_s"] = wall_ns / 1e9 / passes
        m["trace.layer_self_s"] = layer_ns / 1e9 / passes
        m["trace.bookkeeping_s"] = book_ns / 1e9 / passes
        m["trace.remainder_s"] = remainder_ns / 1e9 / passes
        m["trace.overhead_s"] = overhead_s

        sums = {
            "wall_ns": wall_ns,
            "layer_self_ns": layer_ns,
            "bookkeeping_ns": book_ns,
            "remainder_ns": remainder_ns,
            "spans": len(names),
            "suites_ns": {s: v for s, v in suites.items()},
            "self_s_by_layer": {
                layer: sum(by_name[k] for k, name in table.items() if name.startswith(layer + "."))
                / 1e9 / passes
                for layer in LAYERS
            },
            "self_s_by_name": {
                table[k]: by_name[k] / 1e9 / passes for k in np.argsort(-by_name) if calls[k]
            },
            "calls_by_name": {table[k]: int(calls[k]) / passes for k in range(len(table)) if calls[k]},
        }
        return m, sums

    def _suite_phases(self, names, parents, self_t, table) -> dict:
        """Split each suite span's time into construct/oracle/realize/other
        (plus bookkeeping) by the outermost classified span below it."""
        suite_of_name = {
            self.name_ids[f"verification.{s}"]: s
            for s in SUITES
            if f"verification.{s}" in self.name_ids
        }
        if not suite_of_name:
            return {}
        book_id = self.name_ids.get(BOOKKEEPING, -1)
        phase_of_name = {nid: _phase_of(name) for nid, name in table.items()}
        n = len(names)
        suite = [None] * n
        phase = [None] * n
        out: dict[str, dict] = {}
        names_l = names.tolist()
        parents_l = parents.tolist()
        self_l = self_t.tolist()
        for i in range(n):
            nid, p = names_l[i], parents_l[i]
            if nid in suite_of_name:
                suite[i] = suite_of_name[nid]
                phase[i] = "other"
            elif p >= 0 and suite[p] is not None:
                suite[i] = suite[p]
                if nid == book_id:
                    phase[i] = "bookkeeping"
                elif phase[p] in ("construct", "oracle", "realize"):
                    phase[i] = phase[p]
                else:
                    phase[i] = phase_of_name[nid] or "other"
            else:
                continue
            split = out.setdefault(suite[i], {})
            split[phase[i]] = split.get(phase[i], 0) + self_l[i]
        for split in out.values():
            split["wall"] = sum(split.values())
        return out

    def dump(self, path) -> None:
        """Write every span as arrays: name index, parent, start/end ns."""
        names, parents, starts, ends = self.arrays()
        table = sorted(self.name_ids, key=self.name_ids.get)
        np.savez_compressed(
            path, name=names, parent=parents, start_ns=starts, end_ns=ends,
            name_table=np.asarray(table),
        )


class _Span:
    __slots__ = ("tracer", "nid", "i")

    def __init__(self, tracer: Tracer, nid: int):
        self.tracer, self.nid = tracer, nid

    def __enter__(self):
        self.i = self.tracer._open(self.nid)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.i)
        return False
