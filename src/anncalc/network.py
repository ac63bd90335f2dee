"""Feedforward networks as explicit stacks of affine layers.

A network here is pure data: a non-empty sequence of ``(W, b)`` pairs with
chaining shapes.  What function it computes is decided only when an
activation is supplied to :func:`realize`; the same network can be realized
under ReLU, the identity, or any other scalar activation.  All scalars are
64-bit floats and every value is immutable, so structural identities can be
checked by exact comparison.

This module is the only one that knows how a layer is stored.  A
:class:`Layer` is born dense (``Layer(W, b)``, or :meth:`Layer.after`, the
fused layer of a composition), as a stack (:meth:`Layer.stack`, the
block-diagonal layer of a parallelization, which keeps its parts), or as
the entries of a COO file layer.  Only the dense form holds its matrix;
``layer.weights``, the read-only row-major matrix, is kept on first use,
and only there: :func:`networks_equal` scans a stack's entries from a fresh
fill that no layer keeps.  A sparse stack's block plan is made of its leaves;
a large sparse layer of any other form, or a stack whose leaves fill too much
of it, scans its entries without keeping them.

:func:`realize` and :func:`forward_states` share one evaluator: it checks a
batch once and runs it whole under 1,024 points, else in slices of a
multiple of 64 points, at least 512, whose widest state fits _CHUNK_BYTES,
the last taking the rest.  A network with a large sparse layer is evaluated
from one plan, derived from its layers' block plans on first use and kept
with it (:attr:`Network._plan`): the state after a planned layer is a
C-ordered (units, points) array in block order, so each group of blocks
writes one contiguous slice of it and, where its columns lie in a row, reads
one.  Every other layer computes exactly ``z @ W.T + b``; a network with no
layer of _STACK_MIN_ENTRIES entries plans nothing.  The activation is
applied in one place, and states come out in each layer's own unit order.

Numbers from outside follow one rule, :func:`_numbers`: integers and floats
only.  A bool, a string, None or an integer wider than 64 bits is a
DomainError and a ragged list a ShapeError, for layer weights and biases,
evaluation points, the numbers of network and scheme files, an Euler
scheme's perturbations and the points of its oracle.

Files (``.ann.json``) are read, like scheme files, by one strict JSON front
end: UTF-8 text without NaN or Infinity tokens, any failure a ParseError.
They hold each distinct layer object once, as a part: a leaf stores its
shape, the row and column of each weight that is nonzero or ``-0.0`` in
row-major order, those weights and the dense bias; a stack lists the ids of
earlier parts, and a load builds it from those objects, so the net comes
back with the same bytes and shared parts.  A layer is a part id or an
inline part.  Each distinct number of a long list is formatted once, and
the text is what ``json.dumps`` writes of the same document::

    {"layout": "coo", "parts": [{"shape": [r, c], "rows": [...], "cols": [...],
     "values": [...], "bias": [...]}, {"stack": [0, 0]}, ...], "layers": [1, ...]}

A part may have at most 2**27 weight entries, and the stacks' biases as many.
"""

from __future__ import annotations

import json
import numbers
import sys
from collections import deque
from contextlib import suppress
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Activation",
    "DomainError",
    "IDENTITY",
    "Layer",
    "Network",
    "ParseError",
    "RELU",
    "ShapeError",
    "affine",
    "deserialize",
    "dims",
    "forward_states",
    "load_network",
    "networks_equal",
    "param_count",
    "realize",
    "save_network",
    "serialize",
]


# A layer is evaluated by its block plan when at most 1/_BLOCK_MAX_DENSITY of
# its entries are in blocks: from _STACK_MIN_ENTRIES for a stack, whose plan
# is its leaves' blocks and needs no scan, and from _BLOCK_MIN_ENTRIES for a
# plan of connected components, which scans the entries.  Below its size a
# plan costs more than it saves in the one evaluation a layer often gets.
_STACK_MIN_ENTRIES = 1 << 12
_BLOCK_MIN_ENTRIES = 1 << 16
_BLOCK_MAX_DENSITY = 8

# A COO layer may declare at most 2**27 weight entries (1 GiB of float64),
# so a short file cannot ask for a larger dense matrix when a check reads
# one.  The largest layer of the d=4 space-time nets has 1.9M entries at
# N=16, 4.0M at N=64 and 8.0M at N=128.
_MAX_LAYER_ENTRIES = 1 << 27

# serialize formats a list of this many numbers or more by its distinct
# numbers; a shorter list costs less to format number by number than to sort.
_UNIQUE_MIN_LENGTH = 64

# Batches are sliced from 2 * _SLICE_POINTS points up, so that the widest
# state of a slice fits _CHUNK_BYTES, about a core's L2 cache.  BLAS cuts rows
# in blocks that divide 64, so a row keeps its bits unless its slice's size
# picks another kernel, as (M, 48) @ (48, 2) does below M = 601 in OpenBLAS 0.3.31.
_CHUNK_BYTES = 1 << 19
_SLICE_POINTS = 512


class ShapeError(ValueError):
    """Shapes do not chain or violate an operation's interface contract."""


class DomainError(ValueError):
    """A scalar parameter lies outside its admissible range."""


class ParseError(ValueError):
    """A serialized network document is malformed."""


def _is_int(value) -> bool:
    """True for an integer of any integral type within 64 bits; bools are not integers here."""
    return (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and -(2**63) <= int(value) < 2**64)


def _is_real(value) -> bool:
    """True for a real number of any real type that a float holds; bools are not numbers here."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and (not isinstance(value, numbers.Integral)
                 or -sys.float_info.max <= value <= sys.float_info.max))


def _array(values, what: str) -> np.ndarray:
    """``values`` as an array; ShapeError if it is ragged."""
    try:
        return np.asarray(values)
    except ValueError as exc:
        raise ShapeError(f"{what} must be rectangular: {exc}") from exc


def _numbers(values, what: str) -> np.ndarray:
    """``values`` as a float64 array, by the one rule for numbers from outside:
    integers and floats only.  ShapeError if ``values`` is ragged, DomainError
    if it holds a bool, a string, None, a complex number or an integer wider
    than 64 bits.  numpy makes a bool among numbers 1.0 or 0.0, so a list or
    tuple is walked for bools; an array is judged by its dtype."""
    a = _array(values, what)
    if a.dtype.kind in "iuf":
        if isinstance(values, np.ndarray) or not _holds_bool(values):
            return a.astype(np.float64, copy=False)
        got = "a bool"
    else:
        # numpy keeps an integer it cannot hold in 64 bits, and any bool of
        # an object array, as a Python object
        objects = a.ravel().tolist() if a.dtype.kind == "O" else []
        wide = [v for v in objects if isinstance(v, numbers.Integral) and not _is_int(v)]
        got = f"{wide[0]}, an integer wider than 64 bits" if wide else f"dtype {a.dtype}"
        got = "a bool" if _holds_bool(objects) else got
    raise DomainError(f"{what} must hold integers or floats, got {got}")


def _holds_bool(raw) -> bool:
    """True if ``raw``, a scalar or nested lists and tuples, holds a bool (numpy's too)."""
    if isinstance(raw, (list, tuple)):
        return any(_holds_bool(v) for v in raw)
    if isinstance(raw, np.ndarray):
        return raw.dtype.kind == "b"
    return isinstance(raw, (bool, np.bool_))


def _frozen(values, ndim: int, what: str) -> np.ndarray:
    """``values`` by :func:`_numbers` as a read-only C-ordered copy of ``ndim`` dimensions."""
    a = np.array(_numbers(values, what), order="C")
    if a.ndim != ndim:
        raise ShapeError(f"{what} must be {ndim}-d, got shape {a.shape}")
    a.setflags(write=False)
    return a


def _checked_bias(bias, rows: int) -> np.ndarray:
    """``bias`` by :func:`_frozen` as a 1-d array; ShapeError unless it has ``rows`` entries."""
    b = _frozen(bias, 1, "bias")
    if b.shape[0] != rows:
        raise ShapeError(f"weight rows {rows} != bias length {b.shape[0]}")
    return b


# the form a layer is born in, by the array it is born with
_FORMS = {"weights": "dense", "_parts": "stack", "_entries": "entries"}


class Layer:
    """One affine map ``x -> W x + b`` with ``W`` of shape (rows, cols), born
    dense, as a stack or as COO entries (see the module docstring), which
    ``form`` names.  Layers are immutable and compare by identity."""

    def __init__(self, weights, bias):
        w = _frozen(weights, 2, "weight matrix")
        b = _checked_bias(bias, w.shape[0])
        if min(w.shape) < 1:
            raise ShapeError(f"layer dimensions must be positive, got {w.shape}")
        self.__dict__.update(rows=w.shape[0], cols=w.shape[1], bias=b, weights=w, form="dense")

    @classmethod
    def _trusted(cls, rows: int, cols: int, bias: np.ndarray, **data) -> Layer:
        """A layer of fresh, consistent arrays, kept without a copy: ``data`` is
        ``weights=`` a read-only matrix, ``_parts=`` or ``_entries=``."""
        layer = cls.__new__(cls)
        bias.setflags(write=False)
        form = _FORMS[next(iter(data))]
        layer.__dict__.update(rows=rows, cols=cols, bias=bias, form=form, **data)
        return layer

    def __setattr__(self, name, *value):
        raise AttributeError(f"a Layer is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def _leaves(self):
        """Each leaf under this layer with its row and column offsets, in row
        order, walked without recursion however deep the stacks nest."""
        todo = [(self, 0, 0)]
        while todo:
            layer, r, c = todo.pop()
            if "_parts" not in layer.__dict__:
                yield layer, r, c
                continue
            r, c = r + layer.rows, c + layer.cols
            for part in reversed(layer._parts):  # so the first part is taken first
                r, c = r - part.rows, c - part.cols
                todo.append((part, r, c))

    def _matrix(self) -> np.ndarray:
        """The matrix: ``weights`` if filled, else a fresh read-only fill no layer keeps."""
        if "weights" in self.__dict__:
            return self.weights
        w = np.zeros((self.rows, self.cols))
        for leaf, r, c in self._leaves():
            block = w[r : r + leaf.rows, c : c + leaf.cols]
            if "weights" in leaf.__dict__:
                block[...] = leaf.weights
            else:
                rows, cols, values = leaf._entries
                block[rows, cols] = values
        w.setflags(write=False)
        return w

    weights = cached_property(_matrix)

    def _scan(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, cols, values) of every weight that is nonzero or ``-0.0``,
        in row-major order.  A dense layer, or a stack under _BLOCK_MIN_ENTRIES
        entries, scans its matrix; a larger stack joins its leaves' entries."""
        if "_parts" not in self.__dict__ or self.rows * self.cols < _BLOCK_MIN_ENTRIES:
            w = self._matrix()
            rows, cols = np.nonzero((w != 0.0) | np.signbit(w))
            return rows, cols, w[rows, cols]
        leaves, r0, c0 = zip(*self._leaves())
        rows, cols, values = zip(*(leaf._entries for leaf in leaves))
        return (np.concatenate([r + k for r, k in zip(rows, r0)]),
                np.concatenate([c + k for c, k in zip(cols, c0)]), np.concatenate(values))

    _entries = cached_property(_scan)

    def after(self, other: Layer) -> Layer:
        """This map after ``other`` = (V, c) as one layer (W V, W c + b), as composition fuses."""
        w = self.weights
        fused = w @ other.weights
        fused.setflags(write=False)
        return Layer._trusted(*fused.shape, w @ other.bias + self.bias, weights=fused)

    @staticmethod
    def stack(layers: Sequence[Layer]) -> Layer:
        """The block-diagonal layer: each layer maps its own slice of the input, in order."""
        parts = tuple(layers)
        rows, cols = sum(p.rows for p in parts), sum(p.cols for p in parts)
        return Layer._trusted(rows, cols, np.concatenate([p.bias for p in parts]), _parts=parts)

    @cached_property
    def _block_plan(self) -> tuple | None:
        """The nonzeros as dense blocks grouped by shape, or None when the
        layer is too small or too dense for them and takes the plain product.

        One group per block shape (a, b), in shape order: (G, a) row ids and
        (G, b) column ids, each ascending, and the (G, a, b) stacked weights,
        blocks in row order.  No row or column is in two blocks; a row in none
        is all-zero.  A stack's blocks are its leaves at their offsets, each
        leaf by its own plan or else whole.  Any other layer's blocks, or a
        stack's whose leaves fill too much of it, are the connected components
        of the graph joining row i to column j wherever W[i, j] != 0, filled
        from :attr:`_entries` if kept, else from a scan.
        """
        R, C = self.rows, self.cols
        if "_parts" in self.__dict__ and R * C >= _STACK_MIN_ENTRIES:
            whole, shapes, cells = {}, {}, 0
            for layer, r, c in self._leaves():
                if layer._block_plan is None:
                    whole.setdefault((layer.rows, layer.cols), []).append((r, c, layer))
                    cells += layer.rows * layer.cols
                else:
                    for row_ids, col_ids, blocks in layer._block_plan:
                        shapes.setdefault(blocks.shape[1:], []).append((row_ids + r, col_ids + c, blocks))
                        cells += blocks.size
            if cells * _BLOCK_MAX_DENSITY <= R * C:
                for (a, b), found in whole.items():
                    r, c, leaves = zip(*found)
                    blocks = np.array([leaf._matrix() for leaf in leaves])
                    shapes.setdefault((a, b), []).append(
                        (np.add.outer(r, np.arange(a)), np.add.outer(c, np.arange(b)), blocks))
                groups = []
                for ab in sorted(shapes):
                    row_ids, col_ids, blocks = map(np.concatenate, zip(*shapes[ab]))
                    order = np.argsort(row_ids[:, 0])
                    groups.append((row_ids[order], col_ids[order], blocks[order]))
                return tuple(groups)
        if R * C < _BLOCK_MIN_ENTRIES:
            return None
        rows, cols, values = self.__dict__.get("_entries") or self._scan()
        nonzero = values != 0.0
        edge_rows, edge_cols = rows[nonzero], cols[nonzero] + R
        if edge_rows.size * _BLOCK_MAX_DENSITY > R * C:
            return None
        # min-label propagation over rows 0..R-1 and columns R..R+C-1, with
        # pointer jumping: at the fixed point every node is labelled with the
        # least node, a row, of its component
        label = np.arange(R + C)
        while True:
            low = np.minimum(label[edge_rows], label[edge_cols])
            new = label.copy()
            np.minimum.at(new, edge_rows, low)
            np.minimum.at(new, edge_cols, low)
            new = new[new]
            if np.array_equal(new, label):
                break
            label = new
        # components by label, ids ascending within each; a row or column
        # without nonzeros is a component of its own, of width or height 0
        nodes = np.argsort(label, kind="stable")
        row_nodes = nodes[nodes < R]
        col_nodes = nodes[nodes >= R]
        heights = np.bincount(label[:R], minlength=R)
        widths = np.bincount(label[R:], minlength=label.size)[:R]
        row_starts = np.cumsum(heights) - heights
        col_starts = np.cumsum(widths) - widths
        is_block = widths > 0
        keys = rows * C + cols
        groups = []
        for a, b in sorted(set(zip(heights[is_block].tolist(), widths[is_block].tolist()))):
            of_shape = np.flatnonzero((heights == a) & (widths == b))
            row_ids = row_nodes[row_starts[of_shape, np.newaxis] + np.arange(a)]
            col_ids = col_nodes[col_starts[of_shape, np.newaxis] + np.arange(b)] - R
            # the matrix at each block cell, looked up among the row-major entries
            at = row_ids[:, :, np.newaxis] * C + col_ids[:, np.newaxis, :]
            pos = np.minimum(np.searchsorted(keys, at), keys.size - 1)
            groups.append((row_ids, col_ids, np.where(keys[pos] == at, values[pos], 0.0)))
        return tuple(groups)


@dataclass(frozen=True, eq=False)
class Network:
    """A non-empty tuple of affine layers with chaining shapes."""

    layers: tuple[Layer, ...]

    def __post_init__(self):
        layers = tuple(
            layer if isinstance(layer, Layer) else Layer(*layer) for layer in self.layers
        )
        object.__setattr__(self, "layers", layers)
        if not layers:
            raise ShapeError("a network needs at least one layer")
        for k in range(1, len(layers)):
            if layers[k].cols != layers[k - 1].rows:
                raise ShapeError(
                    f"layer {k} expects {layers[k].cols} inputs but layer {k - 1} "
                    f"produces {layers[k - 1].rows}"
                )

    @classmethod
    def _trusted(cls, layers: tuple[Layer, ...]) -> Network:
        """A network of layers that already chain, kept unchecked: ``ops``
        builds them from checked networks and checks the interface it fuses."""
        net = cls.__new__(cls)
        object.__setattr__(net, "layers", layers)
        return net

    @cached_property
    def _plan(self) -> tuple:
        """One evaluation step per layer, derived from the layers' block plans.

        A layer without a plan is its own step.  A planned layer writes its
        state in block order: the rows of each group in plan order, block by
        block, then the rows in no block.  Its step holds its runs (stacked
        blocks, where they read the previous state, the slice they write),
        its bias in block order, its number of block rows and the position
        of each unit.  A run is a longest stretch of a group's blocks that
        read one slice; a group whose blocks' columns do not lie in a row, or
        whose runs hold fewer than two blocks on average, is one run that
        gathers them.
        """
        steps, pos = [], None
        for layer in self.layers:
            plan = layer._block_plan
            if plan is None:
                steps.append(layer)
                pos = None
                continue
            # an all-zero layer has a plan without blocks
            blocked = np.concatenate([np.arange(0)] + [row_ids.ravel() for row_ids, _, _ in plan])
            free = np.ones(layer.rows, dtype=bool)
            free[blocked] = False
            order = np.concatenate([blocked, np.flatnonzero(free)])
            runs, start = [], 0
            for row_ids, col_ids, blocks in plan:
                at = col_ids if pos is None else pos[col_ids]
                g, a = row_ids.shape
                # blocks that read on where the one before stops share a slice;
                # each run costs a product, which pays where runs average two blocks
                cuts = (np.flatnonzero(at[1:, 0] != at[:-1, -1] + 1) + 1).tolist()
                count = len(cuts) + 1
                if (np.diff(at, axis=1) == 1).all() and (count == 1 or g >= 2 * count):
                    for lo, hi in zip([0] + cuts, cuts + [g]):
                        src = slice(int(at[lo, 0]), int(at[hi - 1, -1]) + 1)
                        runs.append((blocks[lo:hi], src, slice(start + lo * a, start + hi * a)))
                else:
                    runs.append((blocks, at, slice(start, start + g * a)))
                start += g * a
            pos = np.argsort(order)
            steps.append((tuple(runs), layer.bias[order], start, pos))
        return tuple(steps)

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def input_dim(self) -> int:
        return self.layers[0].cols

    @property
    def output_dim(self) -> int:
        return self.layers[-1].rows

    def __repr__(self):
        return f"Network(dims={dims(self)})"


@dataclass(frozen=True)
class Activation:
    """A scalar activation applied componentwise.

    ``kind`` names the activation (``"relu"``, ``"identity"``) in its repr;
    no code reads it, and network files store no activation.
    """

    kind: str
    fn: Callable[[np.ndarray], np.ndarray]


RELU = Activation("relu", lambda z: np.maximum(z, 0.0))
IDENTITY = Activation("identity", lambda z: z)


def affine(weights, bias=None) -> Network:
    """Single-layer network for the affine map x -> W x + b (b defaults to 0)."""
    w = _frozen(weights, 2, "weight matrix")
    if bias is None:
        bias = np.zeros(w.shape[0])
    return Network((Layer(w, bias),))


def dims(net: Network) -> tuple[int, ...]:
    """The dimension vector (l_0, ..., l_L), read off the layer shapes."""
    return (net.input_dim,) + tuple(layer.rows for layer in net.layers)


def param_count(net: Network) -> int:
    """Number of stored scalars, sum_k l_k (l_{k-1} + 1)."""
    return sum(layer.rows * (layer.cols + 1) for layer in net.layers)


def _states(net: Network, act: Activation, z: np.ndarray):
    """The states x_0, ..., x_L of one evaluation of the batch ``z``, each with
    the position of its units: None for a (points, units) array in the
    layer's own order, an array for the (units, points) block-order state of
    a planned layer.  A net without a large layer plans nothing."""
    large = any(layer.rows * layer.cols >= _STACK_MIN_ENTRIES for layer in net.layers)
    steps = net._plan if large else net.layers
    last = len(steps) - 1
    pos = None
    yield z, pos
    for k, step in enumerate(steps):
        if isinstance(step, Layer):
            # after a planned layer the (n, cols) operand is a transposed view:
            # BLAS may pick another kernel, and round otherwise, on another layout
            z = (z if pos is None else z[pos].T) @ step.weights.T + step.bias
            pos = None
        else:
            z = _blocks_apply(step, z.T.copy() if pos is None else z)
            pos = step[-1]
        if k < last:
            z = np.maximum(z, 0.0, out=z) if act is RELU else act.fn(z)
        yield z, pos


def _blocks_apply(step: tuple, s: np.ndarray) -> np.ndarray:
    """A planned layer on the (units, points) state ``s``: each run's stacked
    product goes straight into its slice of the new state, and the bias over
    it in place."""
    runs, bias, blocked, _ = step
    n = s.shape[1]
    out = np.empty((bias.size, n))
    for blocks, src, rows in runs:
        g, a, b = blocks.shape
        np.matmul(blocks, s[src].reshape(g, b, n), out=out[rows].reshape(g, a, n))
    # -0.0 + b is b for every b, so a row in no block gets its bias alone
    out[blocked:] = -0.0
    out += bias[:, np.newaxis]
    return out


def _slices(net: Network, z: np.ndarray) -> list[np.ndarray]:
    """The batch ``z`` whole if under 2 * _SLICE_POINTS points, else in
    consecutive slices of the largest multiple of 64 points whose widest
    state fits _CHUNK_BYTES, but at least _SLICE_POINTS; the last takes the
    rest, so each row keeps its place modulo 64."""
    if len(z) < 2 * _SLICE_POINTS:
        return [z]
    width = max(net.input_dim, *(layer.rows for layer in net.layers))
    size = max(_SLICE_POINTS, _CHUNK_BYTES // (8 * 64 * width) * 64)
    return np.split(z, range(size, len(z) - size + 1, size))


def _evaluate(net: Network, act: Activation, x, every: bool) -> list[np.ndarray]:
    """The states of one evaluation at ``x``, each (points, units) in its
    layer's own unit order, or only the last unless ``every``: ``x`` checked
    once, its slices' states joined."""
    x = _numbers(x, "input x")
    single = x.ndim == 1
    z = x[np.newaxis, :] if single else x
    if z.ndim != 2 or z.shape[1] != net.input_dim:
        raise ShapeError(f"input has shape {x.shape} but the network expects "
                         f"{net.input_dim} components")
    if not np.isfinite(z).all():
        at = tuple(int(i) for i in np.argwhere(~np.isfinite(x))[0])
        raise DomainError(f"input x must be finite, got {x[at]} at index {at}")
    runs = []
    for part in _slices(net, z):
        states = _states(net, act, part)
        kept = list(states) if every else deque(states, maxlen=1)
        runs.append([s if pos is None else s[pos].T for s, pos in kept])
    states = runs[0] if len(runs) == 1 else [np.concatenate(s) for s in zip(*runs)]
    return [s[0] for s in states] if single else states


def realize(net: Network, act: Activation, x) -> np.ndarray:
    """Evaluate the network at ``x``: activation after every layer but the last.

    ``x`` may be a single point of length I or a batch of shape (n, I);
    the result has shape (O,) or (n, O) accordingly.  Raises ShapeError on
    a wrong or ragged shape and DomainError if ``x`` holds anything but
    integers and floats (strings, bools, complex numbers, None) or a NaN or
    an infinity.  A batch of 1,024 points or more runs in the module's slices.
    """
    return _evaluate(net, act, x, every=False)[0]


def forward_states(net: Network, act: Activation, x) -> list[np.ndarray]:
    """All intermediate states [x_0, x_1, ..., x_L] of one evaluation.

    Takes and slices ``x`` as :func:`realize` does and raises the same
    errors; the last state is its result, bit for bit.
    """
    return _evaluate(net, act, x, every=True)


def networks_equal(a: Network, b: Network) -> bool:
    """Structural equality: equal depths and layer shapes, and every weight
    and bias equal by ``==``, so ``-0.0`` equals ``0.0`` and a NaN equals
    nothing, not even itself.  Layers are compared by their entries, so a
    file layer or a large stack fills no matrix."""
    return a.depth == b.depth and all(map(_layers_equal, a.layers, b.layers))


def _layers_equal(a: Layer, b: Layer) -> bool:
    """``np.array_equal`` of the two weight matrices and of the two biases:
    the weights that are not == 0.0, NaNs among them, sit at the same places
    with equal values.  Two layers that hold their matrices compare them."""
    if (a.rows, a.cols) != (b.rows, b.cols) or not np.array_equal(a.bias, b.bias):
        return False
    if "weights" in a.__dict__ and "weights" in b.__dict__:
        return np.array_equal(a.weights, b.weights)
    kept = []
    for rows, cols, values in (a._entries, b._entries):
        nonzero = values != 0.0
        kept.append((rows[nonzero], cols[nonzero], values[nonzero]))
    return all(map(np.array_equal, *kept))


def _json_list(a: np.ndarray) -> str:
    """The 1-d array ``a`` as the text ``json.dumps`` writes of its list.
    In a list of _UNIQUE_MIN_LENGTH numbers or more, each distinct number is
    formatted once by ``repr`` and put back in place; floats are told apart
    by their bits, so ``-0.0`` stays ``-0.0``."""
    if a.size < _UNIQUE_MIN_LENGTH:
        return "[" + ", ".join(map(repr, a.tolist())) + "]"
    keys = a.view(np.int64) if a.dtype.kind == "f" else a
    distinct, inverse = np.unique(keys, return_inverse=True)
    text = np.array([repr(v) for v in distinct.view(a.dtype).tolist()], dtype=object)
    return "[" + ", ".join(text[inverse].tolist()) + "]"


def serialize(net: Network) -> bytes:
    """Strict JSON document in the COO layout, full double precision.

    Each distinct layer object is one part, in first-visit post-order: a
    leaf lists its weights in row-major order that are nonzero or have the
    sign bit set, so a ``-0.0`` comes back as ``-0.0``; a stack lists its
    parts' ids.  JSON has no NaN or infinity, so a layer holding one raises
    DomainError.  The text is what ``json.dumps`` writes of the document.
    """
    ids, chunks = {}, [b'{"layout": "coo", "parts": [']
    for k, top in enumerate(net.layers):
        todo = [top]
        while todo:
            layer = todo.pop()
            new = [part for part in layer.__dict__.get("_parts", ()) if part not in ids]
            if new:  # its parts first, then the stack again
                todo += [layer, *reversed(new)]
            if new or layer in ids:
                continue
            if "_parts" in layer.__dict__:
                text = f'{{"stack": [{", ".join(str(ids[part]) for part in layer._parts)}]}}'
            else:
                rows, cols, values = layer._entries
                if not (np.isfinite(values).all() and np.isfinite(layer.bias).all()):
                    raise DomainError(f"layer {k}: cannot serialize a NaN or infinite scalar")
                text = (f'{{"shape": [{layer.rows}, {layer.cols}], "rows": {_json_list(rows)}, '
                        f'"cols": {_json_list(cols)}, "values": {_json_list(values)}, '
                        f'"bias": {_json_list(layer.bias)}}}')
            chunks += [b", "] if ids else []
            ids[layer] = len(ids)
            chunks.append(text.encode("utf-8"))
    chunks.append(f'], "layers": [{", ".join(str(ids[layer]) for layer in net.layers)}]}}'.encode())
    return b"".join(chunks)


def _reject_constant(token: str):
    raise ParseError(f"{token} is not a JSON number")


def _strict_json(data: bytes | str, what: str, hook=None) -> object:
    """The strict JSON document of ``data``; ParseError naming ``what``
    unless it is UTF-8 text of valid JSON without NaN or Infinity.
    ``hook(text)``, if given, makes the parser's ``object_hook``."""
    try:
        text = data.decode("utf-8") if isinstance(data, bytes) else data
        return json.loads(text, parse_constant=_reject_constant,
                          object_hook=hook(text) if hook else None)
    except (ValueError, RecursionError) as exc:
        # bytes that are not UTF-8, a JSONDecodeError, a NaN or Infinity token,
        # an integer literal longer than int() converts, or too deep a nesting
        raise ParseError(f"{what} is not valid JSON: {exc}") from exc


def _finite_floats(raw, what: str) -> np.ndarray:
    """A list of a network file as a finite float64 array, by :func:`_numbers`
    judging the array by its dtype (deserialize has boxed any bool)."""
    a = _numbers(raw, what)
    if not np.isfinite(a).all():
        raise ValueError(f"{what} must hold only finite numbers")
    return a


def _index_array(raw, name: str, bound: int) -> np.ndarray:
    """``raw`` as an int64 array; ValueError unless it lists JSON integers in [0, bound)."""
    a = _array(raw, name)
    if a.ndim != 1 or (a.size and a.dtype.kind not in "iu"):
        raise ValueError(f"{name} must be a list of JSON integers")
    if a.size and (a.min() < 0 or a.max() >= bound):
        bad = a[(a < 0) | (a >= bound)][0]
        raise ValueError(f"{name} index {bad} is out of range [0, {bound})")
    return a.astype(np.int64, copy=False)


def _coo_layer(raw, parts: list[Layer], inputs: int | None, stacked: int) -> Layer:
    """A COO leaf kept as its entries, or ``{"stack": ids}`` of the earlier
    ``parts``; ValueError naming the rule it breaks.  ``inputs`` is the
    previous layer's output count, ``stacked`` the stacks' bias entries so far."""
    stack = isinstance(raw, dict) and "stack" in raw
    if stack:
        ids = _index_array(raw["stack"], "stack", len(parts))
        if not ids.size:
            raise ValueError("stack must list at least one part")
        chosen = [parts[i] for i in ids.tolist()]
        shape = [sum(p.rows for p in chosen), sum(p.cols for p in chosen)]
    else:
        keys = ("shape", "rows", "cols", "values", "bias")
        missing = [key for key in keys if not isinstance(raw, dict) or key not in raw]
        if missing:
            raise ValueError("missing " + ", ".join(repr(key) for key in missing))
        shape = raw["shape"]
        if not (
            isinstance(shape, list) and len(shape) == 2 and all(_is_int(n) and n > 0 for n in shape)
        ):
            raise ValueError("shape must be two positive JSON integers")
    r, c = shape
    if r * c > _MAX_LAYER_ENTRIES:
        raise ValueError(
            f"shape {shape} has {r} x {c} entries, more than the cap of {_MAX_LAYER_ENTRIES}"
        )
    if inputs is not None and c != inputs:
        raise ValueError(f"expects {c} inputs but the layer before produces {inputs}")
    if stack:
        if stacked + r > _MAX_LAYER_ENTRIES:
            raise ValueError(f"the stacks' biases reach {stacked + r} entries, more than the "
                             f"cap of {_MAX_LAYER_ENTRIES}")
        return Layer.stack(chosen)
    # pop, so the parsed numbers of a layer go once it is converted
    rows = _index_array(raw.pop("rows"), "rows", r)
    cols = _index_array(raw.pop("cols"), "cols", c)
    values = _finite_floats(raw.pop("values"), "values")
    if values.ndim != 1 or not rows.size == cols.size == values.size:
        raise ValueError(
            f"rows, cols and values must be lists of one length, got {rows.size}, "
            f"{cols.size} and shape {values.shape}"
        )
    flat = rows * c + cols
    steps = np.diff(flat)
    for bad, what in ((steps == 0, "is duplicated"), (steps < 0, "breaks row-major order")):
        if bad.any():
            m = int(np.argmax(bad)) + 1
            raise ValueError(f"entry {m} at index ({rows[m]}, {cols[m]}) {what}")
    kept = (values != 0.0) | np.signbit(values)  # an explicit +0.0 is no entry
    rows, cols, values = rows[kept], cols[kept], values[kept]
    bias = _checked_bias(_finite_floats(raw.pop("bias"), "bias"), r)
    return Layer._trusted(r, c, bias, _entries=(rows, cols, values))


def _layer_arrays(text: str) -> Callable[[dict], dict]:
    """The ``object_hook`` that makes each number list an array as the parser
    closes its object, so only one layer's Python numbers are alive at once;
    a list numpy cannot make rectangular is left for the layer's checks.  numpy
    makes a bool 1.0 or 0.0, so where the text spells one (walking every list
    costs more than the load), a list holding a bool becomes an object array."""
    spells_bool = "true" in text or "false" in text

    def arrays(obj: dict) -> dict:
        for key in ("rows", "cols", "values", "bias", "stack"):
            v = obj.get(key)
            with suppress(ValueError, RecursionError):
                if spells_bool and _holds_bool(v):
                    obj[key] = np.array(v, dtype=object)
                elif isinstance(v, list):
                    obj[key] = np.array(v)
        return obj

    return arrays


def deserialize(data: bytes | str) -> Network:
    """Parse a serialized network, reporting the offending part or layer on
    failure; a stack is a :meth:`Layer.stack` of the part objects it lists."""
    doc = _strict_json(data, "document", _layer_arrays)
    if not isinstance(doc, dict) or "layers" not in doc:
        raise ParseError("document has no 'layers' field")
    if doc.get("layout") != "coo":
        layout = _strict_json(data, "document").get("layout")  # as written, without arrays
        raise ParseError(f"unknown layout {layout!r}; the one layout is 'coo'")
    raw_parts, raw_layers = doc.get("parts", []), doc["layers"]
    if not isinstance(raw_parts, list):
        raise ParseError("'parts' must be a list")
    if not isinstance(raw_layers, list) or not raw_layers:
        raise ParseError("'layers' must be a non-empty list")
    parts, layers, stacked = [], [], 0
    for what, raws, built in (("part", raw_parts, parts), ("layer", raw_layers, layers)):
        for k, raw in enumerate(raws):
            try:
                if built is parts or isinstance(raw, dict):
                    layer = _coo_layer(raw, parts, layers[-1].rows if layers else None, stacked)
                    stacked += layer.rows if layer.form == "stack" else 0
                elif _is_int(raw) and 0 <= raw < len(parts):
                    layer = parts[raw]
                else:
                    raise ValueError(f"{raw!r} is neither a layer nor a part id in [0, {len(parts)})")
            except (ShapeError, ValueError) as exc:
                raise ParseError(f"{what} {k}: {exc}") from exc
            built.append(layer)
    try:
        return Network(tuple(layers))
    except ShapeError as exc:
        raise ParseError(str(exc)) from exc


def save_network(net: Network, path) -> None:
    """Write :func:`serialize` of ``net`` to ``path``; a net that it rejects
    leaves the file as it was."""
    data = serialize(net)
    with open(path, "wb") as fh:
        fh.write(data)


def load_network(path) -> Network:
    with open(path, "rb") as fh:
        return deserialize(fh.read())
