"""Feedforward networks as explicit stacks of affine layers.

A network here is pure data: a non-empty sequence of ``(W, b)`` pairs with
chaining shapes.  What function it computes is decided only when an
activation is supplied to :func:`realize`; the same network can be realized
under ReLU, the identity, or any other scalar activation.  All scalars are
64-bit floats and every value is immutable, so structural identities can be
checked by exact comparison.

Weights are stored dense and row-major; that layout is the contract every
operation and file works with, and this module is the only one that reads or
builds it.  The algebra in ``ops`` goes through :meth:`Layer.after` (the
fused layer of a composition) and :meth:`Layer.stack` (the block-diagonal
layer of a parallelization).  Evaluation is free to differ: a layer decides
from its own block plan whether it is evaluated block by block, one stacked
product per block shape, or by the plain product (see :meth:`Layer.apply`).
"""

from __future__ import annotations

import json
import numbers
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


# A layer is evaluated by its block plan when it has at least
# _BLOCK_MIN_ENTRIES entries and at most 1/_BLOCK_MAX_DENSITY of them are
# nonzero.  Below that size the plan would cost more than it saves, and no
# verification-suite net reaches it, so their results stay those of the
# plain product.
_BLOCK_MIN_ENTRIES = 1 << 16
_BLOCK_MAX_DENSITY = 8


class ShapeError(ValueError):
    """Shapes do not chain or violate an operation's interface contract."""


class DomainError(ValueError):
    """A scalar parameter lies outside its admissible range."""


class ParseError(ValueError):
    """A serialized network document is malformed."""


def _is_int(value) -> bool:
    """True for an integer of any integral type; bools are not integers here."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """True for a real number of any real type; bools are not numbers here."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _frozen(values, ndim: int, what: str) -> np.ndarray:
    """``values`` as a read-only C-ordered float64 array of ``ndim`` dimensions.

    Raises ShapeError on a ragged list or a wrong number of dimensions and
    DomainError on anything but integers and floats (bools, strings, None).
    """
    try:
        a = np.array(values, order="C")
    except ValueError as exc:
        raise ShapeError(f"{what} must be rectangular: {exc}") from exc
    if a.dtype.kind not in "iuf":
        raise DomainError(f"{what} must hold integers or floats, got dtype {a.dtype}")
    a = a.astype(np.float64, copy=False)
    if a.ndim != ndim:
        raise ShapeError(f"{what} must be {ndim}-d, got shape {a.shape}")
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class Layer:
    """One affine map ``x -> W x + b`` with ``W`` of shape (rows, cols)."""

    weights: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "weights", _frozen(self.weights, 2, "weight matrix"))
        object.__setattr__(self, "bias", _frozen(self.bias, 1, "bias"))
        if self.weights.shape[0] != self.bias.shape[0]:
            raise ShapeError(
                f"weight rows {self.weights.shape[0]} != bias length {self.bias.shape[0]}"
            )
        if min(self.weights.shape) < 1:
            raise ShapeError(f"layer dimensions must be positive, got {self.weights.shape}")

    @property
    def rows(self) -> int:
        return self.weights.shape[0]

    @property
    def cols(self) -> int:
        return self.weights.shape[1]

    def after(self, other: Layer) -> Layer:
        """This map after ``other`` = (V, c) as one layer (W V, W c + b), as composition fuses."""
        return Layer(self.weights @ other.weights, self.weights @ other.bias + self.bias)

    @staticmethod
    def stack(layers: Sequence[Layer]) -> Layer:
        """The block-diagonal layer: each layer maps its own slice of the input, in order."""
        weights = np.zeros((sum(p.rows for p in layers), sum(p.cols for p in layers)))
        r = c = 0
        for layer in layers:
            weights[r : r + layer.rows, c : c + layer.cols] = layer.weights
            r, c = r + layer.rows, c + layer.cols
        return Layer(weights, np.concatenate([layer.bias for layer in layers]))

    def apply(self, z: np.ndarray) -> np.ndarray:
        """The affine map on a batch: ``z @ W.T + b`` for ``z`` of shape (n, cols).

        A layer with a block plan is evaluated from it: one stacked product
        per block shape, added into the bias-filled output rows, so a row in
        no block gets the bias alone.  Its result equals the dense product
        up to summation order.  Every other layer computes exactly
        ``z @ W.T + b``.
        """
        if self._block_plan is None:
            return z @ self.weights.T + self.bias
        zt = np.ascontiguousarray(z.T)
        out = np.repeat(self.bias[:, np.newaxis], zt.shape[1], axis=1)
        for row_ids, col_ids, blocks in self._block_plan:
            out[row_ids.ravel()] += (blocks @ zt[col_ids]).reshape(row_ids.size, -1)
        return out.T

    @cached_property
    def _block_plan(self) -> tuple | None:
        """The nonzeros as dense blocks grouped by shape, or None when the
        layer is too small or too dense for them and takes the plain product.

        A block is a connected component of the graph joining row i to
        column j wherever W[i, j] != 0, so no row or column is in two blocks
        and a row in none is all-zero.  One group per block shape (a, b):
        (G, a) row ids, (G, b) column ids, each ascending, and the (G, a, b)
        stacked weights.
        """
        w = self.weights
        if w.size < _BLOCK_MIN_ENTRIES:
            return None
        flat = np.flatnonzero(w != 0.0)
        if flat.size * _BLOCK_MAX_DENSITY > w.size:
            return None
        rows, cols = np.divmod(flat, w.shape[1])
        cols += w.shape[0]
        # min-label propagation over rows 0..R-1 and columns R..R+C-1, with
        # pointer jumping: at the fixed point every node is labelled with the
        # least node, a row, of its component
        label = np.arange(sum(w.shape))
        while True:
            low = np.minimum(label[rows], label[cols])
            new = label.copy()
            np.minimum.at(new, rows, low)
            np.minimum.at(new, cols, low)
            new = new[new]
            if np.array_equal(new, label):
                break
            label = new
        # components by label, ids ascending within each; a row or column
        # without nonzeros is a component of its own, of width or height 0
        nodes = np.argsort(label, kind="stable")
        row_nodes = nodes[nodes < w.shape[0]]
        col_nodes = nodes[nodes >= w.shape[0]] - w.shape[0]
        heights = np.bincount(label[: w.shape[0]], minlength=w.shape[0])
        widths = np.bincount(label[w.shape[0] :], minlength=label.size)[: w.shape[0]]
        row_starts = np.cumsum(heights) - heights
        col_starts = np.cumsum(widths) - widths
        is_block = widths > 0
        groups = []
        for a, b in sorted(set(zip(heights[is_block].tolist(), widths[is_block].tolist()))):
            of_shape = np.flatnonzero((heights == a) & (widths == b))
            row_ids = row_nodes[row_starts[of_shape, np.newaxis] + np.arange(a)]
            col_ids = col_nodes[col_starts[of_shape, np.newaxis] + np.arange(b)]
            blocks = w[row_ids[:, :, np.newaxis], col_ids[:, np.newaxis, :]]
            groups.append((row_ids, col_ids, blocks))
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


def _prepare_input(net: Network, x) -> tuple[np.ndarray, bool]:
    try:
        x = np.asarray(x)
    except ValueError as exc:
        raise ShapeError(f"input x must be a point or a rectangular batch: {exc}") from exc
    if x.dtype.kind not in "iuf":
        raise DomainError(f"input x must hold integers or floats, got dtype {x.dtype}")
    x = x.astype(np.float64, copy=False)
    single = x.ndim == 1
    z = x[np.newaxis, :] if single else x
    if z.ndim != 2 or z.shape[1] != net.input_dim:
        raise ShapeError(
            f"input has shape {x.shape} but the network expects "
            f"{net.input_dim} components"
        )
    if not np.isfinite(z).all():
        at = tuple(int(i) for i in np.argwhere(~np.isfinite(x))[0])
        raise DomainError(f"input x must be finite, got {x[at]} at index {at}")
    return z, single


def _states(net: Network, act: Activation, z: np.ndarray):
    """The states x_0, ..., x_L of one evaluation of the batch ``z``, one at a time."""
    yield z
    for layer in net.layers[:-1]:
        z = act.fn(layer.apply(z))
        yield z
    yield net.layers[-1].apply(z)


def realize(net: Network, act: Activation, x) -> np.ndarray:
    """Evaluate the network at ``x``: activation after every layer but the last.

    ``x`` may be a single point of length I or a batch of shape (n, I);
    the result has shape (O,) or (n, O) accordingly.  Raises ShapeError on
    a wrong or ragged shape and DomainError if ``x`` holds anything but
    integers and floats (strings, bools, complex numbers, None) or a NaN or
    an infinity.
    """
    z, single = _prepare_input(net, x)
    for z in _states(net, act, z):
        pass
    return z[0] if single else z


def forward_states(net: Network, act: Activation, x) -> list[np.ndarray]:
    """All intermediate states [x_0, x_1, ..., x_L] of one evaluation.

    Takes ``x`` as :func:`realize` does and raises the same errors.
    """
    z, single = _prepare_input(net, x)
    states = list(_states(net, act, z))
    return [s[0] for s in states] if single else states


def networks_equal(a: Network, b: Network) -> bool:
    """Structural equality: identical shapes and bit-identical scalars."""
    return a.depth == b.depth and all(
        np.array_equal(la.weights, lb.weights) and np.array_equal(la.bias, lb.bias)
        for la, lb in zip(a.layers, b.layers)
    )


def serialize(net: Network) -> bytes:
    """Strict JSON document with row-major weights, full double precision.

    JSON has no NaN or infinity, so a layer holding one raises DomainError.
    Layers are encoded one at a time, so the Python floats of only one layer
    are alive at once.
    """
    chunks = [b'{"layers": [']
    for k, layer in enumerate(net.layers):
        doc = {"weights": layer.weights.tolist(), "bias": layer.bias.tolist()}
        try:
            text = json.dumps(doc, allow_nan=False)
        except ValueError as exc:
            raise DomainError(f"layer {k}: cannot serialize a NaN or infinite scalar") from exc
        if k:
            chunks.append(b", ")
        chunks.append(text.encode("utf-8"))
    chunks.append(b"]}")
    return b"".join(chunks)


def _reject_constant(token: str):
    raise ParseError(f"{token} is not a JSON number")


def _holds_bool(raw) -> bool:
    if isinstance(raw, list):
        return any(_holds_bool(v) for v in raw)
    return isinstance(raw, bool)


def _number_array(raw, name: str, spells_bool: bool = True) -> np.ndarray:
    """``raw`` as an array; ValueError unless it holds finite JSON numbers only.

    NaN, infinity and literals beyond the float range such as 1e999 (which
    parse as infinity) fail one check of the converted array.
    ``spells_bool=False`` skips the walk for bools, for callers that know
    the text spells none.
    """
    a = np.array(raw)
    if a.dtype.kind not in "fiu" or (spells_bool and _holds_bool(raw)):
        raise ValueError(f"{name} must hold only JSON numbers (floats or 64-bit integers)")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} must hold only finite numbers")
    return a


def deserialize(data: bytes | str) -> Network:
    """Parse a serialized network, reporting the offending layer on failure."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8 text: {exc}") from exc
    try:
        doc = json.loads(data, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "layers" not in doc:
        raise ParseError("document has no 'layers' field")
    raw_layers = doc["layers"]
    if not isinstance(raw_layers, list) or not raw_layers:
        raise ParseError("'layers' must be a non-empty list")
    # numpy turns true/false into numbers when they share a list with
    # numbers, so only a document that spells one needs the walk for bools
    spells_bool = "true" in data or "false" in data
    layers = []
    for k, raw in enumerate(raw_layers):
        if not isinstance(raw, dict) or "weights" not in raw or "bias" not in raw:
            raise ParseError(f"layer {k}: missing 'weights' or 'bias'")
        try:
            # pop, so the parsed floats of a layer go once it is converted
            weights = _number_array(raw.pop("weights"), "weights", spells_bool)
            bias = _number_array(raw.pop("bias"), "bias", spells_bool)
            layers.append(Layer(weights, bias))
        except (ShapeError, ValueError) as exc:
            raise ParseError(f"layer {k}: {exc}") from exc
    try:
        return Network(tuple(layers))
    except ShapeError as exc:
        raise ParseError(str(exc)) from exc


def save_network(net: Network, path) -> None:
    with open(path, "wb") as fh:
        fh.write(serialize(net))


def load_network(path) -> Network:
    with open(path, "rb") as fh:
        return deserialize(fh.read())
