"""Feedforward networks as explicit stacks of affine layers.

A network here is pure data: a non-empty sequence of ``(W, b)`` pairs with
chaining shapes.  What function it computes is decided only when an
activation is supplied to :func:`realize`; the same network can be realized
under ReLU, the identity, or any other scalar activation.  All scalars are
64-bit floats and every value is immutable, so structural identities can be
checked by exact comparison.

Weights are stored dense and row-major; that layout is the contract every
operation and file works with.  Evaluation is free to differ: a large layer
that is mostly zeros is evaluated by gathering only its nonzero weights
(see :meth:`Layer.apply`), while every other layer uses the plain product.
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
    "Dims",
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


# A layer is evaluated by gather when it has at least _GATHER_MIN_ENTRIES
# entries and at most 1/_GATHER_MAX_DENSITY of them are nonzero.  Below that
# size the index would cost more than it saves, and no verification-suite
# net reaches it, so their results stay those of the plain product.
_GATHER_MIN_ENTRIES = 1 << 16
_GATHER_MAX_DENSITY = 8
# Scalars per gather temporary (a chunk still holds at least one slot).
_GATHER_CHUNK = 1 << 14


class ShapeError(ValueError):
    """Shapes do not chain or violate an operation's interface contract."""


class DomainError(ValueError):
    """A scalar parameter lies outside its admissible range."""


class ParseError(ValueError):
    """A serialized network document is malformed."""


def _is_int(value) -> bool:
    """True for an integer of any integral type; bools are not integers here."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _frozen_matrix(values) -> np.ndarray:
    a = np.array(values, dtype=np.float64, order="C")
    if a.ndim != 2:
        raise ShapeError(f"weight matrix must be 2-d, got shape {a.shape}")
    a.setflags(write=False)
    return a


def _frozen_vector(values) -> np.ndarray:
    a = np.array(values, dtype=np.float64, order="C")
    if a.ndim != 1:
        raise ShapeError(f"bias must be 1-d, got shape {a.shape}")
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class Layer:
    """One affine map ``x -> W x + b`` with ``W`` of shape (rows, cols)."""

    weights: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "weights", _frozen_matrix(self.weights))
        object.__setattr__(self, "bias", _frozen_vector(self.bias))
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

    def apply(self, z: np.ndarray) -> np.ndarray:
        """The affine map on a batch: ``z @ W.T + b`` for ``z`` of shape (n, cols).

        A layer with at least 65,536 entries of which at most 1/8 are nonzero
        is evaluated from a cached gather index of its nonzeros; its result
        equals the dense product up to summation order.  Every other layer
        computes exactly ``z @ W.T + b``.
        """
        if self.weights.size >= _GATHER_MIN_ENTRIES:
            groups = self._gather_groups
            if groups is not None:
                return _gather_product(groups, self.bias, z)
        return z @ self.weights.T + self.bias

    @cached_property
    def _gather_groups(self) -> tuple | None:
        """The nonzeros grouped by row count, or None if the layer is too dense.

        One group per distinct count k: the ids of the rows with k nonzeros
        and (rows, k) arrays of their column ids and values.
        """
        w = self.weights
        flat = np.flatnonzero(w != 0.0)
        if flat.size * _GATHER_MAX_DENSITY > w.size:
            return None
        rows, cols = np.divmod(flat, w.shape[1])
        values = w.ravel()[flat]
        counts = np.bincount(rows, minlength=w.shape[0])
        starts = np.cumsum(counts) - counts
        groups = []
        for k in np.unique(counts[counts > 0]):
            ids = np.flatnonzero(counts == k)
            at = starts[ids, np.newaxis] + np.arange(k)
            groups.append((ids, cols[at], values[at]))
        return tuple(groups)


def _gather_product(groups: tuple, bias: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``z @ W.T + b`` from a gather index; rows without nonzeros get ``b`` alone.

    Works on the transposed batch, so each gather reads whole rows of point
    values.  A group's slots are summed in chunks of at most _GATHER_CHUNK
    scalars, or one slot if that is more, so no temporary outgrows the larger
    of _GATHER_CHUNK and the output.
    """
    zt = np.ascontiguousarray(z.T)
    out = np.empty((bias.shape[0], zt.shape[1]))
    out[...] = bias[:, np.newaxis]
    for ids, cols, vals in groups:
        rows, k = cols.shape
        step = max(1, min(k, _GATHER_CHUNK // (rows * max(zt.shape[1], 1))))
        acc = (zt[cols[:, :step]] * vals[:, :step, np.newaxis]).sum(axis=1)
        for j in range(step, k, step):
            acc += (zt[cols[:, j : j + step]] * vals[:, j : j + step, np.newaxis]).sum(axis=1)
        out[ids] += acc
    return out.T


@dataclass(frozen=True)
class Dims:
    """The dimension vector (l_0, ..., l_L) of a network, with derived counts."""

    dims: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        if len(self.dims) < 2:
            raise ShapeError(f"dimension vector needs at least 2 entries, got {self.dims}")
        if any(d < 1 for d in self.dims):
            raise ShapeError(f"dimension entries must be positive, got {self.dims}")

    @property
    def depth(self) -> int:
        """Number of affine layers L."""
        return len(self.dims) - 1

    @property
    def hidden(self) -> int:
        """Number of hidden layers, L - 1."""
        return self.depth - 1

    @property
    def inputs(self) -> int:
        return self.dims[0]

    @property
    def outputs(self) -> int:
        return self.dims[-1]

    @property
    def params(self) -> int:
        """Total scalar count sum_k l_k (l_{k-1} + 1)."""
        d = self.dims
        return sum(d[k] * (d[k - 1] + 1) for k in range(1, len(d)))

    def __iter__(self):
        return iter(self.dims)

    def __len__(self):
        return len(self.dims)

    def __getitem__(self, k):
        return self.dims[k]


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
    def hidden(self) -> int:
        return len(self.layers) - 1

    @property
    def input_dim(self) -> int:
        return self.layers[0].cols

    @property
    def output_dim(self) -> int:
        return self.layers[-1].rows

    def __repr__(self):
        return f"Network(dims={dims(self).dims})"


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
    w = _frozen_matrix(weights)
    if bias is None:
        bias = np.zeros(w.shape[0])
    return Network((Layer(w, bias),))


def dims(net: Network) -> Dims:
    """Read the dimension vector off the layer shapes."""
    return Dims((net.layers[0].cols,) + tuple(layer.rows for layer in net.layers))


def param_count(net: Network) -> int:
    """Number of stored scalars, sum_k l_k (l_{k-1} + 1)."""
    return dims(net).params


def _prepare_input(net: Network, x) -> tuple[np.ndarray, bool]:
    x = np.asarray(x, dtype=np.float64)
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


def realize(net: Network, act: Activation, x) -> np.ndarray:
    """Evaluate the network at ``x``: activation after every layer but the last.

    ``x`` may be a single point of length I or a batch of shape (n, I);
    the result has shape (O,) or (n, O) accordingly.  Raises ShapeError on
    a wrong shape and DomainError if ``x`` holds a NaN or an infinity.
    """
    z, single = _prepare_input(net, x)
    for layer in net.layers[:-1]:
        z = act.fn(layer.apply(z))
    z = net.layers[-1].apply(z)
    return z[0] if single else z


def forward_states(net: Network, act: Activation, x) -> list[np.ndarray]:
    """All intermediate states [x_0, x_1, ..., x_L] of one evaluation.

    Takes ``x`` as :func:`realize` does and raises the same errors.
    """
    z, single = _prepare_input(net, x)
    states = [z]
    for layer in net.layers[:-1]:
        z = act.fn(layer.apply(z))
        states.append(z)
    states.append(net.layers[-1].apply(z))
    return [s[0] for s in states] if single else states


def networks_equal(a: Network, b: Network) -> bool:
    """Structural equality: identical shapes and bit-identical scalars."""
    if a.depth != b.depth:
        return False
    for la, lb in zip(a.layers, b.layers):
        if la.weights.shape != lb.weights.shape:
            return False
        if not (np.array_equal(la.weights, lb.weights) and np.array_equal(la.bias, lb.bias)):
            return False
    return True


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
        data = data.decode("utf-8")
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
