"""The network algebra: composition, powers, extensions, parallelization,
sums, and identity-mediated concatenation.

Every operation returns a new network whose weight/bias layout is fully
determined, so structural laws (dimension vectors, depths, parameter counts)
hold exactly, not just up to realization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .network import (
    Activation,
    DomainError,
    Layer,
    Network,
    RELU,
    ShapeError,
    _MAX_LAYER_ENTRIES,
    _is_int,
    _is_real,
    affine,
    dims,
    realize,
)

__all__ = [
    "IdentityEmulator",
    "compose",
    "concat_identity",
    "extend",
    "identity_net",
    "parallel_equal",
    "parallel_general",
    "power",
    "relu_identity",
    "sum_equal",
    "sum_general",
]


def compose(phi1: Network, phi2: Network) -> Network:
    """Composition realizing ``phi1`` after ``phi2``.

    Copies the interior layers of both operands and fuses the interface into
    the single layer (W_{1,1} W_{2,L2}, W_{1,1} B_{2,L2} + B_{1,1}).
    """
    if phi1.input_dim != phi2.output_dim:
        raise ShapeError(
            f"composition interface mismatch: left network consumes {phi1.input_dim} "
            f"components, right produces {phi2.output_dim} "
            f"(dims {dims(phi1)} vs {dims(phi2)})"
        )
    fused = phi1.layers[0].after(phi2.layers[-1])
    return Network._trusted(phi2.layers[:-1] + (fused,) + phi1.layers[1:])


def power(phi: Network, n: int) -> Network:
    """n-fold composition of ``phi`` with itself.

    n = 0 gives (I, 0); a positive power starts from ``phi`` itself, so no
    power carries (I, 0) and n = 1 returns ``phi``.  Every fusion of a
    deeper ``phi`` is the same layer, built once and repeated; a one-layer
    ``phi`` composes n - 1 times, each fusion with the power so far.  A
    power of more layers than the file reader's cap of 2**27 is refused.
    """
    if not _is_int(n) or n < 0:
        raise ShapeError(f"power needs an integer n >= 0, got {n!r}")
    if phi.input_dim != phi.output_dim:
        raise ShapeError(
            f"power needs a square network, got I={phi.input_dim}, O={phi.output_dim}"
        )
    if n * (phi.depth - 1) + 1 > _MAX_LAYER_ENTRIES:
        raise ShapeError(
            f"power n={n} of a depth-{phi.depth} network has over {_MAX_LAYER_ENTRIES} layers"
        )
    if n == 0:
        return affine(np.eye(phi.output_dim))
    if n == 1 or phi.depth == 1:
        result = phi
        for _ in range(n - 1):
            result = compose(phi, result)
        return result
    fused = phi.layers[0].after(phi.layers[-1])
    inner = (fused,) + phi.layers[1:-1]
    return Network._trusted(phi.layers[:-1] + inner * (n - 1) + phi.layers[-1:])


def identity_net(d: int) -> Network:
    """One-hidden-layer net computing x = max(x,0) - max(-x,0) under ReLU.

    Dimension vector (d, 2d, d); parameter count 4d^2 + 3d.
    """
    if not _is_int(d) or d < 1:
        raise ShapeError(f"identity_net needs an integer d >= 1, got {d!r}")
    if 2 * int(d) ** 2 > _MAX_LAYER_ENTRIES:  # int, so a numpy integer cannot wrap
        raise ShapeError(f"identity_net({d}) has over {_MAX_LAYER_ENTRIES} entries in a layer")
    eye = np.eye(d)
    w1 = np.vstack([eye, -eye])
    w2 = np.hstack([eye, -eye])
    return Network((Layer(w1, np.zeros(2 * d)), Layer(w2, np.zeros(d))))


_PROBE = np.array([-2.0, -0.5, 0.0, 0.3, 1.0, 2.5])


@dataclass(frozen=True, eq=False)
class IdentityEmulator:
    """A one-hidden-layer network realizing the identity on R^dim.

    Construction checks the shape pattern (dim, i, dim) and verifies the
    identity realization on a fixed probe grid under the declared activation.
    """

    net: Network
    dim: int
    activation: Activation = RELU

    def __post_init__(self):
        net = self.net
        if net.depth != 2 or net.input_dim != self.dim or net.output_dim != self.dim:
            raise ShapeError(
                f"identity emulator needs dims (d, i, d) with d={self.dim}, got {dims(net)}"
            )
        probe = np.stack([np.roll(np.resize(_PROBE, self.dim), k) for k in range(6)])
        out = realize(self.net, self.activation, probe)
        if not np.allclose(out, probe, rtol=1e-12, atol=1e-12):
            raise ShapeError("network does not realize the identity under its activation")

    @property
    def width(self) -> int:
        """Hidden width, the i in dims (d, i, d)."""
        return self.net.layers[0].rows


def relu_identity(d: int) -> IdentityEmulator:
    """The canonical ReLU identity emulator of width 2d.

    Emulators are immutable, so every call with the same d returns the same
    object, built and probed once.
    """
    # a plain function in front of the cache, so that tools which wrap
    # module functions (profilers, tracers) still see every call
    return _relu_identity(d)


@lru_cache(maxsize=16, typed=True)
def _relu_identity(d: int) -> IdentityEmulator:
    return IdentityEmulator(identity_net(d), d, RELU)


def extend(L: int, emulator: IdentityEmulator, phi: Network) -> Network:
    """Pad ``phi`` to depth ``L`` by composing with emulator powers on top;
    a network already of depth ``L`` is returned itself."""
    if not _is_int(L):
        raise ShapeError(f"extend needs an integer depth L, got {L!r}")
    if L < phi.depth:
        raise ShapeError(f"cannot extend a depth-{phi.depth} network to depth {L}")
    if phi.output_dim != emulator.dim:
        raise ShapeError(
            f"extension emulator acts on {emulator.dim} components but the network "
            f"produces {phi.output_dim}"
        )
    if L == phi.depth:
        return phi
    return compose(power(emulator.net, L - phi.depth), phi)


def parallel_equal(nets: Sequence[Network]) -> Network:
    """Block-diagonal stacking of equal-depth networks; realizes the tuple map."""
    if not nets:
        raise ShapeError("parallelization needs at least one network")
    depths = [net.depth for net in nets]
    if len(set(depths)) != 1:
        raise ShapeError(f"parallelization needs equal depths, got {depths}")
    return Network._trusted(
        tuple(Layer.stack(column) for column in zip(*(net.layers for net in nets)))
    )


def parallel_general(
    nets: Sequence[Network], ids: Sequence[IdentityEmulator] | None = None
) -> Network:
    """Parallelization of mixed-depth networks.

    Each network is extended to the maximum depth with its own emulator and
    stacked block-diagonally, so on equal depths this is :func:`parallel_equal`.
    With ``ids=None`` canonical ReLU emulators are supplied automatically.
    """
    if not nets:
        raise ShapeError("parallelization needs at least one network")
    if ids is None:
        ids = [relu_identity(net.output_dim) for net in nets]
    if len(ids) != len(nets):
        raise ShapeError(f"got {len(nets)} networks but {len(ids)} emulators")
    for j, (net, emu) in enumerate(zip(nets, ids)):
        if net.output_dim != emu.dim:
            raise ShapeError(
                f"network {j} produces {net.output_dim} components but its emulator "
                f"acts on {emu.dim}"
            )
    L = max(net.depth for net in nets)
    return parallel_equal([extend(L, emu, net) for net, emu in zip(nets, ids)])


def sum_equal(nets: Sequence[Network], h: Sequence[float] | None = None) -> Network:
    """Weighted sum of networks with identical dimension vectors:
    :func:`sum_general`, which pads none of them."""
    ds = [dims(net) for net in nets]
    if len(set(ds)) > 1:
        raise ShapeError(f"sum_equal needs identical dims, got {ds}")
    return sum_general(nets, h=h)


def sum_general(
    nets: Sequence[Network],
    emulator: IdentityEmulator | None = None,
    h: Sequence[float] | None = None,
) -> Network:
    """Weighted sum of networks sharing only input and output dimensions.

    A fan-out copies the input to every network, ``emulator`` (canonical
    ReLU by default) extends each to the common depth, and a fan-in adds the
    outputs with weights ``h``, which must be finite real numbers.  The
    fan-out and the unit fan-in of ``h=None`` are immutable, so each is built
    once per shape and shared between sums; a weighted fan-in is built anew.
    """
    if not nets:
        raise ShapeError("sum needs at least one network")
    if h is not None and len(h) != len(nets):
        raise ShapeError(f"got {len(nets)} networks but {len(h)} weights")
    for k, hk in enumerate(() if h is None else h):
        if not (_is_real(hk) and math.isfinite(hk)):
            raise DomainError(f"sum weights must be finite real numbers, got h[{k}]={hk!r}")
    d_in = {net.input_dim for net in nets}
    d_out = {net.output_dim for net in nets}
    if len(d_in) != 1 or len(d_out) != 1:
        raise ShapeError(
            f"sum_general needs a common interface, got inputs {sorted(d_in)} "
            f"and outputs {sorted(d_out)}"
        )
    out_dim = d_out.pop()
    if emulator is None:
        emulator = relu_identity(out_dim)
    if emulator.dim != out_dim:
        raise ShapeError(
            f"sum emulator acts on {emulator.dim} components but the networks produce {out_dim}"
        )
    fan_in = (_unit_fan(out_dim, len(nets), np.hstack) if h is None
              else affine(np.hstack([float(hm) * np.eye(out_dim) for hm in h])))
    stacked = parallel_general(nets, [emulator] * len(nets))
    return compose(fan_in, compose(stacked, _unit_fan(d_in.pop(), len(nets), np.vstack)))


@lru_cache(maxsize=32, typed=True)
def _unit_fan(d: int, count: int, join) -> Network:
    """``count`` copies of I_d, joined by ``np.vstack`` (a fan-out) or
    ``np.hstack`` (the unit fan-in)."""
    return affine(join([np.eye(d)] * count))


def concat_identity(phi1: Network, emulator: IdentityEmulator, phi2: Network) -> Network:
    """Composition routed through an artificial identity between the operands.

    Keeps every layer of both operands (depth adds exactly) at the price of
    the emulator's interface width.
    """
    if phi1.input_dim != emulator.dim:
        raise ShapeError(
            f"left network consumes {phi1.input_dim} components but the emulator "
            f"produces {emulator.dim}"
        )
    if phi2.output_dim != emulator.dim:
        raise ShapeError(
            f"right network produces {phi2.output_dim} components but the emulator "
            f"consumes {emulator.dim}"
        )
    return compose(phi1, compose(emulator.net, phi2))
