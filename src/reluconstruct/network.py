"""ReLU feed-forward networks with explicit weights.

A network is a chain of affine maps with componentwise ``max(0, .)`` between
them and no activation after the last map.  Networks here are values: the
weight arrays are frozen on construction and every operation returns a new
network, so instances are safe to share across threads.  A read-only weight
array that owns its memory is shared rather than copied: ``compose``,
``affine_post`` and the lemma-2 fit hand their frozen layers on, so a layer
common to several networks exists once.  ``evaluate_batch`` walks its
points in fixed row blocks, so its working memory is two 2 MiB buffers plus
the result, however many points and layers it is given.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import CompositionError, ParseError, ShapeError, _floats, _integer

__all__ = [
    "ReluNetwork",
    "evaluate",
    "evaluate_batch",
    "compose",
    "affine_post",
    "serialize",
    "deserialize",
    "parameter_count",
]


# activation entries per block of evaluate_batch: 2 MiB of f64, one core's L2
_EVAL_BLOCK = 2**18


def _frozen_array(a):
    """``a`` as a read-only float64 array: ``a`` itself when it owns read-only memory, else a copy."""
    if type(a) is np.ndarray and a.dtype == np.float64 and a.base is None and not a.flags.writeable:
        return a
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class ReluNetwork:
    """Layered weights ``(W_i, b_i)`` of a scalar-output ReLU network.

    ``layers[i]`` holds the weight matrix with shape (out, in) and the bias
    vector with shape (out,).  Adjacent layers must chain dimensionally, the
    first must accept ``input_dim`` inputs, and the last must emit a single
    output.
    """

    input_dim: int
    layers: tuple = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "input_dim", _integer(self.input_dim, "input_dim", ShapeError))
        if not self.layers:
            raise ShapeError("a network needs at least one affine layer")
        frozen = []
        prev = self.input_dim
        for i, (w, b) in enumerate(self.layers):
            w = _frozen_array(w)
            b = _frozen_array(b)
            if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
                raise ShapeError(f"layer {i}: weight must be (out, in), bias (out,)")
            if w.shape[1] != prev:
                raise ShapeError(
                    f"layer {i}: expected {prev} input columns, got {w.shape[1]}"
                )
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise ShapeError(f"layer {i}: weights and biases must be finite")
            frozen.append((w, b))
            prev = w.shape[0]
        if prev != 1:
            raise ShapeError("final layer must have output dimension 1")
        object.__setattr__(self, "layers", tuple(frozen))

    @property
    def hidden_widths(self):
        """Widths of the hidden layers (the paper-style widthvec)."""
        return [w.shape[0] for w, _ in self.layers[:-1]]

    def __call__(self, x):
        return evaluate(self, x)


def parameter_count(net: ReluNetwork) -> int:
    """Total number of weight and bias entries."""
    return sum(w.size + b.size for w, b in net.layers)


def evaluate_batch(net: ReluNetwork, xs) -> np.ndarray:
    """Evaluate at many points; ``xs`` has shape (k, input_dim) or (k,) for 1-D.

    Rows go through the network in blocks of ``max(1, _EVAL_BLOCK // widest)``.
    The hidden layers write into two buffers of ``_EVAL_BLOCK`` entries in
    turn, allocated once per call, so besides ``xs`` and the result a call
    holds at most 4 MiB of activations, whatever ``k`` and the depth are.
    Rows that fit in one block give exactly the out-of-place chain
    ``max(0, h @ W.T + b)``.  Over several blocks BLAS can pick other
    kernels for some rows: 5 of ``build_1d`` N = 256's 65,793 grid nodes
    moved, by at most 2.6e-12.  The tests hold blocked and single products
    to 1e-11 absolute, the absolute tolerance of the benchmark's reference
    outputs.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim == 1:
        if net.input_dim != 1:
            raise ShapeError("flat input array only valid for input_dim=1")
        xs = xs[:, None]
    if xs.ndim != 2 or xs.shape[1] != net.input_dim:
        raise ShapeError(f"expected points of dimension {net.input_dim}")
    k = xs.shape[0]
    widest = max(w.shape[0] for w, _ in net.layers)
    rows = max(1, _EVAL_BLOCK // widest)
    hidden = net.layers[:-1]
    # layer i reads one buffer and writes the other, so depth costs no memory
    buffers = [np.empty(min(rows, k) * widest) for _ in hidden[:2]]
    w_out, b_out = net.layers[-1]
    out = np.empty(k)
    for start in range(0, k, rows):
        h = xs[start:start + rows]
        for i, (w, b) in enumerate(hidden):
            z = buffers[i % 2][:h.shape[0] * w.shape[0]].reshape(h.shape[0], w.shape[0])
            np.matmul(h, w.T, out=z)
            z += b
            np.maximum(z, 0.0, out=z)
            h = z
        out[start:start + rows] = (h @ w_out.T)[:, 0]
    out += b_out
    return out


def evaluate(net: ReluNetwork, x) -> float:
    """Evaluate the network at a single point.

    ``x`` may be a scalar when ``input_dim == 1``, otherwise a length-
    ``input_dim`` vector.  All affine maps alternate with componentwise
    ``max(0, .)``; the final affine map is not followed by an activation.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (net.input_dim,):
        raise ShapeError(f"expected input of length {net.input_dim}, got {x.shape}")
    if not np.isfinite(x).all():
        raise ShapeError("input entries must be finite")
    return float(evaluate_batch(net, x[None, :])[0])


def compose(outer: ReluNetwork, inner: ReluNetwork) -> ReluNetwork:
    """Chain two networks so the result computes ``outer(inner(x))``.

    The inner output map and the outer first map are fused into a single
    affine layer, so no width-1 bottleneck or extra activation is inserted
    and the hidden widths of the result are ``inner.hidden_widths ++
    outer.hidden_widths``.
    """
    if outer.input_dim != 1:
        raise CompositionError("outer network must take one input")
    w_in, b_in = inner.layers[-1]
    w_out, b_out = outer.layers[0]
    fused = (w_out @ w_in, w_out @ b_in + b_out)
    layers = list(inner.layers[:-1]) + [fused] + list(outer.layers[1:])
    return ReluNetwork(inner.input_dim, tuple(layers))


def affine_post(net: ReluNetwork, scale: float, shift: float) -> ReluNetwork:
    """Rescale and shift the output: the result computes ``scale*net(x) + shift``.

    Only the final layer's parameters change, so the floating-point value is
    exactly ``scale * evaluate(net, x) + shift`` with that operation order.
    """
    scale = float(scale)
    shift = float(shift)
    if not (np.isfinite(scale) and np.isfinite(shift)):
        raise ValueError("scale and shift must be finite")
    w, b = net.layers[-1]
    layers = list(net.layers[:-1]) + [(scale * w, scale * b + shift)]
    return ReluNetwork(net.input_dim, tuple(layers))


def serialize(net: ReluNetwork) -> bytes:
    """Encode as the JSON interchange document (UTF-8 bytes).

    Floats are written with Python's shortest round-trip representation, so
    ``deserialize(serialize(net))`` reproduces every parameter bit-exactly.
    """
    doc = {
        "input_dim": net.input_dim,
        "layers": [
            {"weight": w.tolist(), "bias": b.tolist()} for w, b in net.layers
        ],
    }
    return json.dumps(doc).encode("utf-8")


def deserialize(data) -> ReluNetwork:
    """Parse the JSON interchange document back into a network.

    Raises :class:`ParseError` on malformed input: bad JSON (with the failing
    offset), an ``input_dim`` that is not a positive integer (``1.0``, ``true``
    and ``"1"`` are not) or a weight or bias that is not an array of numbers;
    raises :class:`ShapeError` when the dimension chain is violated.
    """
    if isinstance(data, bytes):
        data = data.decode("utf-8", errors="replace")
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as e:
        raise ParseError(f"malformed network document: {e.msg}", offset=e.pos) from e
    if not isinstance(doc, dict) or "input_dim" not in doc or "layers" not in doc:
        raise ParseError("network document must carry input_dim and layers")
    input_dim = _integer(doc["input_dim"], "input_dim", ParseError)
    try:
        layers = tuple(tuple(_floats(lay[k], f"layer {i} {k}") for k in ("weight", "bias"))
                       for i, lay in enumerate(doc["layers"]))
    except (TypeError, KeyError) as e:
        raise ParseError(f"network document has malformed layer entries: {e}") from e
    return ReluNetwork(input_dim, layers)
