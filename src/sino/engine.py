"""Reverse-mode automatic differentiation over numpy arrays.

A small tape engine specialized for FFT-based networks: an operation with
an input that requires a gradient records its parents and a
vector-Jacobian product, and `Tensor.backward` walks the tape in reverse
topological order. An operation on constants alone records nothing.
A node keeps its inputs and output. A caller may also build a node by
hand, a Tensor with its parents and a pullback: model._step records a
whole time step as one node that keeps only the stage inputs and
recomputes the rest in its pullback, freq2vec.polynomial_table the
Freq2Vec table as the polynomial its MLP computes, model._pi_form the
Pi-block folded into one quadratic form, and training._squared_error one
step's loss term.

Complex convention: for a real-valued loss L and a complex intermediate z,
the stored gradient is dL/dRe(z) + i*dL/dIm(z). Under this convention the
pullback of a C-linear map A is its conjugate transpose, the elementwise
product w = a*b pulls back as g_a = conj(b)*g. Where a real tensor feeds
a complex op, the real part of the complex pullback is the gradient.

Spectra are real-FFT half spectra: np.fft.rfftn keeps the modes 0..N/2 of
the last transformed axis, and np.fft.irfftn rebuilds a real field from
them, taking each interior mode 1..N/2-1 for itself and its conjugate
partner -k. So an interior mode is weighted twice in the real field and
the edge modes (0 and N/2) once, and a pullback carries that weighting
(_weight_interior): rfftn pulls back as prod(N) * irfftn of the cotangent
with its interior modes halved, irfftn as rfftn of the cotangent over
prod(N) with its interior modes doubled.
"""

from __future__ import annotations

import numpy as np


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad=False, parents=(), vjp=None):
        self.data = np.asarray(data)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = parents
        self._vjp = vjp

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    # -- graph -----------------------------------------------------------

    def backward(self, seed=None):
        """Accumulate gradients of self (seeded with ones) into the leaves."""
        if seed is None:
            seed = np.ones_like(self.data)
        self.grad = np.asarray(seed)
        for node in reversed(_toposort(self)):
            if node._vjp is None or node.grad is None:
                continue
            contributions = node._vjp(node.grad)
            for parent, g in zip(node._parents, contributions):
                if g is None or not parent.requires_grad:
                    continue
                g = _match_dtype(g, parent.data)
                parent.grad = g if parent.grad is None else parent.grad + g
            if node._parents:
                node.grad = None  # free intermediate cotangents early

    def __getitem__(self, idx):
        return getitem(self, idx)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def _toposort(root: Tensor) -> list[Tensor]:
    order, visited = [], set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    return order


def _match_dtype(g: np.ndarray, data: np.ndarray) -> np.ndarray:
    # runs on every cotangent, so it reads dtype.kind: np.iscomplexobj costs a
    # Python call and an attribute walk per test
    g_complex, data_complex = g.dtype.kind == "c", data.dtype.kind == "c"
    if g_complex and not data_complex:
        return np.ascontiguousarray(g.real)
    if data_complex and not g_complex:
        return g.astype(np.complex128)
    return g


def _conj(x: np.ndarray) -> np.ndarray:
    # np.conjugate copies a real array; only a complex one has a conjugate
    return np.conjugate(x) if x.dtype.kind == "c" else x


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _node(data, parents, vjp) -> Tensor:
    for p in parents:  # a loop: any() would build a generator for every node
        if p.requires_grad:
            return Tensor(data, requires_grad=True, parents=tuple(parents), vjp=vjp)
    return Tensor(data)


# -- arithmetic ------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data + b.data

    def vjp(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _node(out, (a, b), vjp)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data * b.data

    def vjp(g):
        ga = _unbroadcast(_conj(b.data) * g, a.data.shape) if a.requires_grad else None
        gb = _unbroadcast(_conj(a.data) * g, b.data.shape) if b.requires_grad else None
        return ga, gb

    return _node(out, (a, b), vjp)


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError("matmul supports 2D operands only")
    out = a.data @ b.data

    def vjp(g):
        ga = g @ _conj(b.data).T if a.requires_grad else None
        gb = _conj(a.data).T @ g if b.requires_grad else None
        return ga, gb

    return _node(out, (a, b), vjp)


# -- shape manipulation ----------------------------------------------------


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)

    def vjp(g):
        return (g.reshape(a.data.shape),)

    return _node(a.data.reshape(shape), (a,), vjp)


def getitem(a, idx) -> Tensor:
    """a[idx], C-ordered whatever axis an index array gathers along."""
    a = as_tensor(a)

    def vjp(g):
        # add.at, not assignment: an index array may repeat an entry, and
        # each occurrence contributes
        full = np.zeros_like(a.data)
        np.add.at(full, idx, g)
        return (full,)

    return _node(np.ascontiguousarray(a.data[idx]), (a,), vjp)


# -- complex ops and the half-spectrum weighting -----------------------------


def to_complex(re, im) -> Tensor:
    re, im = as_tensor(re), as_tensor(im)

    def vjp(g):
        return np.ascontiguousarray(g.real), np.ascontiguousarray(g.imag)

    return _node(re.data + 1j * im.data, (re, im), vjp)


def conj(a) -> Tensor:
    a = as_tensor(a)

    def vjp(g):
        return (np.conjugate(g),)

    return _node(np.conjugate(a.data), (a,), vjp)


def _weight_interior(h: np.ndarray, axis: int, n: int, factor: float) -> np.ndarray:
    """Scale, in place, the modes 1..n/2-1 of a half spectrum along axis:
    the modes whose conjugate partner the half spectrum leaves out."""
    idx = [slice(None)] * h.ndim
    idx[axis] = slice(1, (n + 1) // 2)
    h[tuple(idx)] *= factor
    return h
