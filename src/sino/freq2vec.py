"""Freq2Vec, the multiplier MLP, evaluated as the polynomial it computes.

The MLP maps the normalized index q = k / freq_norm of a mode to 2K real
outputs: affine layers, each hidden one followed by a square. With L
hidden layers every output is therefore a polynomial of degree 2^L in q,
with C(2^L + dim, dim) monomials: 15 in 2D and 35 in 3D at every preset's
degree 4. The model's table is (psi(k) + conj psi(-k)) / 2, psi(k) being
outputs 0..K-1 plus i times outputs K..2K-1, and -k the wrapped negation:
the index -N/2 of an axis is its own negation. So the table's real part is
the even part (P(q) + P(q_neg)) / 2 of the real outputs' polynomials and its
imaginary part the odd part (P(q) - P(q_neg)) / 2 of the others', q_neg
being q at -k. A monomial q^e is even or odd by the parity of its exponents
on the axes whose index is not Nyquist: on a Nyquist index q_neg = q.

polynomial_table folds the weights into the coefficients (_coefficients):
an affine layer maps the coefficient rows, and a square multiplies each
unit's polynomial by itself (_square_map). It then sums them one grid axis
at a time against the powers of that axis's q (_to_modes, _powers), in two
parity channels, with every index summed by the same elementwise
operations. So no (modes x hidden) activation is formed, and where k and -k
both lie in the half spectrum (its edge columns) the table is conjugate-
symmetric bit for bit. The pullback recomputes the coefficients, not the
activations, and contracts the cotangent back one axis at a time.

The coefficients are the learned multipliers themselves: psi is read off
them at any resolution.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from . import engine as eg
from .engine import Tensor
from .spectral import GridSpec


@lru_cache(maxsize=64)
def _monomials(dim: int, degree: int) -> np.ndarray:
    """The exponents (n, dim) of the monomials of degree <= degree in dim
    variables, by degree: those of a lower degree are a prefix, the constant
    comes first and q_a at 1 + a."""
    return np.array([e for d in range(degree + 1) for e in sorted(
        (e for e in itertools.product(range(d + 1), repeat=dim) if sum(e) == d), reverse=True)])


@lru_cache(maxsize=64)
def _square_map(dim: int, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """For the n monomials of degree <= degree: index (n, n), the position of
    the product of monomials i and j among those of degree <= 2*degree, and
    its one-hot (n*n, that many), which sums the products onto them."""
    exponents = _monomials(dim, 2 * degree)
    n = len(_monomials(dim, degree))
    position = {tuple(e): i for i, e in enumerate(exponents)}
    index = np.array([[position[tuple(a + b)] for b in exponents[:n]] for a in exponents[:n]])
    one_hot = np.zeros((n * n, len(exponents)))
    one_hot[np.arange(n * n), index.ravel()] = 1.0
    return index, one_hot


@lru_cache(maxsize=64)
def _powers(points: tuple[int, ...], freq_norm: tuple[int, ...], degree: int):
    """Per axis of the half spectrum, the powers q^e (degree+1, n) of its
    normalized indices q = k / freq_norm, as the part that keeps a term's
    parity (_to_modes) and the part that flips it: the odd powers flip it,
    except on the Nyquist index, its own negation."""
    tables = []
    for axis, (n, f) in enumerate(zip(points, freq_norm)):
        k = np.r_[0 : n // 2, -(n // 2) : 0]
        if axis == len(points) - 1:
            k = k[: n // 2 + 1]
        q = k / f
        powers = np.cumprod(np.stack([np.ones_like(q)] + [q] * degree), axis=0)
        keep = powers.copy()
        keep[1::2] = 0.0
        keep[:, n // 2] = powers[:, n // 2]
        tables.append((keep, powers - keep))
    return tuple(tables)


def _coefficients(layers, dim: int):
    """The MLP's layers [(w, b)] as polynomials of q: the coefficients, over
    _monomials, of every layer's input and every hidden layer's pre-square
    value, and of the output (2K, n)."""
    s = np.eye(dim, dim + 1, 1)  # the coefficients of q itself
    inputs, pre, degree = [s], [], 1
    for w, b in layers[:-1]:
        a = w.T @ s
        a[:, 0] += b
        pre.append(a)
        products = (a[:, :, np.newaxis] * a[:, np.newaxis]).reshape(len(a), -1)
        s = products @ _square_map(dim, degree)[1]
        inputs.append(s)
        degree *= 2
    w, b = layers[-1]
    out = w.T @ s
    out[:, 0] += b
    return inputs, pre, out


def _to_modes(z: np.ndarray, keep: np.ndarray, flip: np.ndarray, rest: int,
              n_out: int = 2) -> np.ndarray:
    """Sum the exponent axis 1 of z (2, degree+1, *rest exponents, *indices,
    rows) against the powers (degree+1, n) of one grid axis (_powers), onto
    that axis's n indices, placed before the indices already summed:
    (n_out, *rest exponents, n, *indices, rows).

    z's two parity channels hold the terms whose exponents over the axes
    summed so far, on indices that are not Nyquist, add up to an even (0) or
    an odd (1) number; a flipping power moves a term to the other channel.
    The loop runs over the few exponents, each step an elementwise product
    over the contiguous trailing axes."""
    new = (slice(None),) * (1 + rest) + (np.newaxis,)
    column = (slice(None),) + (np.newaxis,) * (z.ndim - 2 - rest)
    swapped = z[::-1]
    out = np.multiply(z[:n_out, 0][new], keep[0][column])
    term = np.empty_like(out)
    for e in range(1, len(keep)):
        out += np.multiply(z[:n_out, e][new], keep[e][column], out=term)
        if e % 2:  # only an odd power flips
            out += np.multiply(swapped[:n_out, e][new], flip[e][column], out=term)
    return out


def polynomial_table(layers: list[tuple[Tensor, Tensor]], freq_norm: tuple[int, ...],
                     grid: GridSpec) -> Tensor:
    """The Freq2Vec table (K, *half points), complex, of the MLP with layers
    [(w, b)], w (inputs, outputs), on grid's half spectrum, one tape node."""
    weights = [(w.data, b.data) for w, b in layers]
    dim, rows = grid.dim, weights[-1][0].shape[1]
    K, degree = rows // 2, 2 ** (len(layers) - 1)
    axes = _powers(grid.points, tuple(freq_norm), degree)
    box = np.ravel_multi_index(_monomials(dim, degree).T, (degree + 1,) * dim)
    _, _, coef = _coefficients(weights, dim)
    # the output rows are innermost; each starts in the parity channel that
    # leaves its part, even for the real rows and odd for the imaginary
    # ones, in channel 0
    z = np.zeros((2,) + (degree + 1,) * dim + (rows,))
    flat = z.reshape(2, -1, rows)
    flat[0, box, :K] = coef[:K].T
    flat[1, box, K:] = coef[K:].T
    for axis, (keep, flip) in enumerate(axes):
        z = _to_modes(z, keep, flip, dim - 1 - axis, 1 if axis == dim - 1 else 2)
    values = z[0].T  # (2K, *half points)
    table = np.empty((K,) + grid.half_points, np.complex128)
    table.real, table.imag = values[:K], values[K:]

    def vjp(g):
        inputs, pre, _ = _coefficients(weights, dim)
        values = np.empty((rows,) + grid.half_points)
        values[:K], values[K:] = g.real, g.imag
        gz = values.T[np.newaxis]
        for axis in reversed(range(dim)):
            rest = dim - 1 - axis
            gk, gf = (np.swapaxes(np.tensordot(t, gz, (1, 1 + rest)), 0, 1) for t in axes[axis])
            gz = gk + gf[::-1] if len(gz) == 2 else np.concatenate([gk, gf])
        gz = gz.reshape(2, -1, rows)
        g_out = np.concatenate([gz[0, box, :K], gz[1, box, K:]], axis=1).T
        grads = []
        for i in reversed(range(len(layers))):
            grads += [g_out[:, 0], inputs[i] @ g_out.T]
            if i:
                g_s = weights[i][0] @ g_out
                index = _square_map(dim, 2 ** (i - 1))[0]
                g_out = 2.0 * (g_s[:, index] @ pre[i - 1][:, :, np.newaxis])[..., 0]
        return tuple(reversed(grads))

    return eg._node(table, tuple(t for pair in layers for t in pair), vjp)
