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
being q at -k.

polynomial_table folds the weights into the coefficients (_coefficients):
an affine layer maps the coefficient rows, and a square multiplies each
unit's polynomial by itself (_square_map). It contracts them against a basis
(_basis), the monomials q^e at every mode of the half spectrum split into an
even and an odd part under k -> -k: the table's real part is the
coefficients of outputs 0..K-1 times the even part, its imaginary part the
others' times the odd part. A monomial is odd where its exponents on the
axes whose index is not Nyquist add up to an odd number; on a Nyquist index
q_neg = q. Every mode's monomials are the same products, summed in the same
order, so where k and -k both lie in the half spectrum (its edge columns)
the table is conjugate-symmetric bit for bit. No (modes x hidden)
activation is formed and nothing of the basis's size is kept: the pullback
builds the basis again, contracts the cotangent against it and
backpropagates through the recomputed coefficients.

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


def _basis(grid: GridSpec, freq_norm, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """The n monomials of _monomials(dim, degree) at the normalized index q
    of every mode of grid's half spectrum, flat, as their even part and their
    odd part under k -> -k: two (n, modes) arrays."""
    exponents = _monomials(grid.dim, degree)
    basis, odd = np.ones((len(exponents), 1)), np.zeros((len(exponents), 1), bool)
    # the last axis first, so each product's inner loop runs over the axes
    # already taken: every index is built by the same products
    for axis in reversed(range(grid.dim)):
        n, e = grid.points[axis], exponents[:, axis]
        k = np.r_[0 : n // 2, -(n // 2) : 0][: grid.half_points[axis]]
        powers = np.cumprod(np.stack([np.ones(len(k))] + [k / freq_norm[axis]] * degree), axis=0)
        # an odd power flips a monomial's parity, except on the Nyquist index
        flips = (np.arange(degree + 1)[:, np.newaxis] % 2 == 1) & (np.arange(len(k)) != n // 2)
        basis = (powers[e, :, np.newaxis] * basis[:, np.newaxis]).reshape(len(e), -1)
        odd = (flips[e, :, np.newaxis] ^ odd[:, np.newaxis]).reshape(len(e), -1)
    even = np.where(odd, 0.0, basis)
    return even, np.subtract(basis, even, out=basis)


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


def polynomial_table(layers: list[tuple[Tensor, Tensor]], freq_norm: tuple[int, ...],
                     grid: GridSpec) -> Tensor:
    """The Freq2Vec table (K, *half points), complex, of the MLP with layers
    [(w, b)], w (inputs, outputs), on grid's half spectrum, one tape node."""
    weights = [(w.data, b.data) for w, b in layers]
    K, degree = weights[-1][0].shape[1] // 2, 2 ** (len(layers) - 1)
    _, _, coef = _coefficients(weights, grid.dim)
    even, odd = _basis(grid, freq_norm, degree)
    # einsum without optimize sums every mode in the same order
    table = np.empty((K,) + grid.half_points, np.complex128)
    flat = table.reshape(K, -1)
    flat.real = np.einsum("km,mn->kn", coef[:K], even)
    flat.imag = np.einsum("km,mn->kn", coef[K:], odd)

    def vjp(g):
        inputs, pre, _ = _coefficients(weights, grid.dim)
        even, odd = _basis(grid, freq_norm, degree)
        g_out = np.concatenate([g.real.reshape(K, -1) @ even.T, g.imag.reshape(K, -1) @ odd.T])
        grads = []
        for i in reversed(range(len(layers))):
            grads += [g_out[:, 0], inputs[i] @ g_out.T]
            if i:
                g_s = weights[i][0] @ g_out
                index = _square_map(grid.dim, 2 ** (i - 1))[0]
                g_out = 2.0 * (g_s[:, index] @ pre[i - 1][:, :, np.newaxis])[..., 0]
        return tuple(reversed(grads))

    return eg._node(table, tuple(t for pair in layers for t in pair), vjp)
