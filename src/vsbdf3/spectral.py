"""Tensor-product spectral collocation on the square, plus discrete norms.

Two operator families:

* Chebyshev collocation on [-1, 1]^2 with homogeneous Dirichlet boundary,
  realized by restricting the differentiation matrices to interior nodes.
  Quadrature uses the open (interior-node) Chebyshev weights, which are
  exact for the constant and integrate smooth functions at spectral rate;
  closed-rule weights restricted to the interior fail both.
* Fourier collocation on (0, 2*pi)^2 for periodic problems, with the
  standard trigonometric differentiation matrices (even M) and uniform
  quadrature weights h^2.

Unknowns are ordered row-major with y slow and x fast, so a flattened field
reshaped to (k, k) holds U[y, x].  In both families L is the Kronecker sum
of one 1-D second-derivative matrix d2 (k x k) and acts through that
structure in O(k^3): L U = U d2^T + d2 U.  One fast diagonalisation
d2 = V diag(lambda) V^{-1} (Lynch, Rice & Thomas 1964), with orthogonal V
when d2 is symmetric (Fourier), turns sigma*I - eps2*L into the diagonal
sigma - eps2*(lambda_i + lambda_j) in the basis V (x) V, so its inverse also
costs O(k^3).  The dense k^2 x k^2 matrices L, Gx = I (x) d1 and
Gy = d1 (x) I are built on first access, as test oracles only.

The free energy takes its gradient term -<u, L u> from L, so on Fourier grids
it is the functional the unforced scheme dissipates; a d1-based |grad u|^2
is not, since d1 maps the Nyquist mode to zero and d2 does not.  The
Chebyshev d2 is not symmetric under w: there the energy is a quadrature of
the same integral without a proven decay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .time_grid import _ro, _setstate_ro

__all__ = [
    "SpectralOperator",
    "chebyshev_nodes",
    "chebyshev_diff_matrix",
    "open_chebyshev_weights",
    "chebyshev_operator",
    "fourier_operator",
    "l2_norm",
    "energy",
]

# Largest relative max-norm error of V diag(lambda) V^{-1} against d2 that
# still gives a useful shifted-Laplacian inverse.
_MAX_DIAGONALISATION_ERROR = 1e-10


@dataclass(frozen=True, eq=False)
class SpectralOperator:
    """Discrete Laplacian, its shifted inverse and quadrature on the unknowns.

    nodes are the 1-D unknown coordinates and d1/d2 the 1-D first- and
    second-derivative matrices, all shared by both axes, and w holds the
    area quadrature weight of each unknown.  Arrays are read-only, also in
    copies, and operators compare by identity.  The methods take and return
    row-major flattened fields.
    """

    nodes: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    w: np.ndarray
    # fast diagonalisation of d2: eigenvectors, their inverse, and the
    # eigenvalue sums lambda_i + lambda_j of L in the basis V (x) V
    _vecs: np.ndarray = field(init=False, repr=False)
    _vecs_inv: np.ndarray = field(init=False, repr=False)
    _eig_sums: np.ndarray = field(init=False, repr=False)
    __setstate__ = _setstate_ro

    def __post_init__(self):
        d2 = self.d2
        if np.array_equal(d2, d2.T):
            # orthogonal eigenvectors; eig would return a near-singular V for
            # the repeated eigenvalues of the Fourier d2
            lam, vecs = np.linalg.eigh(d2)
            vecs_inv = vecs.T
        else:
            lam, vecs = np.linalg.eig(d2)
            if np.max(np.abs(lam.imag)) > 1e-10 * np.max(np.abs(lam.real)):
                raise ValueError("d2 has a complex spectrum; fast diagonalisation needs a real one")
            vecs, lam = vecs.real.copy(), lam.real  # np.dot copies a strided V per call
            vecs_inv = np.linalg.inv(vecs)
        err = np.max(np.abs(np.dot(vecs * lam, vecs_inv) - d2)) / np.max(np.abs(d2))
        if not err <= _MAX_DIAGONALISATION_ERROR:
            raise ValueError(f"fast diagonalisation of d2 is inaccurate: V diag(lambda) V^-1 "
                             f"has relative error {err:.1e}")
        object.__setattr__(self, "_vecs", _ro(vecs))
        object.__setattr__(self, "_vecs_inv", _ro(vecs_inv))
        object.__setattr__(self, "_eig_sums", _ro(lam[:, None] + lam[None, :]))

    @property
    def n_unknowns(self) -> int:
        return self.w.size

    @cached_property
    def mesh(self) -> tuple[np.ndarray, np.ndarray]:
        """Flattened (X, Y) coordinates of the unknowns, y slow, x fast."""
        X = np.tile(self.nodes, self.nodes.size)
        Y = np.repeat(self.nodes, self.nodes.size)
        return _ro(X), _ro(Y)

    def laplacian(self, v: np.ndarray) -> np.ndarray:
        """L v."""
        U = v.reshape(self.d2.shape)
        return (np.dot(U, self.d2.T) + np.dot(self.d2, U)).ravel()

    def shifted_inverse(self, sigma: float, eps2: float) -> Callable[[np.ndarray], np.ndarray]:
        """The map r -> (sigma*I - eps2*L)^{-1} r by fast diagonalisation."""
        V, Vinv = self._vecs, self._vecs_inv
        diagonal = sigma - eps2 * self._eig_sums  # formed once, read by every solve
        return lambda r: np.dot(np.dot(V, np.dot(np.dot(Vinv, r.reshape(V.shape)), Vinv.T) / diagonal),
                                V.T).ravel()

    # dense k^2 x k^2 oracles, built on first access

    @cached_property
    def L(self) -> np.ndarray:
        eye = np.eye(self.d2.shape[0])
        return _ro(np.kron(eye, self.d2) + np.kron(self.d2, eye))

    @cached_property
    def Gx(self) -> np.ndarray:
        return _ro(np.kron(np.eye(self.d1.shape[0]), self.d1))

    @cached_property
    def Gy(self) -> np.ndarray:
        return _ro(np.kron(self.d1, np.eye(self.d1.shape[0])))


def chebyshev_nodes(m: int) -> np.ndarray:
    """Gauss-Lobatto points cos(j*pi/m), j = 0..m (descending from 1 to -1)."""
    return np.cos(np.pi * np.arange(m + 1) / m)


def chebyshev_diff_matrix(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and the (m+1)x(m+1) first-derivative collocation matrix.

    Off-diagonal entries follow the (c_i/c_j)(-1)^{i+j}/(x_i-x_j) formula;
    diagonals come from the negative-sum trick, reproducing the
    +-(2m^2+1)/6 corners to rounding.
    """
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    x = chebyshev_nodes(m)
    c = np.ones(m + 1)
    c[0] = c[m] = 2.0
    c *= (-1.0) ** np.arange(m + 1)
    dx = x[:, None] - x[None, :]
    D = np.outer(c, 1.0 / c) / (dx + np.eye(m + 1))
    D -= np.diag(D.sum(axis=1))
    return x, D


def open_chebyshev_weights(m: int) -> np.ndarray:
    """Quadrature weights on the m-1 interior Gauss-Lobatto points of [-1, 1].

    w_j = (4/m) sin(theta_j) * sum_{odd k <= m} sin(k*theta_j)/k with
    theta_j = j*pi/m; the rule is interpolatory on the interior points and
    its weights sum to exactly 2.
    """
    if m < 2:
        raise ValueError(f"need m >= 2, got {m}")
    theta = np.pi * np.arange(1, m) / m
    k = 2.0 * np.arange(1, m // 2 + 1) - 1.0
    series = np.sin(np.outer(theta, k)) @ (1.0 / k)
    return (4.0 / m) * np.sin(theta) * series


def chebyshev_operator(m: int) -> SpectralOperator:
    """Dirichlet Laplacian on the (m-1)^2 interior nodes of [-1, 1]^2."""
    if m < 2:
        raise ValueError(f"need m >= 2 for interior unknowns, got {m}")
    x, D = chebyshev_diff_matrix(m)
    inner = slice(1, m)
    w1 = open_chebyshev_weights(m)
    return SpectralOperator(
        nodes=_ro(x[inner].copy()),
        d1=_ro(D[inner, inner].copy()),
        d2=_ro((D @ D)[inner, inner].copy()),
        w=_ro(np.kron(w1, w1)),
    )


def fourier_operator(m: int) -> SpectralOperator:
    """Periodic Laplacian on the m^2 nodes of (0, 2*pi)^2 (m even)."""
    if m < 4 or m % 2 != 0:
        raise ValueError(f"need even m >= 4, got {m}")
    h = 2.0 * np.pi / m
    nodes = h * np.arange(m)
    diff = np.arange(m)[:, None] - np.arange(m)[None, :]
    sign = np.where(diff % 2 == 0, 1.0, -1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        half = 0.5 * diff * h
        D1 = 0.5 * sign / np.tan(half)
        D2 = -0.5 * sign / np.sin(half) ** 2
    np.fill_diagonal(D1, 0.0)
    np.fill_diagonal(D2, -np.pi**2 / (3.0 * h**2) - 1.0 / 6.0)
    return SpectralOperator(
        nodes=_ro(nodes),
        d1=_ro(D1),
        d2=_ro(D2),
        w=_ro(np.full(m * m, h * h)),
    )


def _values(op: SpectralOperator, f) -> np.ndarray:
    v = np.asarray(f, dtype=float)
    if v.shape != (op.n_unknowns,):
        raise ValueError(f"field has shape {v.shape}, operator has {op.n_unknowns} unknowns")
    return v


def l2_norm(op: SpectralOperator, f) -> float:
    """Discrete L2 norm of a field under the operator's quadrature weights."""
    v = _values(op, f)
    return math.sqrt(float(op.w @ (v * v)))


def energy(op: SpectralOperator, f, eps2: float) -> float:
    """Discrete free energy -(eps2/2)*<u, L u> + (1/4)*||u^2 - 1||^2; see the module notes."""
    v = _values(op, f)
    bulk = v * v - 1.0
    return 0.25 * float(op.w @ (bulk * bulk)) - 0.5 * eps2 * float(op.w @ (v * op.laplacian(v)))
