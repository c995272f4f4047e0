"""Dense N x N oracle for the inverse kernels, and @ forms of the spectral solves.

doc_kernels fills D = B^{-1} column by column with vector operations over
all rows at once, the loop order the package used before it streamed one
row at a time.  The tests check the shipped row generator against it bit
for bit, and use it where a check over many large grids would be slow.

laplacian_matmul and shifted_inverse_matmul write the operator's tensor
products with @, the matmul ufunc.  The package calls the same BLAS
routines through np.dot, which dispatches faster, in every product, and
must give the same bits; it stores the Chebyshev eigenvectors contiguous,
because on eig's strided real view np.dot rounds otherwise than @.
"""

import numpy as np

from vsbdf3.bdf_kernels import assemble_B


def doc_kernels(grid) -> np.ndarray:
    """D = B^{-1} by the inverse-kernel recursion, as a read-only N x N array.

    Row n of D satisfies d_0^(n) = 1/b0^(n) and, for k < n,
        d_{n-k}^(n) = -(1/b0^(k)) * sum_{j>k} d_{n-j}^(n) b_{j-k}^(j),
    where only j = k+1 and j = k+2 contribute (bandwidth 3).
    """
    B = assemble_B(grid).B
    n = grid.n_steps
    b0, b1, b2 = B.diagonal(), B.diagonal(-1), B.diagonal(-2)
    D = np.zeros((n, n))
    idx = np.arange(n)
    D[idx, idx] = 1.0 / b0
    # column j (0-based) holds d_{n-k}^(n) for k = j+1; rows i = j+1..n-1
    for j in range(n - 2, -1, -1):
        acc = D[j + 1 :, j + 1] * b1[j]
        if j + 2 < n:
            acc[1:] += D[j + 2 :, j + 2] * b2[j]
        D[j + 1 :, j] = -acc / b0[j]
    D.flags.writeable = False
    return D


def laplacian_matmul(op, v) -> np.ndarray:
    """L v as U d2^T + d2 U, written with @."""
    U = v.reshape(op.d2.shape)
    return (U @ op.d2.T + op.d2 @ U).ravel()


def shifted_inverse_matmul(op, sigma, eps2, r) -> np.ndarray:
    """(sigma*I - eps2*L)^{-1} r by fast diagonalisation, written with @."""
    V, Vinv = op._vecs, op._vecs_inv
    diagonal = sigma - eps2 * op._eig_sums
    return (V @ ((Vinv @ r.reshape(V.shape) @ Vinv.T) / diagonal) @ V.T).ravel()
