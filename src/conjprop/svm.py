"""Kernel SVM trained by sequential minimal optimization.

Solves the standard C-SVC dual with a maximal-violating-pair working set:

    min  1/2 a'Qa - e'a   s.t.  y'a = 0,  0 <= a_i <= C_i

where Q_ij = y_i y_j K(x_i, x_j).  Only the degree-2 polynomial kernel
K(x, y) = (x.y + 1)^2 is used here, but the solver is kernel-agnostic.

Each step, whatever the labels of the pair i, j, is one move along d with
d_i = y_i and d_j = -y_j (Fan, Chen & Lin 2005).  The move keeps y'a fixed;
along it the objective has slope -gap and curvature K_ii + K_jj - 2 K_ij,
so the step is gap over that curvature, clipped where alpha_i or alpha_j
reaches a bound.

Q is never stored: as in LIBSVM, each column is formed from the kernel
matrix when a step needs it.  The labels are +1/-1, so the signs flip
exactly, and the solver's whole memory is the n x n float64 kernel matrix,
8 n^2 bytes, which must fit in physical memory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import InputError, physical_memory

MAX_ITER = 200_000


class TrainingError(InputError):
    pass


def poly2_kernel(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(a.b + 1)^2 for all row pairs; a is (n,d), b is (m,d)."""
    return (a @ b.T + 1.0) ** 2


@dataclass
class SVMModel:
    support_vectors: np.ndarray
    dual_coef: np.ndarray
    bias: float
    # solver state of the run that trained the model; None once loaded
    iterations: int | None = None
    gap: float | None = None

    def decision_function(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        return poly2_kernel(x, self.support_vectors) @ self.dual_coef + self.bias

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.decision_function(x) >= 0.0


def train_svm(x: np.ndarray, y: np.ndarray, c=1.0,
              tol: float = 1e-3) -> SVMModel:
    """Trains a binary C-SVC.  y holds +1/-1 (booleans accepted); c caps
    every alpha, or is an array of one cap per instance."""
    # contiguous, so x @ x.T is BLAS's symmetric product: grad reads rows
    x = np.ascontiguousarray(x, dtype=np.float64)
    y = np.asarray(y)
    if y.dtype == bool:
        y = np.where(y, 1.0, -1.0)
    y = y.astype(np.float64)
    n = x.shape[0]
    if n == 0:
        raise TrainingError("no training instances")
    if len(np.unique(y)) < 2:
        raise TrainingError("training data contains a single class")
    needed, ram = 8 * n * n, physical_memory()
    if needed > ram:
        raise TrainingError(f"the kernel SVM on {n} instances needs {needed} "
                            f"bytes for its kernel matrix, more than the "
                            f"{ram} bytes of physical memory")

    cap = np.broadcast_to(np.asarray(c, dtype=np.float64), (n,))
    kernel = poly2_kernel(x, x)
    qd = np.diag(kernel)

    alpha = np.zeros(n)
    grad = -np.ones(n)
    tau = 1e-12

    for iterations in range(MAX_ITER):
        neg_yg = -y * grad
        up = ((y > 0) & (alpha < cap)) | ((y < 0) & (alpha > 0))
        low = ((y < 0) & (alpha < cap)) | ((y > 0) & (alpha > 0))
        if not up.any() or not low.any():
            gap = 0.0  # no pair can move
            break
        i = int(np.flatnonzero(up)[np.argmax(neg_yg[up])])
        j = int(np.flatnonzero(low)[np.argmin(neg_yg[low])])
        gap = float(neg_yg[i] - neg_yg[j])
        if gap <= tol:
            break

        # the move along d of the module docstring
        room_i = cap[i] - alpha[i] if y[i] > 0 else alpha[i]
        room_j = alpha[j] if y[j] > 0 else cap[j] - alpha[j]
        step = min(gap / max(qd[i] + qd[j] - 2.0 * kernel[i, j], tau),
                   room_i, room_j)
        old_ai, old_aj = alpha[i], alpha[j]
        alpha[i] += y[i] * step
        alpha[j] -= y[j] * step
        # an alpha whose room limited the step lands exactly on its bound,
        # so every test of alpha against 0 or cap is exact, even at tiny caps
        if step == room_i:
            alpha[i] = cap[i] if y[i] > 0 else 0.0
        if step == room_j:
            alpha[j] = 0.0 if y[j] > 0 else cap[j]
        grad += y * (kernel[i] * (y[i] * (alpha[i] - old_ai))
                     + kernel[j] * (y[j] * (alpha[j] - old_aj)))
    else:
        raise TrainingError(f"no convergence within {MAX_ITER} iterations")

    bias = _intercept(alpha, grad, y, cap)
    keep = alpha > 0
    return SVMModel(support_vectors=x[keep].copy(),
                    dual_coef=(alpha * y)[keep].copy(),
                    bias=bias, iterations=iterations, gap=gap)


def _intercept(alpha, grad, y, cap):
    """Offset from the KKT conditions; free vectors average, else midpoint."""
    yg = y * grad
    free = (alpha > 0) & (alpha < cap)
    if free.any():
        rho = yg[free].mean()
    else:
        upper = np.where(alpha >= cap,
                         np.where(y < 0, yg, np.inf),
                         np.where(y > 0, yg, np.inf)).min()
        lower = np.where(alpha >= cap,
                         np.where(y > 0, yg, -np.inf),
                         np.where(y < 0, yg, -np.inf)).max()
        rho = (upper + lower) / 2.0
    return -rho
