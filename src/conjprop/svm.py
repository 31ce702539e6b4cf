"""Kernel SVM trained by sequential minimal optimization.

Solves the standard C-SVC dual with a maximal-violating-pair working set:

    min  1/2 a'Qa - e'a   s.t.  y'a = 0,  0 <= a_i <= C_i

where Q_ij = y_i y_j K(x_i, x_j).  Only the degree-2 polynomial kernel
K(x, y) = (x.y + 1)^2 is used here, but the solver is kernel-agnostic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import InputError


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

    def decision_function(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        return poly2_kernel(x, self.support_vectors) @ self.dual_coef + self.bias

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.decision_function(x) >= 0.0


def train_svm(x: np.ndarray, y: np.ndarray, c: float = 1.0,
              tol: float = 1e-3, max_iter: int = 200_000,
              class_weight: dict | None = None) -> SVMModel:
    """Trains a binary C-SVC.  y holds +1/-1 (booleans accepted).

    class_weight maps class label (+1/-1) to a multiplier on C.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y)
    if y.dtype == bool:
        y = np.where(y, 1.0, -1.0)
    y = y.astype(np.float64)
    n = x.shape[0]
    if n == 0:
        raise TrainingError("no training instances")
    if len(np.unique(y)) < 2:
        raise TrainingError("training data contains a single class")

    cap = np.full(n, c, dtype=np.float64)
    if class_weight:
        for label, mult in class_weight.items():
            cap[y == label] *= mult

    kernel = poly2_kernel(x, x)
    q = kernel * np.outer(y, y)
    qd = np.diag(q).copy()

    alpha = np.zeros(n)
    grad = -np.ones(n)
    tau = 1e-12

    for _ in range(max_iter):
        neg_yg = -y * grad
        up = ((y > 0) & (alpha < cap)) | ((y < 0) & (alpha > 0))
        low = ((y < 0) & (alpha < cap)) | ((y > 0) & (alpha > 0))
        if not up.any() or not low.any():
            break
        i = int(np.flatnonzero(up)[np.argmax(neg_yg[up])])
        j = int(np.flatnonzero(low)[np.argmin(neg_yg[low])])
        if neg_yg[i] - neg_yg[j] <= tol:
            break

        old_ai, old_aj = alpha[i], alpha[j]
        ci, cj = cap[i], cap[j]
        if y[i] != y[j]:
            quad = max(qd[i] + qd[j] + 2.0 * kernel[i, j], tau)
            delta = (-grad[i] - grad[j]) / quad
            diff = alpha[i] - alpha[j]
            alpha[i] += delta
            alpha[j] += delta
            if diff > 0:
                if alpha[j] < 0:
                    alpha[j] = 0.0
                    alpha[i] = diff
            else:
                if alpha[i] < 0:
                    alpha[i] = 0.0
                    alpha[j] = -diff
            if diff > ci - cj:
                if alpha[i] > ci:
                    alpha[i] = ci
                    alpha[j] = ci - diff
            else:
                if alpha[j] > cj:
                    alpha[j] = cj
                    alpha[i] = cj + diff
        else:
            quad = max(qd[i] + qd[j] - 2.0 * kernel[i, j], tau)
            delta = (grad[i] - grad[j]) / quad
            total = alpha[i] + alpha[j]
            alpha[i] -= delta
            alpha[j] += delta
            if total > ci:
                if alpha[i] > ci:
                    alpha[i] = ci
                    alpha[j] = total - ci
            else:
                if alpha[j] < 0:
                    alpha[j] = 0.0
                    alpha[i] = total
            if total > cj:
                if alpha[j] > cj:
                    alpha[j] = cj
                    alpha[i] = total - cj
            else:
                if alpha[i] < 0:
                    alpha[i] = 0.0
                    alpha[j] = total
        grad += q[:, i] * (alpha[i] - old_ai) + q[:, j] * (alpha[j] - old_aj)
    else:
        raise TrainingError(f"no convergence within {max_iter} iterations")

    bias = _intercept(alpha, grad, y, cap)
    keep = alpha > 1e-12
    return SVMModel(support_vectors=x[keep].copy(),
                    dual_coef=(alpha * y)[keep].copy(),
                    bias=bias)


def _intercept(alpha, grad, y, cap):
    """Offset from the KKT conditions; free vectors average, else midpoint."""
    yg = y * grad
    free = (alpha > 1e-12) & (alpha < cap - 1e-12)
    if free.any():
        rho = yg[free].mean()
    else:
        upper = np.where(alpha >= cap - 1e-12,
                         np.where(y < 0, yg, np.inf),
                         np.where(y > 0, yg, np.inf)).min()
        lower = np.where(alpha >= cap - 1e-12,
                         np.where(y > 0, yg, -np.inf),
                         np.where(y < 0, yg, -np.inf)).max()
        rho = (upper + lower) / 2.0
    return -rho
