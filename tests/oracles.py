"""Independent oracles the test suite checks the library against.

Everything here is deliberately written with different algorithms from
the library code: IRLS with least-squares solves instead of
Newton-Raphson, explicit per-row loops with a formed matrix inverse
instead of vectorized factorizations, cofactor expansion instead of LU
for determinants, and the weighted log-likelihood from its formula, with
its own linear predictor and cumulant.
"""

from __future__ import annotations

import numpy as np


def sigmoid(eta):
    return 1.0 / (1.0 + np.exp(-np.asarray(eta, dtype=float)))


def irls_glm(x: np.ndarray, y: np.ndarray, kind: str, max_iter: int = 200, tol: float = 1e-12) -> np.ndarray:
    """Unweighted canonical-link GLM MLE via iteratively reweighted least
    squares (working response + lstsq)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    theta = np.zeros(x.shape[1])
    for _ in range(max_iter):
        eta = x @ theta
        if kind == "logistic":
            mu = sigmoid(eta)
            w = mu * (1.0 - mu)
        elif kind == "poisson":
            mu = np.exp(eta)
            w = mu
        else:
            raise ValueError(kind)
        z = eta + (y - mu) / w
        sw = np.sqrt(w)
        theta_new, *_ = np.linalg.lstsq(sw[:, None] * x, sw * z, rcond=None)
        if np.max(np.abs(theta_new - theta)) < tol:
            return theta_new
        theta = theta_new
    return theta


def mean_function(eta, kind: str):
    return sigmoid(eta) if kind == "logistic" else np.exp(np.asarray(eta, dtype=float))


def weight_function(eta, kind: str):
    if kind == "logistic":
        mu = sigmoid(eta)
        return mu * (1.0 - mu)
    return np.exp(np.asarray(eta, dtype=float))


def cumulant_function(eta, kind: str):
    """The log-normalizer b(eta), whose derivative is the mean:
    log(1 + e^eta) (logistic) or e^eta (Poisson)."""
    eta = np.asarray(eta, dtype=float)
    if kind == "logistic":
        return np.log1p(np.exp(eta))
    if kind == "poisson":
        return np.exp(eta)
    raise ValueError(kind)


def weighted_loglik(kind: str, theta, x, y, probs) -> float:
    """(1/n) sum_i (y_i eta_i - b(eta_i)) / pi_i with eta = x theta: the
    inverse-probability-weighted log-likelihood of n sample rows, additive
    constants in y dropped, where b is :func:`cumulant_function`."""
    eta = np.asarray(x, dtype=float) @ np.asarray(theta, dtype=float)
    cumulant = cumulant_function(eta, kind)
    y = np.asarray(y, dtype=float)
    return float(np.sum((y * eta - cumulant) / np.asarray(probs, dtype=float)) / len(y))


def info_matrix_loop(x: np.ndarray, theta: np.ndarray, kind: str) -> np.ndarray:
    """(1/N) sum_i w_i x_i x_i^T by explicit Python loop."""
    x = np.asarray(x, dtype=float)
    n, d = x.shape
    w = weight_function(x @ theta, kind)
    out = np.zeros((d, d))
    for i in range(n):
        out += w[i] * np.outer(x[i], x[i])
    return out / n


def phi_oracle(
    criterion: str,
    kind: str,
    theta: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    eps: float = 1e-6,
) -> np.ndarray:
    """Direct elementwise evaluation of the optimality probabilities with
    an explicitly formed matrix inverse."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    mu = mean_function(x @ theta, kind)
    res = np.maximum(np.abs(y - mu), eps)
    scores = np.empty(len(y))
    if criterion == "mMSE":
        inv = np.linalg.inv(info_matrix_loop(x, theta, kind))
        for i in range(len(y)):
            v = inv @ x[i]
            scores[i] = res[i] * np.sqrt(v @ v)
    elif criterion == "mVc":
        for i in range(len(y)):
            scores[i] = res[i] * np.sqrt(x[i] @ x[i])
    else:
        raise ValueError(criterion)
    return scores / scores.sum()


def phi_model_robust_oracle(criterion, kind, thetas, designs, y, alpha, eps=1e-6):
    """Weighted average of the single-model oracle vectors."""
    out = np.zeros(len(np.asarray(y)))
    for a, theta, x in zip(alpha, thetas, designs):
        out = out + a * phi_oracle(criterion, kind, theta, x, y, eps)
    return out


def cofactor_det(a: np.ndarray) -> float:
    """Determinant by cofactor expansion along the first row."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if n == 1:
        return float(a[0, 0])
    total = 0.0
    for j in range(n):
        minor = np.delete(np.delete(a, 0, axis=0), j, axis=1)
        total += ((-1.0) ** j) * a[0, j] * cofactor_det(minor)
    return float(total)
