"""Regularized ERM training on clean and noise-perturbed data, plus the
inequality checks relating the two classifiers.

The loss is fixed to logistic: its derivative is bounded by 1 and its
curvature by c = 1/4, the constants the classifier-difference and
empirical-gap inequalities take from Chaudhuri, Monteleoni & Sarwate
(JMLR 2011).  The regularizer is (Lambda / 2) * ||f||^2, making the
objective strictly convex with a unique minimizer; training is damped
Newton with backtracking line search on the Newton decrement, run to a
gradient-norm tolerance.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError
from .game import _Record, _require_finite

_CURVATURE_BOUND = 0.25  # c: the logistic loss's second derivative is at most 1/4
_DRAW_ROWS = 4096  # rows of normals drawn per block in generate_synthetic
_MAX_ITER = 200  # Newton iterations before train_erms gives up


class Dataset(_Record):
    """Feature matrix (n, d) with labels in {-1, +1}.

    The features are stored column-major, whatever layout the caller
    passes: with n >> d, X w, X^T v and the Hessian's X^T diag(h) X then
    run along contiguous columns of length n instead of rows of length d."""

    def __init__(self, features: np.ndarray, labels: np.ndarray):
        self._store(locals())

    def __post_init__(self):
        features = np.asfortranarray(self.features, dtype=float)
        labels = np.asarray(self.labels, dtype=float)
        if features.ndim != 2:
            raise ValueError("features must be a 2-D array")
        if labels.shape != (features.shape[0],):
            raise ValueError("labels length must match feature rows")
        if features.shape[0] < 1:
            raise ValueError("need at least one row")
        if not np.all(np.isfinite(features)):
            raise ValueError("features must be finite")
        if not np.all((labels == 1.0) | (labels == -1.0)):
            raise ValueError("labels must be -1 or +1")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]


class Classifier(_Record):
    """Linear classifier: sign(weights . x)."""

    def __init__(self, weights: np.ndarray):
        self._store(locals())

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or not np.all(np.isfinite(w)):
            raise ValueError("weights must be a finite 1-D array")
        object.__setattr__(self, "weights", w)


class BoundReport(_Record):
    """One side-by-side inequality check, lhs <= rhs, with slack rhs - lhs."""

    def __init__(self, lhs: float, rhs: float, slack: float):
        self._store(locals())


def _logistic_loss(margins: np.ndarray, ez: np.ndarray | None = None) -> np.ndarray:
    """log(1 + exp(-m)) as log1p(exp(-|m|)) - min(m, 0), which never
    overflows and is == max(-m, 0) + log1p(exp(-|m|)) with one pass fewer.
    The losses are written over margins, a float array the caller gives
    up, and returned.  ez, when given, is exp(-|m|) already computed and
    is left as it is."""
    if ez is None:
        ez = np.abs(margins)
        np.exp(np.negative(ez, out=ez), out=ez)
        log = np.log1p(ez, out=ez)
    else:
        log = np.log1p(ez)
    return np.subtract(log, np.minimum(margins, 0.0, out=margins), out=margins)


def generate_synthetic(n: int, d: int, separation: float, seed: int) -> Dataset:
    """Two unit-variance Gaussian clusters centered at +-(separation/2) e_1."""
    if n < 2 or d < 1:
        raise ValueError("need n >= 2 and d >= 1")
    _require_finite("separation", separation)
    rng = np.random.Generator(np.random.PCG64(seed))
    labels = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    # the rows are drawn in order, a block at a time, into column-major
    # storage: no full row-major copy of the features is ever held
    features = np.empty((n, d), order="F")
    for start in range(0, n, _DRAW_ROWS):
        features[start : start + _DRAW_ROWS] = rng.standard_normal((min(_DRAW_ROWS, n - start), d))
    features[:, 0] += labels * (separation / 2.0)
    return Dataset(features, labels)


def _stack(datasets: "list[Dataset]") -> tuple[np.ndarray, np.ndarray]:
    """The features as a (T, d, n) stack of each X^T and the labels as
    (T, n).  Each X^T is C-contiguous, so each slice of the stack's
    transpose (T, n, d) is column-major as a Dataset's features are, and
    matmul hands every slice to the BLAS call the 2-D product makes.  A
    stack of one is a view: a large set is never copied."""
    if len(datasets) == 1:
        return datasets[0].features.T[None], datasets[0].labels[None]
    return np.stack([data.features.T for data in datasets]), np.stack([data.labels for data in datasets])


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Each row's a[t] @ b[t]: matmul takes a vector-vector product one
    row at a time, by the dot a 1-D a[t] @ b[t] makes."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _risk(margins: np.ndarray, w: np.ndarray, lam: float, ez: np.ndarray | None = None) -> np.ndarray:
    """The regularized objective, Lambda/2 ||w||^2 plus the mean logistic
    loss, for each row of a (T, n) stack of margins y X w, which it
    spends; ez is exp(-|margins|), when already computed."""
    # each row's pairwise sum and divide, as np.mean takes them
    return np.add.reduce(_logistic_loss(margins, ez), axis=1) / margins.shape[1] + 0.5 * lam * _dots(w, w)


def _risk_states(w: np.ndarray, Xt: np.ndarray, y: np.ndarray, lam: float):
    """z = X w, exp(-|z|) and the regularized objective at w for each
    problem of a stack, from one pass over the rows.  The labels are +-1,
    so exp(-|z|) is also exp(-|y z|)."""
    z = np.matmul(Xt.transpose(0, 2, 1), w[:, :, None])[:, :, 0]
    ez = np.abs(z)
    np.exp(np.negative(ez, out=ez), out=ez)
    return z, ez, _risk(y * z, w, lam, ez)


def empirical_risk(f: Classifier, data: Dataset, lam: float) -> float:
    """Lambda/2 ||f||^2 + mean logistic loss over the dataset: the training
    objective, and over a held-out sample the Monte Carlo estimate of the
    population loss plus regularizer.  The margins take two row-length
    arrays, X w and the losses written over it.  ValueError for a lam that
    is not finite and >= 0."""
    _require_finite("lam", lam, ">=")
    margins = data.features @ f.weights
    margins *= data.labels
    return float(_risk(margins[None], f.weights[None], lam)[0])


def train_erm(data: Dataset, lam: float, tol: float = 1e-8) -> Classifier:
    """Minimize the regularized objective to gradient-norm tol: train_erms
    on a stack of one."""
    return train_erms([data], lam, tol)[0]


def train_erms(datasets: "list[Dataset]", lam: float, tol: float = 1e-8) -> list[Classifier]:
    """Minimize each dataset's regularized objective to gradient-norm tol
    by damped Newton steps with Armijo backtracking (Boyd & Vandenberghe
    2004, 9.5), the datasets, all of one (n, d) shape, stepped as one
    stack: each product is one matmul and each solve one np.linalg.solve
    over the stack, so T small problems cost about the numpy calls of one.
    Each problem backtracks on its own step and leaves the stack once its
    gradient norm reaches tol, and its weights are those of training it
    alone, bit for bit, whatever its stack-mates.

    Each iterate carries z = X w, exp(-|z|) and the objective from the
    accepted line-search step.  The gradient's sigmoid(-y z) and the
    Hessian's sigmoid(z) are both picks from the same 1 / (1 + e) and
    e / (1 + e), since |-y z| = |z|.  Those two, the gradient's
    coefficients and the Hessian's weights are formed in arrays each step
    allocates once and writes in place; nothing is written into a
    dataset."""
    _require_finite("lam", lam, ">")  # > 0: strict convexity
    _require_finite("tol", tol, ">")
    if not datasets:
        raise ValueError("need at least one dataset")
    n, d = datasets[0].features.shape
    if any(data.features.shape != (n, d) for data in datasets):
        raise ValueError("datasets must share one (n, d) shape")
    Xt, y = _stack(datasets)
    lanes = np.arange(len(datasets))  # the datasets still in the stack
    weights = [None] * len(datasets)
    w = np.zeros((len(datasets), d))
    ridge = lam * np.eye(d)
    z, ez, obj = _risk_states(w, Xt, y, lam)
    for _ in range(_MAX_ITER):
        upper = 1.0 + ez
        lower = np.divide(ez, upper, out=ez)  # sigmoid(-|z|), over exp(-|z|)
        np.divide(1.0, upper, out=upper)  # sigmoid(|z|)
        del ez
        coef = np.where(y * z <= 0, upper, lower)
        np.negative(np.multiply(coef, y, out=coef), out=coef)  # -y sigmoid(-y z): negating last is exact
        g = lam * w + np.matmul(Xt, coef[:, :, None])[:, :, 0] / n
        gnorm = np.sqrt(_dots(g, g))  # np.linalg.norm's dot and sqrt
        done = gnorm <= tol
        if done.any():
            for lane, w_done in zip(lanes[done], w[done]):
                weights[lane] = Classifier(w_done)
            if done.all():
                return weights
            live = ~done
            lanes, Xt, y, w, z, obj, g, gnorm, upper, lower = (
                a[live] for a in (lanes, Xt, y, w, z, obj, g, gnorm, upper, lower)
            )
        p = np.where(z >= 0, upper, lower)
        # p (1 - p) is even in the margin, so the labels drop out
        h = np.subtract(1.0, p, out=upper)  # sigmoid(|z|) is spent
        h *= p
        del coef, lower, p  # not held through the gemm and the line search
        hessian = ridge + np.matmul(Xt * h[:, None, :], Xt.transpose(0, 2, 1)) / n
        direction = np.linalg.solve(hessian, g[:, :, None])[:, :, 0]
        decrement = _dots(g, direction)  # squared Newton decrement
        step = np.ones(len(lanes))
        for _ in range(60):
            w_new = w - step[:, None] * direction
            z_new, ez_new, obj_new = _risk_states(w_new, Xt, y, lam)
            # sufficient decrease, or a predicted decrease below the
            # objective's float resolution; an accepted step is not halved
            # again, so its problem's iterate is recomputed unchanged
            accepted = (obj_new <= obj - 1e-4 * step * decrement) | (
                step * decrement < 1e-14 * np.maximum(1.0, np.abs(obj))
            )
            if accepted.all():
                break
            step[~accepted] *= 0.5
        w, z, ez, obj = w_new, z_new, ez_new, obj_new
        del z_new, ez_new  # so that lower is freed before the next gemm
    raise ConvergenceError(
        f"problem {lanes[0]} of {len(weights)}: gradient norm {gnorm[0]:.3e} above tol {tol:.3e}"
        f" after {_MAX_ITER} iterations"
    )


def perturb_inputs(
    data: Dataset,
    sigma_L: float,
    sigma_S: "list[float] | np.ndarray",
    seed: int,
) -> tuple[Dataset, np.ndarray]:
    """Add learner noise (std sigma_L) and per-user noise (std sigma_S[i])
    to every feature row; returns the perturbed dataset and the realized
    combined noise matrix."""
    sigma_S = np.asarray(sigma_S, dtype=float)
    if sigma_S.shape != (data.n,):
        raise ValueError(f"sigma_S must have length {data.n}, got {sigma_S.shape}")
    _require_finite("sigma_L", sigma_L, ">=")
    if not np.all((sigma_S >= 0) & (sigma_S < np.inf)):  # NaN fails both
        raise ValueError("sigma_S must be finite and >= 0")
    rng = np.random.Generator(np.random.PCG64(seed))
    w = sigma_L * rng.standard_normal((data.n, data.d))
    v = sigma_S[:, None] * rng.standard_normal((data.n, data.d))
    u = v + w
    return Dataset(np.add(data.features, u, order="F"), data.labels), u


def check_classifier_gap(
    clean_f: Classifier,
    pert_f: Classifier,
    noise: np.ndarray,
    lam: float,
) -> BoundReport:
    """||f_clean - f_pert||^2 against
    (1 + c^2 ||f_pert||^2) / (n^2 Lambda^2) * sum_i ||u_i||^2, with one
    noise row u_i per training row.  ValueError for a lam that is not
    finite and > 0, or whose n^2 lam^2 is 0 or inf."""
    _require_finite("lam", lam, ">")
    c, n = _CURVATURE_BOUND, noise.shape[0]
    try:
        scale = n**2 * lam**2
    except OverflowError:  # lam**2 raises where lam * lam is inf
        scale = math.inf
    if not 0 < scale < math.inf:
        raise ValueError(f"lam = {lam!r} has no finite nonzero n^2 lam^2 at n = {n}")
    diff = clean_f.weights - pert_f.weights
    lhs = float(diff @ diff)
    rhs = (1.0 + c**2 * float(pert_f.weights @ pert_f.weights)) / scale * float(np.sum(noise**2))
    return BoundReport(lhs, rhs, rhs - lhs)


def check_empirical_gap(
    f_d: Classifier,
    f_dagger: Classifier,
    data: Dataset,
    lam: float,
) -> BoundReport:
    """Empirical-risk gap on the clean data (whose minimizer is f_dagger)
    against ||f_d - f_dagger||^2 * (1 + c).  ValueError for a lam that is
    not finite and > 0: f_dagger minimizes a strictly convex objective."""
    _require_finite("lam", lam, ">")
    lhs = empirical_risk(f_d, data, lam) - empirical_risk(f_dagger, data, lam)
    diff = f_d.weights - f_dagger.weights
    rhs = float(diff @ diff) * (1.0 + _CURVATURE_BOUND)
    return BoundReport(lhs, rhs, rhs - lhs)
