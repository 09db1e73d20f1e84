"""Offline training: shuffling, k-fold cross-validation, L-BFGS."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import core, data

__all__ = [
    "TrainingConfig",
    "TrainingReport",
    "MinimizeResult",
    "init_params",
    "minimize",
    "fit",
    "train",
    "evaluate_rmse",
]

# L-BFGS constants, recorded for reproducibility.
HISTORY_SIZE = 10
WOLFE_C1 = 1e-4
WOLFE_C2 = 0.9
MAX_EXPAND = 20  # step doublings before the line search gives up
MAX_ZOOM = 30  # zoom trials before it settles for the best sufficient decrease

# Most rows evaluate_rmse scores at once.
SCORE_BLOCK_ROWS = 4096


def init_params(n_visible: int, n_hidden: int, seed: int = 0) -> core.SsaeParams:
    """Symmetric uniform weight init, r = sqrt(6 / (N + L)); zero biases."""
    n_visible = core._integer("n_visible", n_visible, 1)
    n_hidden = core._integer("n_hidden", n_hidden, 1)
    rng = np.random.default_rng(core._integer("seed", seed, 0))
    r = math.sqrt(6.0 / (n_visible + n_hidden))
    return core.SsaeParams(
        w1=rng.uniform(-r, r, size=(n_hidden, n_visible)),
        b1=np.zeros(n_hidden),
        w2=rng.uniform(-r, r, size=(n_visible, n_hidden)),
        b2=np.zeros(n_visible),
    )


@dataclass
class MinimizeResult:
    """Outcome of an L-BFGS run: x, the last point taken (the lowest cost seen), and the trace.

    evaluations counts objective calls and gradients the grad() calls
    among them; a line-search trial whose slope is never read costs an
    evaluation but no gradient.
    """

    x: np.ndarray
    curve: list[tuple[int, float]]
    converged: bool
    message: str
    evaluations: int
    gradients: int


def _two_loop(g, history):
    """H g, for H the inverse-Hessian estimate of the (s, y, 1/s.y) history."""
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(history):
        a = rho * (s @ q)
        alphas.append(a)
        q -= a * y
    if history:
        # Scale the seed Hessian by the most recent curvature.
        s, y, _ = history[-1]
        q *= (s @ y) / (y @ y)
    for (s, y, rho), a in zip(history, reversed(alphas)):
        b = rho * (y @ q)
        q += (a - b) * s
    return q


def _zoom(evaluate, x, d, f0, dphi0, a_lo, f_lo, dphi_lo, a_hi, f_hi):
    """Narrow a bracketing interval until the strong Wolfe conditions hold.

    If the interval collapses before the curvature condition is met (the
    objective has staircase kinks from code rounding), settle for the best
    sufficient-decrease point instead of failing outright.
    """
    armijo_best = None
    for _ in range(MAX_ZOOM):
        span = a_hi - a_lo
        # Quadratic interpolation from the low end's value and slope;
        # fall back to bisection when it lands outside the safe interior.
        denom = 2.0 * (f_hi - f_lo - dphi_lo * span)
        a = a_lo + (-dphi_lo * span * span / denom if denom != 0 else 0.5 * span)
        lo, hi = (a_lo, a_hi) if a_lo < a_hi else (a_hi, a_lo)
        margin = 0.1 * abs(span)
        if not (lo + margin <= a <= hi - margin):
            a = a_lo + 0.5 * span
        f_a, grad_a = evaluate(x + a * d)
        if f_a <= f0 + WOLFE_C1 * a * dphi0 and (
            armijo_best is None or f_a < armijo_best[1]
        ):
            armijo_best = (a, f_a, grad_a)
        if f_a > f0 + WOLFE_C1 * a * dphi0 or f_a >= f_lo:
            a_hi, f_hi = a, f_a
        else:
            dphi_a = grad_a() @ d
            if abs(dphi_a) <= -WOLFE_C2 * dphi0:
                return a, f_a, grad_a
            if dphi_a * (a_hi - a_lo) >= 0:
                a_hi, f_hi = a_lo, f_lo
            a_lo, f_lo, dphi_lo = a, f_a, dphi_a
        del grad_a  # an unread grad holds its forward pass; free it first
        if abs(a_hi - a_lo) < 1e-16 * max(1.0, abs(a_lo)):
            break
    return armijo_best


def _line_search(evaluate, x, f0, g0, d):
    """Strong Wolfe search along a descent direction d; returns (alpha, f, grad) or None."""
    dphi0 = g0 @ d
    a_prev, f_prev, dphi_prev = 0.0, f0, dphi0
    a = 1.0
    for i in range(1, MAX_EXPAND + 1):
        f_a, grad_a = evaluate(x + a * d)
        if f_a > f0 + WOLFE_C1 * a * dphi0 or (i > 1 and f_a >= f_prev):
            del grad_a  # an unread grad holds its forward pass; free it first
            return _zoom(evaluate, x, d, f0, dphi0, a_prev, f_prev, dphi_prev, a, f_a)
        dphi_a = grad_a() @ d
        if abs(dphi_a) <= -WOLFE_C2 * dphi0:
            return a, f_a, grad_a
        if dphi_a >= 0:
            return _zoom(evaluate, x, d, f0, dphi0, a, f_a, dphi_a, a_prev, f_prev)
        a_prev, f_prev, dphi_prev = a, f_a, dphi_a
        a *= 2.0
    return None


def minimize(
    objective,
    x0: np.ndarray,
    max_iterations: int,
    convergence_tol: float = 1e-7,
) -> MinimizeResult:
    """L-BFGS with two-loop recursion and a strong Wolfe line search.

    The objective contract: objective(x) returns (cost, grad), grad a
    callable taking no arguments that returns the gradient at x, flat
    like x.  Every cost is checked.  grad() is called at most once per
    evaluation, and only at x0, at a line-search trial whose slope the
    search reads (it passes sufficient decrease and lies below the
    bracket's low end) and at the point the search returns, so an
    objective that runs its backward pass inside grad(), as core.gradient
    does, skips it at every other trial.  MinimizeResult.evaluations and
    .gradients count objective and grad() calls.  x0 is a non-empty 1-D
    vector.

    A direction that does not descend, or whose line search fails, drops
    the curvature history and gets one retry from steepest descent, which
    is the direction when there is no history.  Stops at max_iterations,
    at a failed steepest-descent search with a warning message, or when
    the relative cost decrease falls below convergence_tol (finite, > 0).
    A step that does not lower the cost is not taken and ends the run, so
    x is the last point taken, the lowest cost seen.  Raises
    FloatingPointError if a cost or a read gradient is ever non-finite.
    """
    max_iterations = core._integer("max_iterations", max_iterations, 1)
    if not 0 < convergence_tol < math.inf:
        raise ValueError(f"convergence_tol must be finite and > 0, got {convergence_tol}")
    evaluations = gradients = 0

    def evaluate(x):
        """The objective at x, counted, f checked; grad() checks its array once."""
        nonlocal evaluations
        f, grad = objective(x)
        evaluations += 1
        f = float(f)
        if not math.isfinite(f):
            raise FloatingPointError(f"non-finite cost at iteration {it}")
        g = None

        def checked_grad():
            nonlocal g, gradients
            if g is None:
                g = np.asarray(grad(), dtype=np.float64)
                gradients += 1
                if not np.isfinite(g).all():
                    raise FloatingPointError(
                        f"non-finite gradient at iteration {it}")
                if g.shape != x.shape:
                    raise ValueError(
                        f"gradient shape {g.shape} does not match parameter shape {x.shape}"
                    )
            return g

        return f, checked_grad

    x = np.array(x0, dtype=np.float64)
    if x.ndim != 1 or not x.size:
        raise ValueError(f"x0 must be a non-empty 1-D vector, got shape {x.shape}")
    it = 0  # the iteration evaluate's errors name; x0 is iteration 0
    f, grad = evaluate(x)
    g = grad()
    curve = [(0, f)]
    history = []  # the latest (s, y, 1/s.y) curvature pairs, oldest first
    converged = False
    message = "max iterations reached"

    for it in range(1, max_iterations + 1):
        if float(np.max(np.abs(g))) < 1e-14:
            converged = True
            message = f"stationary point at iteration {it}"
            break
        d = -_two_loop(g, history)
        step = _line_search(evaluate, x, f, g, d) if d @ g < 0 else None
        if step is None and history:
            # Stale curvature pairs can poison the direction or its search;
            # drop them and retry once from steepest descent before giving up.
            history.clear()
            d = -g
            step = _line_search(evaluate, x, f, g, d)
        if step is None:
            message = f"line search failed at iteration {it}"
            break
        a, f_new, grad_new = step
        g_new = grad_new()
        x_new = x + a * d
        s_vec = x_new - x
        y_vec = g_new - g
        sy = s_vec @ y_vec
        if sy > 1e-12 * np.linalg.norm(s_vec) * np.linalg.norm(y_vec):
            history.append((s_vec, y_vec, 1.0 / sy))
            del history[:-HISTORY_SIZE]
        drop = f - f_new  # >= 0: every step the search returns passes sufficient decrease
        curve.append((it, f_new))
        if drop > 0:
            x, f, g = x_new, f_new, g_new
        if drop / max(abs(f), 1e-300) < convergence_tol:
            converged = True
            message = f"converged at iteration {it}"
            break

    return MinimizeResult(x=x, curve=curve, converged=converged, message=message,
                          evaluations=evaluations, gradients=gradients)


@dataclass
class TrainingConfig:
    """Knobs of the offline training run.

    gamma is a number or "auto", which resolve_gamma turns into
    0.26 - 0.26 * eta for the sparsity ratio eta = k_max / n_hidden: a line
    fitted through hand-tuned penalties at two sparsity ratios, on which
    the penalty vanishes at eta = 1 (no pruning).
    """

    n_hidden: int
    k_max: int
    gamma: float | str = "auto"
    folds: int = 10
    max_iterations: int = 200
    convergence_tol: float = 1e-7
    seed: int = 0

    def __post_init__(self):
        self.n_hidden = core._integer("n_hidden", self.n_hidden, 1)
        self.k_max = core._integer("k_max", self.k_max, 1, self.n_hidden)
        self.folds = core._integer("folds", self.folds, 2)
        self.max_iterations = core._integer("max_iterations", self.max_iterations, 1)
        self.seed = core._integer("seed", self.seed, 0)
        if not 0 < self.convergence_tol < math.inf:
            raise ValueError(f"convergence_tol must be finite and > 0, got {self.convergence_tol}")
        if isinstance(self.gamma, str):
            if self.gamma != "auto":
                raise ValueError(f"gamma must be a number or 'auto', got {self.gamma!r}")
        elif not 0 <= self.gamma < math.inf:
            raise ValueError(f"gamma must be finite and >= 0, got {self.gamma}")

    def resolve_gamma(self) -> float:
        if self.gamma == "auto":
            return 0.26 - 0.26 * (self.k_max / self.n_hidden)
        return float(self.gamma)


@dataclass
class TrainingReport:
    """Cross-validation outcome plus the parameters of the final fold.

    fold_results holds every fold's L-BFGS outcome in fold order.
    """

    fold_rmse: list[float]
    mean_rmse: float
    fold_results: list[MinimizeResult]
    params: core.SsaeParams
    sigma: float
    gamma: float

    @property
    def curve(self) -> list[tuple[int, float]]:
        """Cost trace of the final fold."""
        return self.fold_results[-1].curve

    @property
    def messages(self) -> list[str]:
        """Stop reasons of the folds that did not converge."""
        return [f"fold {i}: {res.message}"
                for i, res in enumerate(self.fold_results, start=1)
                if not res.converged]


def _fit_rows(D, gamma: float, config: TrainingConfig):
    """Initialise from the config seed and minimize the cost on sphered rows D."""
    n_visible = D.shape[1]
    n_hidden = config.n_hidden
    theta0 = init_params(n_visible, n_hidden, config.seed)

    def objective(vec):
        p = core.SsaeParams.from_vector(vec, n_visible, n_hidden)
        return core.gradient(p, D, gamma, config.k_max)

    res = minimize(
        objective,
        theta0.to_vector(),
        max_iterations=config.max_iterations,
        convergence_tol=config.convergence_tol,
    )
    return core.SsaeParams.from_vector(res.x, n_visible, n_hidden), res


def fit(X: np.ndarray, config: TrainingConfig):
    """Single fit on a whole matrix (no cross-validation).

    Returns (params, sigma, curve).  Used by benchmarks where the
    train/test split is managed by the caller.
    """
    X = core._matrix(X)
    sigma = data.dataset_std(X)
    D, _ = data.sphere_rows(X, sigma)
    params, res = _fit_rows(D, config.resolve_gamma(), config)
    return params, sigma, res.curve


def train(X: np.ndarray, config: TrainingConfig) -> TrainingReport:
    """Cross-validated offline training.

    Pools sigma over the full matrix, shuffles the rows with the config
    seed and spheres them once, splits them into `folds` contiguous groups,
    trains on the complement of each group and scores it through the full
    round trip.
    Every fold starts from the same initial parameters.  The returned
    parameters are the final fold's model.
    """
    X = core._matrix(X)
    T = X.shape[0]
    if T < config.folds:
        raise ValueError(f"need at least folds={config.folds} rows, got {T}")

    sigma = data.dataset_std(X)
    gamma = config.resolve_gamma()
    rng = np.random.default_rng(config.seed)
    shuffled = X[rng.permutation(T)]
    D, _ = data.sphere_rows(shuffled, sigma)
    fold_slices = np.array_split(np.arange(T), config.folds)

    fold_rmse = []
    fold_results = []
    for i, test_idx in enumerate(fold_slices):
        try:
            params, res = _fit_rows(np.delete(D, test_idx, axis=0), gamma, config)
        except FloatingPointError as exc:
            raise FloatingPointError(f"fold {i + 1}: {exc}") from exc
        fold_results.append(res)
        rmse = evaluate_rmse(params, sigma, shuffled[test_idx], config.k_max)
        fold_rmse.append(rmse)

    return TrainingReport(
        fold_rmse=fold_rmse,
        mean_rmse=float(np.mean(fold_rmse)),
        fold_results=fold_results,
        params=params,
        sigma=sigma,
        gamma=gamma,
    )


def evaluate_rmse(
    params: core.SsaeParams,
    sigma: float,
    X_test: np.ndarray,
    k: int,
    rounding_places: int = 3,
) -> float:
    """RMSE of the full round trip in raw sensor units.

    sphere -> hidden -> shrink -> round -> reconstruct -> desphere, then
    sqrt(mean((x_hat - x)^2)) over every entry of the test matrix.

    Memory: the round trip runs over blocks of at most SCORE_BLOCK_ROWS
    rows into one (T, N) x_hat, and the error is squared in place there,
    so beyond x_hat the peak is a few blocks' layers whatever T is.  The
    value is bit for bit the unblocked formula's: no block has one row
    unless T = 1, since a 1-row matmul takes BLAS's matrix-vector path.
    """
    X_test = core._check_batch(params, X_test, "test matrix")
    X_hat = np.empty(X_test.shape)
    n_blocks = -(-X_test.shape[0] // SCORE_BLOCK_ROWS)
    for X, out in zip(np.array_split(X_test, n_blocks), np.array_split(X_hat, n_blocks)):
        out[...] = _round_trip(params, sigma, X, k, rounding_places)
    X_hat -= X_test
    np.square(X_hat, out=X_hat)
    return float(np.sqrt(np.mean(X_hat)))


def _round_trip(params, sigma, X, k, rounding_places) -> np.ndarray:
    """x_hat of frames X; its layers are freed when it returns."""
    D, means = data.sphere_rows(X, sigma)
    S = core.round_code(core.shrink(core.hidden_activation(params, D), k), rounding_places)
    return data.desphere_rows(core.reconstruct(params, S), means, sigma)
