"""Offline training: shuffling, k-fold cross-validation, L-BFGS.

The training procedure: pool the dataset standard deviation, shuffle the
rows, split them into contiguous folds, and for each fold minimize the
autoencoder cost on the sphered training rows while scoring the held-out
rows through the complete encode/decode round trip in raw sensor units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import core, data

__all__ = [
    "TrainingConfig",
    "TrainingReport",
    "MinimizeResult",
    "gamma_for_eta",
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


def gamma_for_eta(eta: float) -> float:
    """Sparsity-penalty schedule: gamma = 0.26 - 0.26 * eta.

    Fitted line through hand-tuned penalties at two sparsity ratios; at
    eta = 1 (no pruning) the penalty vanishes.
    """
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"sparsity ratio must be in (0, 1], got {eta}")
    return 0.26 - 0.26 * eta


def init_params(n_visible: int, n_hidden: int, seed: int = 0) -> core.SsaeParams:
    """Symmetric uniform weight init, r = sqrt(6 / (N + L)); zero biases."""
    if n_visible < 1 or n_hidden < 1:
        raise ValueError("layer sizes must be >= 1")
    rng = np.random.default_rng(seed)
    r = math.sqrt(6.0 / (n_visible + n_hidden))
    return core.SsaeParams(
        w1=rng.uniform(-r, r, size=(n_hidden, n_visible)),
        b1=np.zeros(n_hidden),
        w2=rng.uniform(-r, r, size=(n_visible, n_hidden)),
        b2=np.zeros(n_visible),
    )


@dataclass
class MinimizeResult:
    """Outcome of an L-BFGS run: best point seen plus the cost trace."""

    x: np.ndarray
    curve: list[tuple[int, float]]
    converged: bool
    message: str


def _checked_eval(objective, x, iteration):
    f, g = objective(x)
    f = float(f)
    g = np.asarray(g, dtype=np.float64)
    if not math.isfinite(f) or not np.isfinite(g).all():
        raise FloatingPointError(
            f"non-finite cost or gradient at iteration {iteration}"
        )
    if g.shape != x.shape:
        raise ValueError(
            f"gradient shape {g.shape} does not match parameter shape {x.shape}"
        )
    return f, g


def _two_loop(g, s_hist, y_hist, rho_hist):
    q = g.copy()
    alphas = []
    for s, y, rho in zip(reversed(s_hist), reversed(y_hist), reversed(rho_hist)):
        a = rho * (s @ q)
        alphas.append(a)
        q -= a * y
    if y_hist:
        # Scale the seed Hessian by the most recent curvature.
        q *= (s_hist[-1] @ y_hist[-1]) / (y_hist[-1] @ y_hist[-1])
    for (s, y, rho), a in zip(zip(s_hist, y_hist, rho_hist), reversed(alphas)):
        b = rho * (y @ q)
        q += (a - b) * s
    return q


def _zoom(objective, x, d, f0, dphi0, iteration,
          a_lo, f_lo, dphi_lo, a_hi, f_hi, max_iter=30):
    """Narrow a bracketing interval until the strong Wolfe conditions hold.

    If the interval collapses before the curvature condition is met (the
    objective has staircase kinks from code rounding), settle for the best
    sufficient-decrease point instead of failing outright.
    """
    armijo_best = None
    for _ in range(max_iter):
        span = a_hi - a_lo
        # Quadratic interpolation from the low end's value and slope;
        # fall back to bisection when it lands outside the safe interior.
        denom = 2.0 * (f_hi - f_lo - dphi_lo * span)
        a = a_lo + (-dphi_lo * span * span / denom if denom != 0 else 0.5 * span)
        lo, hi = (a_lo, a_hi) if a_lo < a_hi else (a_hi, a_lo)
        margin = 0.1 * abs(span)
        if not (lo + margin <= a <= hi - margin):
            a = a_lo + 0.5 * span
        f_a, g_a = _checked_eval(objective, x + a * d, iteration)
        dphi_a = g_a @ d
        if f_a <= f0 + WOLFE_C1 * a * dphi0 and (
            armijo_best is None or f_a < armijo_best[1]
        ):
            armijo_best = (a, f_a, g_a)
        if f_a > f0 + WOLFE_C1 * a * dphi0 or f_a >= f_lo:
            a_hi, f_hi = a, f_a
        else:
            if abs(dphi_a) <= -WOLFE_C2 * dphi0:
                return a, f_a, g_a
            if dphi_a * (a_hi - a_lo) >= 0:
                a_hi, f_hi = a_lo, f_lo
            a_lo, f_lo, dphi_lo = a, f_a, dphi_a
        if abs(a_hi - a_lo) < 1e-16 * max(1.0, abs(a_lo)):
            break
    return armijo_best


def _line_search(objective, x, f0, g0, d, iteration, max_expand=20):
    """Strong Wolfe search along d; returns (alpha, f, g) or None."""
    dphi0 = g0 @ d
    if dphi0 >= 0:
        return None
    a_prev, f_prev, dphi_prev = 0.0, f0, dphi0
    a = 1.0
    for i in range(1, max_expand + 1):
        f_a, g_a = _checked_eval(objective, x + a * d, iteration)
        dphi_a = g_a @ d
        if f_a > f0 + WOLFE_C1 * a * dphi0 or (i > 1 and f_a >= f_prev):
            return _zoom(objective, x, d, f0, dphi0, iteration,
                         a_prev, f_prev, dphi_prev, a, f_a)
        if abs(dphi_a) <= -WOLFE_C2 * dphi0:
            return a, f_a, g_a
        if dphi_a >= 0:
            return _zoom(objective, x, d, f0, dphi0, iteration,
                         a, f_a, dphi_a, a_prev, f_prev)
        a_prev, f_prev, dphi_prev = a, f_a, dphi_a
        a *= 2.0
    return None


def minimize(
    objective,
    x0: np.ndarray,
    max_iterations: int,
    convergence_tol: float = 1e-7,
    history: int = HISTORY_SIZE,
) -> MinimizeResult:
    """L-BFGS with two-loop recursion and a strong Wolfe line search.

    objective(x) must return (cost, gradient).  Stops at max_iterations or
    when the relative cost decrease falls below convergence_tol; a failed
    line search returns the best point seen so far with a warning message.
    Raises FloatingPointError if the objective ever goes non-finite.
    """
    if max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")
    x = np.asarray(x0, dtype=np.float64).copy()
    f, g = _checked_eval(objective, x, 0)
    curve = [(0, f)]
    best_f, best_x = f, x.copy()
    s_hist: list[np.ndarray] = []
    y_hist: list[np.ndarray] = []
    rho_hist: list[float] = []
    converged = False
    message = "max iterations reached"

    for it in range(1, max_iterations + 1):
        if float(np.max(np.abs(g))) < 1e-14:
            converged = True
            message = f"stationary point at iteration {it}"
            break
        d = -_two_loop(g, s_hist, y_hist, rho_hist)
        if d @ g >= 0:
            d = -g  # curvature history unusable, fall back to steepest descent
        step = _line_search(objective, x, f, g, d, it)
        if step is None and s_hist:
            # Stale curvature pairs can poison the direction; drop them and
            # retry once from steepest descent before giving up.
            s_hist.clear()
            y_hist.clear()
            rho_hist.clear()
            d = -g
            step = _line_search(objective, x, f, g, d, it)
        if step is None:
            message = f"line search failed at iteration {it}"
            break
        a, f_new, g_new = step
        x_new = x + a * d
        s_vec = x_new - x
        y_vec = g_new - g
        sy = s_vec @ y_vec
        if sy > 1e-12 * np.linalg.norm(s_vec) * np.linalg.norm(y_vec):
            s_hist.append(s_vec)
            y_hist.append(y_vec)
            rho_hist.append(1.0 / sy)
            if len(s_hist) > history:
                s_hist.pop(0)
                y_hist.pop(0)
                rho_hist.pop(0)
        drop = f - f_new
        x, f, g = x_new, f_new, g_new
        curve.append((it, f))
        if f < best_f:
            best_f, best_x = f, x.copy()
        if drop / max(abs(f) , 1e-300) < convergence_tol:
            converged = True
            message = f"converged at iteration {it}"
            break

    return MinimizeResult(x=best_x, curve=curve, converged=converged, message=message)


@dataclass
class TrainingConfig:
    """Knobs of the offline training run.

    gamma is a number or "auto"; auto derives the penalty from the
    sparsity ratio k_max / n_hidden via gamma_for_eta.
    """

    n_hidden: int
    k_max: int
    gamma: float | str = "auto"
    folds: int = 10
    max_iterations: int = 200
    convergence_tol: float = 1e-7
    seed: int = 0
    rounding_places: int = 3

    def __post_init__(self):
        if self.n_hidden < 1:
            raise ValueError("n_hidden must be >= 1")
        if not 1 <= self.k_max <= self.n_hidden:
            raise ValueError(
                f"k_max must be in [1, n_hidden={self.n_hidden}], got {self.k_max}"
            )
        if self.folds < 2:
            raise ValueError("folds must be >= 2")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.convergence_tol <= 0:
            raise ValueError("convergence_tol must be positive")
        if self.rounding_places < 0:
            raise ValueError("rounding_places must be >= 0")
        if isinstance(self.gamma, str):
            if self.gamma != "auto":
                raise ValueError(f"gamma must be a number or 'auto', got {self.gamma!r}")
        elif self.gamma < 0:
            raise ValueError("gamma must be >= 0")

    def resolve_gamma(self) -> float:
        if self.gamma == "auto":
            return gamma_for_eta(self.k_max / self.n_hidden)
        return float(self.gamma)

    @classmethod
    def from_mapping(cls, mapping: dict, **overrides) -> "TrainingConfig":
        """Build a config from string key/value pairs plus overrides."""
        converters = {
            "n_hidden": int, "k_max": int, "folds": int,
            "max_iterations": int, "seed": int, "rounding_places": int,
            "convergence_tol": float,
            "gamma": lambda v: v if v == "auto" else float(v),
        }
        kwargs = {}
        for key, value in mapping.items():
            key = key.strip()
            if key not in converters:
                raise ValueError(f"unknown training option {key!r}")
            kwargs[key] = converters[key](value)
        kwargs.update({k: v for k, v in overrides.items() if v is not None})
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path, **overrides) -> "TrainingConfig":
        """Read `key = value` lines; blank lines and # comments are skipped."""
        mapping = {}
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{lineno}: expected key = value")
                key, value = line.split("=", 1)
                mapping[key.strip()] = value.strip()
        return cls.from_mapping(mapping, **overrides)


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


def _fit_rows(X, sigma: float, gamma: float, config: TrainingConfig):
    """Sphere the rows, initialise from the config seed, minimize the cost."""
    D, _ = data.sphere_rows(X, sigma)
    n_visible = D.shape[1]
    n_hidden = config.n_hidden
    theta0 = init_params(n_visible, n_hidden, config.seed)

    def objective(vec):
        p = core.SsaeParams.from_vector(vec, n_visible, n_hidden)
        return core.gradient(p, D, gamma, config.k_max, config.rounding_places)

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
    X = np.asarray(X, dtype=np.float64)
    sigma = data.dataset_std(X)
    params, res = _fit_rows(X, sigma, config.resolve_gamma(), config)
    return params, sigma, res.curve


def train(X: np.ndarray, config: TrainingConfig) -> TrainingReport:
    """Cross-validated offline training.

    Pools sigma over the full matrix, shuffles the rows with the config
    seed, splits them into `folds` contiguous groups, trains on the
    complement of each group and scores it through the full round trip.
    Every fold starts from the same initial parameters.  The returned
    parameters are the final fold's model.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {X.shape}")
    T = X.shape[0]
    if T < config.folds:
        raise ValueError(f"need at least folds={config.folds} rows, got {T}")

    sigma = data.dataset_std(X)
    gamma = config.resolve_gamma()
    rng = np.random.default_rng(config.seed)
    shuffled = X[rng.permutation(T)]
    fold_slices = np.array_split(np.arange(T), config.folds)

    fold_rmse = []
    fold_results = []
    for i, test_idx in enumerate(fold_slices):
        train_rows = np.delete(shuffled, test_idx, axis=0)
        try:
            params, res = _fit_rows(train_rows, sigma, gamma, config)
        except FloatingPointError as exc:
            raise FloatingPointError(f"fold {i + 1}: {exc}") from exc
        fold_results.append(res)
        rmse = evaluate_rmse(
            params, sigma, shuffled[test_idx], config.k_max, config.rounding_places
        )
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
    """
    X_test = np.asarray(X_test, dtype=np.float64)
    if X_test.ndim == 1:
        X_test = X_test[None, :]
    if X_test.shape[1] != params.n_visible:
        raise ValueError(
            f"test matrix has {X_test.shape[1]} columns, model expects {params.n_visible}"
        )
    D, means = data.sphere_rows(X_test, sigma)
    H = core.hidden_activation(params, D)
    S = core.round_code(core.shrink(H, k), rounding_places)
    D_hat = core.reconstruct(params, S)
    X_hat = data.desphere_rows(D_hat, means, sigma)
    return float(np.sqrt(np.mean((X_hat - X_test) ** 2)))
