"""Deterministic minimizer for smooth low-dimensional objectives.

lbfgs_minimize is limited-memory BFGS (two-loop recursion; Liu & Nocedal
1989) with a strong-Wolfe line search using quadratic/cubic interpolation.
If the line search cannot find an acceptable point it falls back to a
backtracking steepest-descent step, and gives up only when that also
fails. Accepted steps never increase the objective. It is the one
query-time optimizer: the adaptation objective is smooth with an exact
gradient. The memory (HISTORY_SIZE pairs), the Wolfe constants C1 and C2,
the line-search budget (MAX_LINE_EVALS), the iteration cap (MAX_ITERS) and
the gradient tolerance (GRAD_TOL) are module constants, read at call time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass
class ObjectiveEval:
    value: float
    gradient: np.ndarray


Objective = Callable[[np.ndarray], ObjectiveEval]


HISTORY_SIZE = 10  # (s, y) pairs the two-loop recursion keeps
C1 = 1e-4  # sufficient-decrease (Armijo) constant
C2 = 0.9  # curvature constant of the strong Wolfe conditions
MAX_LINE_EVALS = 60  # objective evaluations one line search may spend
MAX_ITERS = 100  # outer iterations before lbfgs_minimize gives up
GRAD_TOL = 1e-7  # infinity norm of the gradient that counts as converged


def _quad_min(a, fa, dfa, b, fb):
    """Minimizer of the quadratic through (a, fa, dfa) and (b, fb)."""
    with np.errstate(all="ignore"):
        denom = 2.0 * (fb - fa - dfa * (b - a))
        if denom == 0.0 or not np.isfinite(denom):
            return None
        alpha = a - dfa * (b - a) ** 2 / denom
    return alpha if np.isfinite(alpha) else None


def _cubic_min(a, fa, dfa, b, fb, dfb):
    """Minimizer of the cubic matching values and derivatives at a and b."""
    with np.errstate(all="ignore"):
        d1 = dfa + dfb - 3.0 * (fa - fb) / (a - b)
        rad = d1 * d1 - dfa * dfb
        if rad < 0.0 or not np.isfinite(rad):
            return None
        d2 = np.sign(b - a) * np.sqrt(rad)
        denom = dfb - dfa + 2.0 * d2
        if denom == 0.0 or not np.isfinite(denom):
            return None
        alpha = b - (b - a) * (dfb + d2 - d1) / denom
    return alpha if np.isfinite(alpha) else None


class _EvalBudget:
    def __init__(self, objective: Objective, x: np.ndarray, d: np.ndarray, limit: int):
        self.objective = objective
        self.x = x
        self.d = d
        self.left = limit

    def __call__(self, alpha: float):
        """Returns (phi, dphi, full_eval) or None when out of budget."""
        if self.left <= 0:
            return None
        self.left -= 1
        fe = self.objective(self.x + alpha * self.d)
        return fe.value, float(fe.gradient @ self.d), fe


def _zoom(budget, lo, phi_lo, dphi_lo, hi, phi_hi, dphi_hi, phi0, dphi0):
    """Strong-Wolfe zoom on a bracketing interval (Nocedal-Wright style)."""
    for j in range(30):
        width = hi - lo
        a, b = (lo, hi) if width > 0 else (hi, lo)
        alpha = None
        if j > 0:
            alpha = _cubic_min(lo, phi_lo, dphi_lo, hi, phi_hi, dphi_hi)
            margin = 0.2 * abs(width)
            if alpha is None or alpha < a + margin or alpha > b - margin:
                alpha = None
        if alpha is None:
            alpha = _quad_min(lo, phi_lo, dphi_lo, hi, phi_hi)
            margin = 0.1 * abs(width)
            if alpha is None or alpha < a + margin or alpha > b - margin:
                alpha = lo + 0.5 * width
        res = budget(alpha)
        if res is None:
            return None
        phi, dphi, fe = res
        if not np.isfinite(phi):
            # treat a non-finite probe as "too far" and shrink toward lo
            hi, phi_hi, dphi_hi = alpha, np.inf, 0.0
            continue
        if phi > phi0 + C1 * alpha * dphi0 or phi >= phi_lo:
            hi, phi_hi, dphi_hi = alpha, phi, dphi
        else:
            if abs(dphi) <= -C2 * dphi0:
                return alpha, fe
            if dphi * (hi - lo) >= 0.0:
                hi, phi_hi, dphi_hi = lo, phi_lo, dphi_lo
            lo, phi_lo, dphi_lo = alpha, phi, dphi
        if abs(hi - lo) < 1e-16 * max(1.0, abs(lo)):
            return None
    return None


def _secant_polish(budget, alpha_prev, dphi_prev, alpha, phi, dphi, phi0, dphi0):
    """One secant step toward the exact line minimum after a Wolfe accept.

    Exact when the objective is quadratic along the line, which is what lets
    the outer loop terminate finitely on quadratics. Kept only if it still
    satisfies strong Wolfe and does not increase the value.
    """
    if abs(dphi) <= 1e-3 * abs(dphi0):
        return None  # already essentially a line minimum
    denom = dphi - dphi_prev
    if denom == 0.0 or not np.isfinite(denom):
        return None
    alpha_p = alpha - dphi * (alpha - alpha_prev) / denom
    if not np.isfinite(alpha_p) or alpha_p <= 0.0 or alpha_p > 1e10:
        return None
    res = budget(alpha_p)
    if res is None:
        return None
    phi_p, dphi_p, fe_p = res
    if (np.isfinite(phi_p) and phi_p <= phi
            and phi_p <= phi0 + C1 * alpha_p * dphi0
            and abs(dphi_p) <= -C2 * dphi0):
        return alpha_p, fe_p
    return None


def _wolfe_line_search(objective, x, fe0: ObjectiveEval, d):
    """Find alpha satisfying the strong Wolfe conditions along d.

    Returns (alpha, ObjectiveEval at x + alpha d) or None on failure.
    """
    phi0 = fe0.value
    dphi0 = float(fe0.gradient @ d)
    if dphi0 >= 0.0:
        return None  # not a descent direction
    budget = _EvalBudget(objective, x, d, MAX_LINE_EVALS)
    alpha_prev, phi_prev, dphi_prev = 0.0, phi0, dphi0
    alpha = 1.0
    alpha_cap = 1e10
    first = True
    while True:
        res = budget(alpha)
        if res is None:
            return None
        phi, dphi, fe = res
        if not np.isfinite(phi):
            alpha = 0.5 * (alpha_prev + alpha)
            continue
        if phi > phi0 + C1 * alpha * dphi0 or (not first and phi >= phi_prev):
            return _zoom(budget, alpha_prev, phi_prev, dphi_prev, alpha, phi, dphi,
                         phi0, dphi0)
        if abs(dphi) <= -C2 * dphi0:
            polished = _secant_polish(budget, alpha_prev, dphi_prev, alpha, phi, dphi,
                                      phi0, dphi0)
            return polished if polished is not None else (alpha, fe)
        if dphi >= 0.0:
            return _zoom(budget, alpha, phi, dphi, alpha_prev, phi_prev, dphi_prev,
                         phi0, dphi0)
        alpha_prev, phi_prev, dphi_prev = alpha, phi, dphi
        if alpha >= alpha_cap:
            return None
        alpha = min(2.0 * alpha, alpha_cap)
        first = False


def _two_loop(grad, pairs):
    """L-BFGS two-loop recursion; returns the descent direction."""
    q = grad.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        a = rho * (s @ q)
        alphas.append(a)
        q -= a * y
    if pairs:
        s, y, _ = pairs[-1]
        gamma = (s @ y) / (y @ y)
    else:
        gamma = 1.0
    r = gamma * q
    for (s, y, rho), a in zip(pairs, reversed(alphas)):
        b = rho * (y @ r)
        r += (a - b) * s
    return -r


def _backtrack(objective, x, fe0: ObjectiveEval):
    """Armijo backtracking along steepest descent. Returns (x_new, fe) or None."""
    g = fe0.gradient
    gg = float(g @ g)
    alpha = 1.0
    for _ in range(50):
        x_new = x - alpha * g
        fe = objective(x_new)
        if np.isfinite(fe.value) and fe.value <= fe0.value - C1 * alpha * gg:
            return x_new, fe
        alpha *= 0.5
    return None


def lbfgs_minimize(objective: Objective, x0):
    """Minimize a smooth objective from x0.

    Returns (x, iterations, converged); converged means the infinity norm of
    the gradient reached GRAD_TOL within MAX_ITERS iterations. Non-finite
    objective values terminate the run at the last accepted iterate, which
    is also the best, since accepted steps never increase the objective.
    """
    x = np.array(x0, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"x0 must be a vector, got shape {x.shape}")
    fe = objective(x)
    if not np.isfinite(fe.value) or not np.all(np.isfinite(fe.gradient)):
        return x, 0, False
    if np.max(np.abs(fe.gradient)) <= GRAD_TOL:
        return x, 0, True
    pairs: list = []
    for it in range(1, MAX_ITERS + 1):
        d = _two_loop(fe.gradient, pairs)
        if not np.all(np.isfinite(d)) or float(d @ fe.gradient) >= 0.0:
            pairs.clear()
            d = -fe.gradient
        found = _wolfe_line_search(objective, x, fe, d)
        if found is None:
            pairs.clear()
            fallback = _backtrack(objective, x, fe)
            if fallback is None:
                return x, it - 1, False
            x_new, fe_new = fallback
        else:
            alpha, fe_new = found
            x_new = x + alpha * d
        if not np.isfinite(fe_new.value) or not np.all(np.isfinite(fe_new.gradient)):
            return x, it, False
        s = x_new - x
        y = fe_new.gradient - fe.gradient
        sy = float(s @ y)
        if sy > 1e-10 * np.linalg.norm(s) * np.linalg.norm(y):
            pairs.append((s, y, 1.0 / sy))
            if len(pairs) > HISTORY_SIZE:
                pairs.pop(0)
        x, fe = x_new, fe_new
        if np.max(np.abs(fe.gradient)) <= GRAD_TOL:
            return x, it, True
    return x, MAX_ITERS, False
