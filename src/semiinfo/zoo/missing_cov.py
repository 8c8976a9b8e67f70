"""Binary outcome with a covariate that is sometimes only partially
observed: a selection indicator decides whether Z itself or only a
coarsening cell of Z is recorded.

The covariate distribution is the unknown probability measure, so the
tangent space is mean-zero. When the covariate is observed the likelihood
contributes a point mass (L(a) = a(Z)); when it is missing the
contribution is an integral of the outcome kernel over the cell, which is
where the second-derivative kernel comes from.

Structural closed forms, with q(y, x) the within-cell marginal of the
outcome kernel and pdot the kernel's theta gradient:

    gamma(v)    = sum_y sel(y, cell(v)) p(y | v)
    alpha(v)    = sum_y sel(y, cell(v)) pdot(y | v)
    kappa(v, u) = 1{cell(v) = cell(u)} sum_y (1 - sel) p(y|v) p(y|u) / q
    beta(v, u)  = 1{cell(v) = cell(u)} sum_y (1 - sel) p(y|v) pdot(y|u) / q

``invertibility_conditions`` checks the sufficient conditions for the
efficient information operator to be boundedly invertible: selection
probabilities bounded away from zero (equivalently the multiplier gamma),
positive definite full-data outcome information within every coarsening
cell, and a positive definite efficient information as the conclusion.
"""
from collections import namedtuple

import numpy as np

from ..calculus import (Category, adjoint_of_score, efficient_information,
                        fisher_information, least_favorable_direction)
from ..engines import structural_functions
from ..likelihood import ModelComponents, ModelState, TangentKind
from ..operators import min_eigen_sym
from .base import (finish, probability_measure, require_flag,
                   require_theta)

MisObs = namedtuple("MisObs", ["observed", "y", "k"])

# Condition (a)'s floor on the selection probabilities and gamma, and the
# floor on the minimum eigenvalues of condition (b) and the conclusion.
MIN_SELECTION = 1e-3
INFO_TOL = 1e-10


def _expit(x):
    return 1.0 / (1.0 + np.exp(-x))


def build(theta=(0.2, -0.3), zero_cell=False, degenerate_z=False,
          selection=None):
    """Four support points in two coarsening cells by default.

    ``zero_cell=True`` zeroes the selection probability on a three-point
    cell, which kills condition (a) and leaves one genuinely flat
    measure direction. ``degenerate_z=True`` keeps the support but makes
    the covariate value constant within each cell, which kills the
    within-cell information condition. ``selection`` overrides the
    selection probabilities, either as a mapping keyed by (y, cell)
    tuples or by "y,cell" strings, or as a single number applied to
    every cell (1.0 recovers the fully observed model).
    """
    zero_cell = require_flag("zero_cell", zero_cell)
    degenerate_z = require_flag("degenerate_z", degenerate_z)
    th = require_theta(theta, 2)
    if zero_cell:
        points = np.array([0.8, 1.4, 2.0, 2.6, 3.0])
        weights = np.array([0.2, 0.2, 0.2, 0.2, 0.2])
        cells = np.array([0, 0, 1, 1, 1])
        sel = {(0, 0): 0.4, (1, 0): 0.7, (0, 1): 0.0, (1, 1): 0.0}
    else:
        points = np.array([1.0, 2.0, 2.5, 3.0])
        weights = np.array([0.3, 0.2, 0.2, 0.3])
        cells = np.array([0, 0, 1, 1])
        sel = {(0, 0): 0.4, (1, 0): 0.7, (0, 1): 0.5, (1, 1): 0.3}
    if degenerate_z:
        if zero_cell:
            raise ValueError("zero_cell and degenerate_z are separate "
                             "failure designs; pick one")
        zvals = np.array([1.5, 1.5, 2.75, 2.75])
    else:
        zvals = points.copy()
    m = points.size
    ncells = int(np.max(cells)) + 1
    if selection is not None:
        if np.isscalar(selection):
            sel = {key: float(selection) for key in sel}
        else:
            sel = dict(sel)
            for key, val in dict(selection).items():
                if isinstance(key, str):
                    y, cell = (int(part) for part in key.split(","))
                else:
                    y, cell = (int(part) for part in key)
                if (y, cell) not in sel:
                    raise ValueError(f"no coarsening cell ({y}, {cell})")
                sel[(y, cell)] = float(val)
        for key, val in sel.items():
            if not 0.0 <= val <= 1.0:
                raise ValueError(
                    f"selection probability {val} for {key} outside [0, 1]")
    with np.errstate(divide="ignore"):
        log_sel = {key: np.log(val) for key, val in sel.items()}
        log1m_sel = {key: np.log1p(-val) for key, val in sel.items()}

    def p_y(theta, y):
        """Outcome kernel on the grid, shape (m,)."""
        p1 = _expit(theta[0] + theta[1] * zvals)
        return p1 if y == 1 else 1.0 - p1

    def p_y_dot(theta, y):
        """Theta gradient of the kernel, shape (m, 2)."""
        p1 = _expit(theta[0] + theta[1] * zvals)
        resid = y - p1
        base = p_y(theta, y)
        return (base * resid)[:, np.newaxis] * np.column_stack(
            (np.ones(m), zvals))

    def cell_of(o):
        return int(cells[o.k]) if o.observed else o.k

    def r(theta, o):
        if o.observed:
            p1 = _expit(float(theta[0] + theta[1] * zvals[o.k]))
            py = p1 if o.y == 1 else 1.0 - p1
            return log_sel[(o.y, int(cells[o.k]))] + float(np.log(py))
        return float(log1m_sel[(o.y, o.k)])

    def r_dot(theta, o):
        if o.observed:
            p1 = _expit(float(theta[0] + theta[1] * zvals[o.k]))
            return (o.y - p1) * np.array([1.0, zvals[o.k]])
        return np.zeros(2)

    def g(theta, o, pts):
        return p_y(theta, o.y) * (cells == cell_of(o))

    def g_dot(theta, o, pts):
        return p_y_dot(theta, o.y) * (cells == cell_of(o))[:, np.newaxis]

    def f(x, o):
        return 0.0 if o.observed else float(np.log(x))

    def f_dot(x, o):
        return 0.0 if o.observed else 1.0 / x

    def f_ddot(x, o):
        return 0.0 if o.observed else -1.0 / x ** 2

    def ell(vals, o):
        return vals[o.k] if o.observed else 0.0

    components = ModelComponents(
        p=2, tangent=TangentKind.L2_ZERO, r=r, r_dot=r_dot, g=g, g_dot=g_dot,
        f=f, f_dot=f_dot, f_ddot=f_ddot, ell=ell,
        label="missing_cov",
    )

    eta = probability_measure(points, weights, 3.0)
    state = ModelState(theta=th, eta=eta)

    outcomes = [MisObs(1, y, i) for y in (0, 1) for i in range(m)]
    outcomes += [MisObs(0, y, x) for y in (0, 1) for x in range(ncells)]

    sel_grid = {y: np.array([sel[(y, int(cells[i]))] for i in range(m)])
                for y in (0, 1)}
    same_cell = cells[:, np.newaxis] == cells
    gamma_ref = np.zeros(m)
    alpha_ref = np.zeros((m, 2))
    kappa_ref = np.zeros((m, m))
    beta_ref = np.zeros((m, m, 2))
    for y in (0, 1):
        py = p_y(th, y)
        pd = p_y_dot(th, y)
        gamma_ref += sel_grid[y] * py
        alpha_ref += sel_grid[y][:, np.newaxis] * pd
        q = np.array([np.sum(py[cells == x] * weights[cells == x])
                      for x in range(ncells)])
        q_on_grid = q[cells]
        one_minus = 1.0 - sel_grid[y]
        kappa_ref += same_cell * np.outer(py, py) * (one_minus / q_on_grid)
        beta_ref += (same_cell[:, :, np.newaxis] * py[:, np.newaxis, np.newaxis]
                     * pd[np.newaxis, :, :]
                     * (one_minus / q_on_grid)[:, np.newaxis, np.newaxis])

    adj_raw = alpha_ref + np.einsum("vuj,u->vj", beta_ref, weights)
    adjoint_ref = adj_raw - weights @ adj_raw

    references = {
        "gamma": gamma_ref,
        "alpha": alpha_ref,
        "kappa": kappa_ref,
        "beta": beta_ref,
        "adjoint": adjoint_ref,
        "selection_mean": float(sum(
            sel[(y, int(cells[i]))] * p_y(th, y)[i] * weights[i]
            for y in (0, 1) for i in range(m))),
    }

    return finish(
        "missing_cov", components, state, outcomes, references,
        expected_category=Category.INVERTIBLE_MULTIPLIER,
        adjoint_tol=1e-10,
        notes="exactly normalized",
        extras={"cells": cells, "zvals": zvals, "selection": dict(sel)},
    )


def invertibility_conditions(model):
    """Sufficient conditions for a boundedly invertible efficient
    information operator, returned as (holds, diagnostics).

    Checked in order: (a) selection probabilities, and with them the
    multiplier gamma, bounded away from zero; (b) the full-data outcome
    information positive definite within every coarsening cell; then the
    conclusion, a positive definite efficient parameter information.
    """
    c, s = model.components, model.state
    cells = model.extras["cells"]
    sel = model.extras["selection"]
    weights = s.eta.masses

    sf = structural_functions(model.exact, c, s)
    min_sel = min(sel.values())
    gamma_min = float(np.min(sf.gamma))
    cond_a = {
        "holds": bool(min(min_sel, gamma_min) >= MIN_SELECTION),
        "min_selection": float(min_sel),
        "gamma_min": gamma_min,
        "threshold": MIN_SELECTION,
    }

    per_cell = {}
    for x in sorted(set(int(v) for v in cells)):
        mask = cells == x
        wcell = weights[mask] / np.sum(weights[mask])
        info = np.zeros((2, 2))
        for y in (0, 1):
            for zi, wz in zip(np.flatnonzero(mask), wcell):
                sc = model.components.r_dot(s.theta, MisObs(1, y, int(zi)))
                p1 = _expit(float(s.theta[0]
                                  + s.theta[1] * model.extras["zvals"][zi]))
                py = p1 if y == 1 else 1.0 - p1
                info += wz * py * np.outer(sc, sc)
        per_cell[x] = float(min_eigen_sym(info))
    cond_b = {
        "holds": bool(min(per_cell.values()) > INFO_TOL),
        "min_eigen_by_cell": per_cell,
        "tol": INFO_TOL,
    }

    diagnostics = {"selection_positivity": cond_a,
                   "cell_information": cond_b}
    if not (cond_a["holds"] and cond_b["holds"]):
        failing = [name for name, cond in diagnostics.items()
                   if not cond["holds"]]
        diagnostics["failing"] = failing
        return False, diagnostics

    fisher = fisher_information(model.exact, c, s)
    adjoint = adjoint_of_score(sf, s.eta, c.tangent)
    lfd = least_favorable_direction(sf, s.eta, c.tangent, adjoint)
    eff = efficient_information(model.exact, c, s, lfd.values, adjoint, fisher)
    eff_min = float(min_eigen_sym(eff.by_adjoint))
    diagnostics["efficient_information"] = {
        "holds": bool(eff_min > INFO_TOL),
        "min_eigen": eff_min,
        "tol": INFO_TOL,
    }
    holds = diagnostics["efficient_information"]["holds"]
    diagnostics["failing"] = [] if holds else ["efficient_information"]
    return holds, diagnostics
