"""Right-censored proportional hazards on a discrete time grid.

Outcome: (delta, time index, covariate index). Event probabilities take the
exponential-form likelihood literally, so they normalize only up to a
deficit of order (total hazard mass)^2; the default masses are scaled so
the deficit sits far below the enumeration engine's gate.

The second-derivative block of the outer function vanishes, hence the
information operator is plain multiplication. Its multiplier gamma and the
adjoint of the parameter score have short closed forms over the outcome
law, recorded here as references.
"""
from collections import namedtuple

import numpy as np

from ..calculus import Category
from ..likelihood import ModelComponents, ModelState, TangentKind
from .base import (finish, positive_measure, require_flag,
                   require_theta)

RcObs = namedtuple("RcObs", ["delta", "time_index", "z_index"])

GRID_POINTS = (1.0, 2.0, 3.0)
TAU = 3.0
MASS_PROFILE = (1.0, 1.5, 2.0)
MASS_SCALE = 2e-6
CENSOR_PMF = (0.2, 0.3, 0.5)


def build(theta=np.log(2.0), mass_scale=MASS_SCALE,
          duplicated_covariate=False):
    """Construct the model. ``theta = 0.0`` gives the independence toy
    whose least favorable direction is constant 1/2.

    ``duplicated_covariate=True`` doubles the scalar covariate into two
    identical coordinates; the model then carries a flat direction and the
    joint identifiability check must report a zero eigenvalue.
    """
    th = require_theta(theta, 1)
    if require_flag("duplicated_covariate", duplicated_covariate):
        z_levels = np.array([[0.0, 0.0], [1.0, 1.0]])
        th = np.array([0.3, 0.4])
    else:
        z_levels = np.array([[0.0], [1.0]])
    p = z_levels.shape[1]
    pz = np.array([0.5, 0.5])
    cprob = np.array(CENSOR_PMF)
    cbar = np.flip(np.cumsum(np.flip(cprob)))
    w = mass_scale * np.array(MASS_PROFILE)
    m = w.size

    eta = positive_measure(GRID_POINTS, w, TAU)
    state = ModelState(theta=th, eta=eta)

    def r(theta, o):
        base = np.log(pz[o.z_index])
        base += np.log(cbar[o.time_index]) if o.delta else np.log(cprob[o.time_index])
        return base + o.delta * float(theta @ z_levels[o.z_index])

    def r_dot(theta, o):
        return o.delta * z_levels[o.z_index]

    def g(theta, o, pts):
        ez = np.exp(float(theta @ z_levels[o.z_index]))
        return ez * (np.arange(pts.size) <= o.time_index)

    def g_dot(theta, o, pts):
        return np.outer(g(theta, o, pts), z_levels[o.z_index])

    def f(x, o):
        return -x

    def f_dot(x, o):
        return -1.0

    def f_ddot(x, o):
        return 0.0

    def ell(vals, o):
        return vals[o.time_index] if o.delta else 0.0

    components = ModelComponents(
        p=p, tangent=TangentKind.L2, r=r, r_dot=r_dot, g=g, g_dot=g_dot,
        f=f, f_dot=f_dot, f_ddot=f_ddot, ell=ell,
        label="cox_rc",
    )

    outcomes = [RcObs(delta, i, zi)
                for zi in range(z_levels.shape[0])
                for delta in (1, 0)
                for i in range(m)]

    # References straight from the outcome law: at-risk averages of the
    # relative hazard, with and without the covariate factor.
    W = np.cumsum(w)
    gamma_ref = np.zeros(m)
    adjoint_ref = np.zeros((m, p))
    for zi in range(z_levels.shape[0]):
        c = np.exp(float(th @ z_levels[zi]))
        atoms = cbar * w * c * np.exp(-c * W) + cprob * np.exp(-c * W)
        at_risk = np.flip(np.cumsum(np.flip(atoms)))
        gamma_ref += pz[zi] * c * at_risk
        adjoint_ref += pz[zi] * c * np.outer(at_risk, z_levels[zi])
    references = {
        "gamma": gamma_ref,
        "alpha": adjoint_ref.copy(),
        "kappa": np.zeros((m, m)),
        "beta": np.zeros((m, m, p)),
        "adjoint": adjoint_ref,
        "lfd": adjoint_ref / gamma_ref[:, np.newaxis],
    }

    return finish(
        "cox_rc", components, state, outcomes, references,
        expected_category=Category.INVERTIBLE_MULTIPLIER,
        adjoint_tol=1e-9,
        notes="tiny-mass design; enumeration deficit ~2e-11 at the default scale",
    )
