"""Recurrent events with a transformed cumulative intensity.

Counts at two grid points, censoring at either point, and an increasing
transform G applied to the integrated at-risk intensity. The two integral
functionals (one per grid point) are stacked, so this is the d = 2
exercise for the calculus: the outer function mixes event counts with the
survival factor and its Hessian is diagonal but nonzero when G is not the
identity.

The multiplier has a one-line simplification: gamma(u_v) equals the mean
of at-risk(u_v) * relative hazard * Gdot evaluated at the left limit of
the integrated intensity. The left limit matters: with the inclusive
convention the simplification misses terms of first order in the atom
masses, far above the enumeration deficit.
"""
import math
from collections import namedtuple

import numpy as np

from ..calculus import Category
from ..likelihood import ModelComponents, ModelState, TangentKind
from .base import finish, positive_measure, power, require_theta

RecObs = namedtuple("RecObs", ["z_index", "c_index", "d1", "d2"])

GRID_POINTS = (1.0, 2.0)
TAU = 2.0
MASS_PROFILE = (1.0, 0.8)
MASS_SCALE = 2e-6
CENSOR_PMF = (0.3, 0.7)
CAP = 2

# log(d! ) for the counts 0..CAP.
LOG_FACTORIAL = np.array([math.lgamma(k + 1) for k in range(CAP + 1)])

TRANSFORMS = {
    "identity": (
        lambda x: x,
        np.ones_like,
        np.zeros_like,
        np.zeros_like,
    ),
    "log1p": (
        np.log1p,
        lambda x: 1.0 / (1.0 + x),
        lambda x: -1.0 / power(1.0 + x, 2),
        lambda x: 2.0 / power(1.0 + x, 3),
    ),
}


def build(theta=np.log(2.0), transform="log1p", mass_scale=MASS_SCALE):
    if transform not in TRANSFORMS:
        raise KeyError(f"unknown transform {transform!r}; "
                       f"choose from {sorted(TRANSFORMS)}")
    G, Gd, Gdd, Gddd = TRANSFORMS[transform]
    th = require_theta(theta, 1)
    z_levels = np.array([0.0, 1.0])
    pz = np.array([0.5, 0.5])
    pc = np.array(CENSOR_PMF)
    w = mass_scale * np.array(MASS_PROFILE)
    m = w.size

    eta = positive_measure(GRID_POINTS, w, TAU)
    state = ModelState(theta=th, eta=eta)

    def hp(t):
        return (Gddd(t) * Gd(t) - power(Gdd(t), 2)) / power(Gd(t), 2)

    def r(theta, o):
        return (np.log(pz[o.z_index]) + np.log(pc[o.c_index])
                + (o.d1 + o.d2) * theta[0] * z_levels[o.z_index]
                - LOG_FACTORIAL[o.d1] - LOG_FACTORIAL[o.d2])

    def r_dot(theta, o):
        return ((o.d1 + o.d2) * z_levels[o.z_index])[:, np.newaxis]

    # g[n, v, t] = relative hazard * at-risk(u_v) * 1(u_v <= u_t), where
    # Y(u_1) = 1 always and Y(u_2) requires censoring at the later point.
    upper = np.arange(m)[:, np.newaxis] <= np.arange(m)

    def g(theta, o, pts):
        ez = np.exp(theta[0] * z_levels[o.z_index])
        Y = np.column_stack((np.ones(ez.size), o.c_index >= 1))
        return ez[:, np.newaxis, np.newaxis] * Y[:, :, np.newaxis] * upper

    def g_dot(theta, o, pts):
        return g(theta, o, pts)[..., np.newaxis] \
            * z_levels[o.z_index][:, np.newaxis, np.newaxis, np.newaxis]

    def f(x, o):
        return (o.d1 * np.log(Gd(x[:, 0])) + o.d2 * np.log(Gd(x[:, 1]))
                - G(x[:, 1]))

    def f_dot(x, o):
        x1, x2 = x[:, 0], x[:, 1]
        return np.column_stack((o.d1 * (Gdd(x1) / Gd(x1)),
                                o.d2 * (Gdd(x2) / Gd(x2)) - Gd(x2)))

    def f_ddot(x, o):
        out = np.zeros(x.shape + (2,), x.dtype)
        out[:, 0, 0] = o.d1 * hp(x[:, 0])
        out[:, 1, 1] = o.d2 * hp(x[:, 1]) - Gdd(x[:, 1])
        return out

    def ell(vals, o):
        return o.d1[:, np.newaxis] * vals[0] + o.d2[:, np.newaxis] * vals[1]

    components = ModelComponents(
        p=1, tangent=TangentKind.L2, r=r, r_dot=r_dot, g=g, g_dot=g_dot,
        f=f, f_dot=f_dot, f_ddot=f_ddot, ell=ell, gdim=2,
        label=f"recurrent[{transform}]",
    )

    outcomes = []
    for zi in range(z_levels.size):
        for ci in range(pc.size):
            for d1 in range(CAP + 1):
                for d2 in range(CAP + 1 - d1):
                    if d2 > 0 and ci < 1:
                        continue
                    outcomes.append(RecObs(zi, ci, d1, d2))

    def references():
        # Post-simplification references: the intensity cumulative is a
        # deterministic function of (z, c) and the counts enter only
        # through their conditional means, so every average collapses to
        # four terms. gamma and alpha use left limits of the cumulative;
        # the kernel keeps the first-order count-mean term explicitly
        # because it does not telescope away.
        gamma_ref = np.zeros(m)
        alpha_ref = np.zeros((m, 1))
        kappa_ref = np.zeros((m, m))
        beta_ref = np.zeros((m, m, 1))
        vmax = np.maximum(np.arange(m)[:, np.newaxis], np.arange(m))
        for zi in range(z_levels.size):
            z = z_levels[zi]
            ez = np.exp(float(th[0]) * z)
            for ci in range(pc.size):
                Y = np.array([1.0, 1.0 if ci >= 1 else 0.0])
                S = ez * np.cumsum(Y * w)
                S_left = np.concatenate(([0.0], S[:-1]))
                gamma_ref += pz[zi] * pc[ci] * Y * ez * Gd(S_left)
                alpha_ref[:, 0] += pz[zi] * pc[ci] * z * Y * ez * Gd(S_left)
                counts_mean = Gd(S) * ez * w * Y
                tail = np.flip(np.cumsum(np.flip(counts_mean * hp(S))))
                bracket = Gdd(S[-1]) - tail
                block = (pz[zi] * pc[ci] * ez ** 2 * np.outer(Y, Y)
                         * bracket[vmax])
                kappa_ref += block
                beta_ref[:, :, 0] += z * block

        return {
            "gamma": gamma_ref,
            "alpha": alpha_ref,
            "kappa": kappa_ref,
            "beta": beta_ref,
            "adjoint": alpha_ref + np.einsum("vuj,u->vj", beta_ref, w),
        }

    return finish(
        f"recurrent[{transform}]", components, state, outcomes, references,
        expected_category=Category.INVERTIBLE_MULTIPLIER,
        adjoint_tol=1e-9,
        notes="tiny-mass design; the gamma simplification is first order "
              "in the atom masses, so it is a reference only at small scale",
    )
