"""Current-status proportional hazards: only an inspection time and the
indicator of whether the event already happened are observed.

Outcome: (delta, inspection index, covariate index). The likelihood has no
point-mass factor, so both multiplier-type structural functions vanish
identically and the information operator degenerates to a first-kind
integral equation in the second-derivative kernel.

The least favorable direction has no pointwise closed form, but its
running integral does: cumulative(lfd) must equal Lambda * zeta, where
zeta is a ratio of two at-risk style averages. On a refined grid zeta's
difference quotients also give a pointwise reference with a quantifiable
truncation error; ``truncation_bound`` records it per interior point.
"""
from collections import namedtuple

import numpy as np

from ..calculus import Category
from ..likelihood import ModelComponents, ModelState, TangentKind
from .base import finish, positive_measure, require_count, require_theta

CsObs = namedtuple("CsObs", ["delta", "u_index", "z_index"])


def _s_moments(theta, Lam, z_levels, pz):
    """Weighted at-risk averages s0, s1 with weight
    O(u, z) = e^{-x} / (1 - e^{-x}), x = e^{theta z} Lam(u)."""
    th = float(theta[0])
    z = z_levels
    s0 = np.empty(Lam.size)
    s1 = np.empty(Lam.size)
    for ui in range(Lam.size):
        x = np.exp(th * z) * Lam[ui]
        O = np.exp(-x) / (1.0 - np.exp(-x))
        s0[ui] = np.sum(pz * np.exp(2 * th * z) * O)
        s1[ui] = np.sum(pz * z * np.exp(2 * th * z) * O)
    return s0, s1


def build(theta=np.log(2.0), m=None):
    """Three-point toy by default; pass ``m`` for a refined design on
    [0, 3] with hazard rate 0.1 + 0.08 t at grid midpoints (at least
    two, which the difference-quotient reference needs)."""
    if m is not None:
        m = require_count("m", m, 2)
    th = require_theta(theta, 1)
    z_levels = np.array([0.0, 1.0])
    pz = np.array([0.5, 0.5])
    if m is None:
        points = np.array([1.0, 2.0, 3.0])
        dlam = np.array([0.2, 0.3, 0.4])
        tau = 3.0
    else:
        tau = 3.0
        h = tau / m
        points = (np.arange(m) + 0.5) * h
        dlam = (0.1 + 0.08 * points) * h
    npts = points.size
    pu = np.full(npts, 1.0 / npts)
    Lam = np.cumsum(dlam)

    eta = positive_measure(points, dlam, tau)
    state = ModelState(theta=th, eta=eta)

    def r(theta, o):
        return np.log(pu[o.u_index]) + np.log(pz[o.z_index])

    def r_dot(theta, o):
        return np.zeros(1)

    def g(theta, o, pts):
        ez = np.exp(float(theta[0]) * z_levels[o.z_index])
        return ez * (np.arange(pts.size) <= o.u_index)

    def g_dot(theta, o, pts):
        return np.outer(g(theta, o, pts), [z_levels[o.z_index]])

    def f(x, o):
        return float(np.log1p(-np.exp(-x))) if o.delta else -x

    def f_dot(x, o):
        if o.delta:
            e = np.exp(-x)
            return e / (1.0 - e)
        return -1.0

    def f_ddot(x, o):
        if o.delta:
            e = np.exp(-x)
            return -e / (1.0 - e) ** 2
        return 0.0

    components = ModelComponents(
        p=1, tangent=TangentKind.L2, r=r, r_dot=r_dot, g=g, g_dot=g_dot,
        f=f, f_dot=f_dot, f_ddot=f_ddot, ell=None,
        label="cox_cs",
    )

    outcomes = [CsObs(delta, ui, zi)
                for ui in range(npts)
                for zi in range(z_levels.size)
                for delta in (1, 0)]

    s0, s1 = _s_moments(th, Lam, z_levels, pz)
    zeta = s1 / s0

    # The kernel depends on its two slots only through their maximum:
    # kappa(v, u) = sum_{i >= max(v, u)} pu_i s0(u_i), and beta replaces
    # s0 with s1. Reverse cumulative sums give both at once.
    R0 = np.flip(np.cumsum(np.flip(pu * s0)))
    R1 = np.flip(np.cumsum(np.flip(pu * s1)))
    vmax = np.maximum(np.arange(npts)[:, np.newaxis], np.arange(npts))
    kappa_ref = R0[vmax]
    beta_ref = R1[vmax][:, :, np.newaxis]

    # Second differences of zeta bound the quotient reference's truncation
    # error on refined grids; endpoints get the worst interior bound.
    bound = np.abs(Lam[1:-1] * (zeta[2:] - 2 * zeta[1:-1] + zeta[:-2]))
    if bound.size:
        trunc = np.full(npts, float(np.max(bound)))
        trunc[1:-1] = bound
    else:
        trunc = np.full(npts, np.finfo(float).eps)

    def efficient_score_ref(o):
        z = z_levels[o.z_index]
        ez = np.exp(float(th[0]) * z)
        x = ez * Lam[o.u_index]
        fd = np.exp(-x) / (1.0 - np.exp(-x)) if o.delta else -1.0
        return fd * ez * Lam[o.u_index] * (z - zeta[o.u_index])

    # Pointwise solution via central difference quotients of zeta.  This
    # targets the continuous-time expression, so it agrees with the
    # discrete solver only to O(grid spacing); the backward-difference
    # form below is exact for the grid model because differencing the
    # cumulative identity recovers the direction cell by cell.
    rate = dlam / np.gradient(points)
    lfd_quotient = zeta + Lam * np.gradient(zeta, points) / rate
    lam_left = np.concatenate(([0.0], Lam[:-1]))
    lfd_exact = zeta + lam_left * np.diff(zeta, prepend=zeta[0]) / dlam

    references = {
        "gamma": np.zeros(npts),
        "alpha": np.zeros((npts, 1)),
        "kappa": kappa_ref,
        "beta": beta_ref,
        "adjoint": np.einsum("vuj,u->vj", beta_ref, dlam),
        "zeta": zeta,
        "cumulative_target": Lam * zeta,
        "truncation_bound": trunc,
        "efficient_score": efficient_score_ref,
        "lfd": lfd_quotient[:, np.newaxis],
        "lfd_exact": lfd_exact[:, np.newaxis],
    }

    return finish(
        "cox_cs", components, state, outcomes, references,
        expected_category=Category.VANISHING_MULTIPLIER,
        adjoint_tol=1e-10,
        notes="exactly normalized; multiplier vanishes, kernel equation is "
              "first kind",
        extras={"Lam": Lam},
    )
