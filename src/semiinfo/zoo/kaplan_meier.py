"""Random right censoring with no covariate and no parametric part.

The information operator degenerates to multiplication by the at-risk
probability pi, so everything has closed form: the operator itself, its
inverse, and the efficient influence of the survival probability at any
grid point, which takes the classic centered-counting-process shape

    -S(t) * (1{delta=1, x <= t} / pi(x) - sum_{u_i <= min(x, t)} w_i / pi(u_i)).

A ClosedForm engine built on one structural callable serves the
structural functions analytically at the build state (elsewhere it
raises NotAvailableError); the exact enumeration engine is still
attached for cross-checks.
"""
from collections import namedtuple

import numpy as np

from ..calculus import Category
from ..engines import ClosedForm, StructuralFunctions
from ..likelihood import ModelComponents, ModelState, TangentKind
from .base import check_state, finish, positive_measure

KmObs = namedtuple("KmObs", ["delta", "time_index"])

GRID_POINTS = (1.0, 2.0, 3.0)
TAU = 3.0
MASS_PROFILE = (1.0, 1.5, 2.0)
MASS_SCALE = 2e-6
CENSOR_PMF = (0.2, 0.3, 0.5)


def build(mass_scale=MASS_SCALE, zero_mass_point=False):
    """``zero_mass_point=True`` inserts a dead grid cell between the
    second and third atoms; solves must restrict to the support."""
    if zero_mass_point:
        points = np.array([1.0, 2.0, 2.5, 3.0])
        profile = np.array([1.0, 1.5, 0.0, 2.0])
        cprob = np.array([0.2, 0.3, 0.0, 0.5])
    else:
        points = np.array(GRID_POINTS)
        profile = np.array(MASS_PROFILE)
        cprob = np.array(CENSOR_PMF)
    w = mass_scale * profile
    m = w.size
    cbar = np.flip(np.cumsum(np.flip(cprob)))
    with np.errstate(divide="ignore"):
        log_cprob = np.log(cprob)
        log_cbar = np.log(cbar)

    eta = positive_measure(points, w, TAU)
    state = ModelState(theta=np.zeros(0), eta=eta)

    def r(theta, o):
        return log_cbar[o.time_index] if o.delta else log_cprob[o.time_index]

    def r_dot(theta, o):
        return np.zeros(0)

    def g(theta, o, pts):
        return (np.arange(pts.size) <= o.time_index).astype(float)

    def g_dot(theta, o, pts):
        return np.zeros((pts.size, 0))

    def f(x, o):
        return -x

    def f_dot(x, o):
        return -1.0

    def f_ddot(x, o):
        return 0.0

    def ell(vals, o):
        # Guard, not optimization: vals may hold -inf log masses at dead
        # cells and 0 * -inf is NaN.
        return vals[o.time_index] if o.delta else 0.0

    components = ModelComponents(
        p=0, tangent=TangentKind.L2, r=r, r_dot=r_dot, g=g, g_dot=g_dot,
        f=f, f_dot=f_dot, f_ddot=f_ddot, ell=ell,
        label="kaplan_meier",
    )

    outcomes = [KmObs(delta, i) for delta in (1, 0) for i in range(m)]

    # At-risk probability per grid point, straight from the censoring
    # design: pi(u_v) = P(event or censoring lands at index >= v).
    W = np.cumsum(w)
    atoms = cbar * w * np.exp(-W) + cprob * np.exp(-W)
    pi = np.flip(np.cumsum(np.flip(atoms)))

    def survival(t):
        return float(np.exp(-np.sum(w[points <= t])))

    def chi_dot(t):
        return -survival(t) * (points <= t).astype(float)

    def influence_ref(t):
        s_t = survival(t)
        live = w > 0.0

        def fn(o):
            x = points[o.time_index]
            upto = (points <= min(x, t)) & live
            comp = float(np.sum(w[upto] / pi[upto]))
            jump = o.delta * (x <= t) / pi[o.time_index]
            return -s_t * (jump - comp)

        return fn

    def lfd_ref(t):
        # Division by the at-risk multiplier; meaningful only where the
        # hazard measure has mass, so compare on the support.
        return chi_dot(t) / pi

    references = {
        "gamma": pi,
        "alpha": np.zeros((m, 0)),
        "kappa": np.zeros((m, m)),
        "beta": np.zeros((m, m, 0)),
        "adjoint": np.zeros((m, 0)),
        "pi": pi,
        "survival": survival,
        "chi_dot": chi_dot,
        "influence": influence_ref,
        "lfd": lfd_ref,
    }

    def closed_structural(c, s):
        check_state(model, s)
        zeros = np.zeros
        return StructuralFunctions(
            gamma=pi.copy(), alpha=zeros((m, 0)), kappa=zeros((m, m)),
            beta=zeros((m, m, 0)), se_gamma=zeros(m), se_alpha=zeros((m, 0)),
            se_kappa=zeros((m, m)), se_beta=zeros((m, m, 0)),
            engine="closed",
        )

    model = finish(
        "kaplan_meier", components, state, outcomes, references,
        expected_category=Category.INVERTIBLE_MULTIPLIER,
        adjoint_tol=1e-9,
        notes="tiny-mass design; pi reference is exact for the literal "
              "exponential-form outcome law",
        extras={"closed_engine": ClosedForm(closed_structural)},
    )
    return model
