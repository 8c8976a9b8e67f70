"""Finite mixture with an unknown mixing distribution.

The observation is a count x; the mixing weights over the latent grid are
the unknown measure, so the tangent space is mean-zero and the measure is
a probability. The kernel is a discretized Gaussian in x - z - theta,
column-normalized over the observed values, with theta an optional
location shift (drop it via ``parametric=False`` to study functionals of
the mixing measure alone).

With no point-mass factor the multiplier vanishes; the information
operator is a smooth first-kind kernel, the canonical ill-posed case. On
the default four-point latent grid it is still comfortably invertible;
``m`` refines the latent grid past the rank its five outcomes allow
(four, on the mean-zero tangent), and the solve then keeps only the
singular values above its rank cut.

``constant_kernel=True`` removes the x dependence on z entirely: the
measure then moves nothing and the joint identifiability check must
report a zero eigenvalue.
"""
from collections import namedtuple

import numpy as np

from ..calculus import Category
from ..likelihood import ModelComponents, ModelState, TangentKind
from .base import (finish, power, probability_measure, require_count,
                   require_flag, require_theta)

MixObs = namedtuple("MixObs", ["x"])

LATENT_POINTS = (0.5, 1.5, 2.5, 3.5)
TAU = 4.0
X_VALUES = (0, 1, 2, 3, 4)


def _kernel_moment(k, right, marg):
    """sum_x k[x, v] right[x, u] / marg[x], the (v, u) kernel moment."""
    return np.einsum("xv,xu,x->vu", k, right, 1.0 / marg)


def build(theta=0.3, parametric=True, m=None, constant_kernel=False):
    parametric = require_flag("parametric", parametric)
    constant_kernel = require_flag("constant_kernel", constant_kernel)
    if m is not None:
        m = require_count("m", m, 1)
    xs = np.array(X_VALUES, dtype=float)
    if m is None:
        points = np.array(LATENT_POINTS)
        weights = np.full(points.size, 1.0 / points.size)
    else:
        points = np.linspace(0.2, 3.8, m)
        raw = np.exp(-0.5 * (points - 2.0) ** 2)
        weights = raw / np.sum(raw)
    npts = points.size
    p = 1 if parametric else 0
    th = require_theta(theta, 1)[:p]

    def kernel(theta_arr, pts):
        """Kernel matrix k[x_index, v], each column summing to 1 over x."""
        shift = theta_arr[0] if parametric else 0.0
        centers = 2.0 if constant_kernel else pts
        raw = np.exp(-0.5 * (xs[:, np.newaxis] - centers - shift) ** 2)
        raw = np.broadcast_to(raw, (xs.size, pts.size))
        return raw / np.sum(raw, axis=0)

    def kernel_dot(theta_arr, pts):
        """d kernel / d theta, same shape."""
        k = kernel(theta_arr, pts)
        shift = theta_arr[0]
        centers = 2.0 if constant_kernel else pts
        dev = xs[:, np.newaxis] - centers - shift
        dev = np.broadcast_to(dev, k.shape)
        return k * (dev - np.sum(k * dev, axis=0))

    eta = probability_measure(points, weights, TAU)
    state = ModelState(theta=th, eta=eta)

    def r(theta, o):
        return np.zeros(o.x.size)

    def r_dot(theta, o):
        return np.zeros((o.x.size, p))

    def g(theta, o, pts):
        return kernel(theta, pts)[o.x]

    def g_dot(theta, o, pts):
        if not parametric:
            return np.zeros((o.x.size, pts.size, 0))
        return kernel_dot(theta, pts)[o.x][:, :, np.newaxis]

    def f(x, o):
        return np.log(x)

    def f_dot(x, o):
        return 1.0 / x

    def f_ddot(x, o):
        return -1.0 / power(x, 2)

    components = ModelComponents(
        p=p, tangent=TangentKind.L2_ZERO, r=r, r_dot=r_dot, g=g, g_dot=g_dot,
        f=f, f_dot=f_dot, f_ddot=f_ddot, ell=None,
        label="mixture",
    )

    outcomes = [MixObs(int(x)) for x in X_VALUES]

    k = kernel(th, points)
    marg = k @ weights

    def references():
        kappa_ref = _kernel_moment(k, k, marg)
        if parametric:
            kd = kernel_dot(th, points)
            alpha_ref = np.zeros((npts, 1))
            beta_ref = _kernel_moment(k, kd, marg)[:, :, np.newaxis]
            marg_dot = kd @ weights
            adj_raw = k.T @ (marg_dot / marg)
            adjoint_ref = (adj_raw - weights @ adj_raw)[:, np.newaxis]
        else:
            alpha_ref = np.zeros((npts, 0))
            beta_ref = np.zeros((npts, npts, 0))
            adjoint_ref = np.zeros((npts, 0))
        return {
            "gamma": np.zeros(npts),
            "alpha": alpha_ref,
            "kappa": kappa_ref,
            "beta": beta_ref,
            "adjoint": adjoint_ref,
        }

    return finish(
        "mixture", components, state, outcomes, references,
        expected_category=Category.VANISHING_MULTIPLIER,
        adjoint_tol=1e-10,
        notes="exactly normalized; smooth first-kind kernel",
        extras={"kernel": k, "marginal": marg},
    )
