"""The batched component contract: every zoo component is called once on
a table of N outcomes, row i of its output is what it gives outcome i
alone, a wrong (N, ...) shape is refused naming the component, and the
hand-written derivatives agree with complex-step derivatives of the
functions they differentiate."""
import dataclasses
import re

import numpy as np
import pytest

from semiinfo import zoo
from semiinfo.engines import outcome_law
from semiinfo.errors import DimensionError
from semiinfo.likelihood import g_values

# Every zoo model as built by default, then every build option that
# changes the form of a component or the grid's support.
BUILDS = [(model_id, {}) for model_id in zoo.MODELS] + [
    ("cox_cs", {"m": 20}),
    ("cox_rc", {"duplicated_covariate": True}),
    ("kaplan_meier", {"zero_mass_point": True}),
    ("missing_cov", {"zero_cell": True}),
    ("missing_cov", {"degenerate_z": True}),
    ("missing_cov", {"selection": 1.0}),
    ("mixture", {"parametric": False}),
    ("mixture", {"constant_kernel": True}),
    ("mixture", {"m": 30}),
    ("recurrent_transform", {"transform": "identity"}),
]
BUILD_IDS = [model_id + "".join(f"-{key}={value}"
                                for key, value in params.items())
             for model_id, params in BUILDS]


def _row(table, i):
    """The table of outcome i of ``table`` alone."""
    return type(table)._make(column[[i]] for column in table)


def _inputs(model):
    """The exact outcome table, theta, the grid points and the x each
    f-side component takes (an (N,) array when d == 1)."""
    c, s = model.components, model.state
    table = model.exact.table
    x = np.matmul(s.eta.masses, g_values(c, s, table))
    return table, s.theta, s.eta.grid.points, x[:, 0] if c.gdim == 1 else x


def _calls(model):
    """The exact outcome table, and a (name, call) pair per component:
    ``call(t, rows)`` calls it on table t, at the x of ``rows`` on the f
    side. L comes twice, on the (m, 1) log masses and on the (m, m)
    identity."""
    c, s = model.components, model.state
    table, theta, pts, x = _inputs(model)
    calls = [("r", lambda t, rows: c.r(theta, t)),
             ("r_dot", lambda t, rows: c.r_dot(theta, t)),
             ("g", lambda t, rows: c.g(theta, t, pts)),
             ("g_dot", lambda t, rows: c.g_dot(theta, t, pts)),
             ("f", lambda t, rows: c.f(x[rows], t)),
             ("f_dot", lambda t, rows: c.f_dot(x[rows], t)),
             ("f_ddot", lambda t, rows: c.f_ddot(x[rows], t))]
    if c.ell is not None:
        with np.errstate(divide="ignore"):
            logw = np.log(s.eta.masses)[:, np.newaxis]
        eye = np.eye(s.eta.size)
        calls += [("L(log w)", lambda t, rows: c.ell(logw, t)),
                  ("L(I)", lambda t, rows: c.ell(eye, t))]
    return table, calls


@pytest.mark.parametrize("model_id, params", BUILDS, ids=BUILD_IDS)
def test_one_call_on_the_table_is_the_stack_of_one_row_calls(model_id,
                                                             params):
    table, calls = _calls(zoo.build(model_id, **params))
    n = len(table[0])
    for name, call in calls:
        whole = np.asarray(call(table, slice(None)))
        rows = np.stack([np.asarray(call(_row(table, i), [i]))[0]
                         for i in range(n)])
        assert whole.shape[0] == n, name
        assert np.array_equal(whole, rows), name


def test_the_stack_check_catches_a_component_that_reduces_across_rows():
    model = zoo.build("mixture")
    c = model.components
    broken = dataclasses.replace(model, components=dataclasses.replace(
        c, f_dot=lambda x, t: c.f_dot(x, t) / np.sum(x)))
    table, calls = _calls(broken)
    call = dict(calls)["f_dot"]
    rows = np.stack([call(_row(table, i), [i])[0]
                     for i in range(len(table[0]))])
    assert not np.array_equal(call(table, slice(None)), rows)


def _short(component):
    """``component`` with the last row of its output dropped."""
    return lambda *args: component(*args)[:-1]


# Each component's full output shape for N outcomes on m points, d
# integral functionals and p parameters (L's on the (m, 1) log masses).
_SHAPES = {"r": lambda n, m, d, p: (n,),
           "r_dot": lambda n, m, d, p: (n, p),
           "g": lambda n, m, d, p: (n, m, d),
           "g_dot": lambda n, m, d, p: (n, m, d, p),
           "f": lambda n, m, d, p: (n,),
           "f_dot": lambda n, m, d, p: (n, d),
           "f_ddot": lambda n, m, d, p: (n, d, d),
           "ell": lambda n, m, d, p: (n, 1)}


@pytest.mark.parametrize("name", list(_SHAPES))
@pytest.mark.parametrize("model_id", ["cox_rc", "recurrent_transform"])
def test_a_wrong_row_count_names_the_component(model_id, name):
    # cox_rc has d == 1, so its g, g_dot, f_dot and f_ddot come in their
    # bare shapes; recurrent_transform has d == 2.
    model = zoo.build(model_id)
    c, s = model.components, model.state
    n, m, d, p = (len(model.exact.outcomes), s.eta.size, c.gdim, c.p)
    table, calls = _calls(model)
    label = "L" if name == "ell" else name
    returned = dict(calls)["L(log w)" if name == "ell" else name](
        table, slice(None))
    got = (n - 1,) + np.shape(returned)[1:]
    want = _SHAPES[name](n, m, d, p)
    broken = dataclasses.replace(c, **{name: _short(getattr(c, name))})
    with pytest.raises(DimensionError, match=re.escape(
            f"{label} returned shape {got}, expected {want}")):
        outcome_law(model.exact, broken, s).stacked


# The complex step h: Im F(z + ih) / h is F'(z) with an error of order
# h^2 F''', far below rounding, and no cancellation.
STEP = 1e-30
# The largest gap between a hand-written derivative and its complex step,
# relative to the derivative's largest entry. On the zoo the worst is
# 2 eps (recurrent_transform's f_ddot). Entry by entry the ratio would
# read the cancellation in mixture's g_dot, k (dev - E dev), as error
# (21 eps) where the entry itself is small.
COMPLEX_STEP_TOL = 4 * np.finfo(float).eps


def _complex_step(F, z, axis_len, shape):
    """The complex-step derivatives of F at the real array z along each
    of the ``axis_len`` coordinates of z's last axis (the whole of z
    when ``axis_len`` is None), each reshaped to ``shape``, stacked on a
    new last axis."""
    cols = []
    for j in range(axis_len or 1):
        step = np.zeros(np.shape(z), dtype=complex)
        if axis_len is None:
            step[...] = 1j * STEP
        else:
            step[..., j] = 1j * STEP
        cols.append(np.asarray(F(z + step)).imag.reshape(shape) / STEP)
    return np.stack(cols, axis=-1)


def _derivative_errors(model):
    """The largest gap between each hand-written derivative and its
    complex step at the build state, over the exact outcome table,
    relative to the derivative's largest entry: f_dot against f, f_ddot
    against f_dot, g_dot against g and r_dot against r (the last two only
    when p > 0). A derivative that is zero everywhere must be matched
    exactly."""
    c = model.components
    table, theta, pts, x = _inputs(model)
    n, d, p, m = len(table[0]), c.gdim, c.p, pts.size
    x_cols = None if d == 1 else d
    pairs = {
        "f_dot": (_complex_step(lambda z: c.f(z, table), x, x_cols, (n,)),
                  np.reshape(c.f_dot(x, table), (n, d))),
        "f_ddot": (_complex_step(lambda z: c.f_dot(z, table), x, x_cols,
                                 (n, d)),
                   np.reshape(c.f_ddot(x, table), (n, d, d))),
    }
    if p:
        pairs["g_dot"] = (
            _complex_step(lambda t: c.g(t, table, pts), theta, p,
                          (n, m, d)),
            np.reshape(c.g_dot(theta, table, pts), (n, m, d, p)))
        pairs["r_dot"] = (
            _complex_step(lambda t: c.r(t, table), theta, p, (n,)),
            np.reshape(c.r_dot(theta, table), (n, p)))
    errors = {}
    for name, (stepped, written) in pairs.items():
        gap = np.max(np.abs(stepped - written), initial=0.0)
        scale = np.max(np.abs(written), initial=0.0)
        errors[name] = (gap / scale if scale > 0.0
                        else 0.0 if gap == 0.0 else np.inf)
    return errors


@pytest.mark.parametrize("model_id, params", BUILDS, ids=BUILD_IDS)
def test_hand_written_derivatives_match_the_complex_step(model_id, params):
    errors = _derivative_errors(zoo.build(model_id, **params))
    assert set(errors) >= {"f_dot", "f_ddot"}
    for name, error in errors.items():
        assert error <= COMPLEX_STEP_TOL, (name, error / np.finfo(float).eps)


def _perturbed(model, **components):
    return dataclasses.replace(model, components=dataclasses.replace(
        model.components, **components))


def test_the_complex_step_check_catches_a_1e_9_error_in_one_f_dot():
    model = zoo.build("cox_cs")
    f_dot = model.components.f_dot

    def off(x, table):
        out = np.array(f_dot(x, table))
        out[0] *= 1.0 + 1e-9
        return out

    errors = _derivative_errors(_perturbed(model, f_dot=off))
    assert errors["f_dot"] > COMPLEX_STEP_TOL


def test_the_complex_step_check_catches_a_flipped_sign_in_g_dot():
    model = zoo.build("missing_cov")
    g_dot = model.components.g_dot
    errors = _derivative_errors(_perturbed(
        model, g_dot=lambda theta, table, pts: -g_dot(theta, table, pts)))
    assert errors["g_dot"] > COMPLEX_STEP_TOL
