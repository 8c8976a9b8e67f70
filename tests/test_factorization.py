"""One factorization per operator: a kernel operator reduces and factors
itself on its first solve, and every later solve reuses that, whatever
its ridge or right-hand side, with results equal to a solve on a freshly
built operator. A measure computes its mean-zero basis once, and
``analyze_model`` builds one operator per state."""
import dataclasses

import numpy as np
import pytest

from semiinfo import (KernelOperator, SolveResult, analyze_model, center,
                      info_operator, least_favorable_direction, solve,
                      structural_functions, zoo)
from semiinfo import operators
from semiinfo.calculus import RIDGE_LADDER_DEFAULT
from semiinfo.errors import IllPosedError


@pytest.fixture(scope="module")
def mixture():
    model = zoo.build("mixture", parametric=False, m=30)
    sf = structural_functions(model.exact, model.components, model.state)
    return model, sf


def _count_builds(monkeypatch):
    """Count SVDs, dense operator matrices and built kernel operators."""
    counts = {"svd": 0, "as_matrix": 0, "operators": 0}
    svd, as_matrix = np.linalg.svd, operators.as_matrix
    post_init = KernelOperator.__post_init__

    def counting_svd(*args, **kwargs):
        counts["svd"] += 1
        return svd(*args, **kwargs)

    def counting_as_matrix(op):
        counts["as_matrix"] += 1
        return as_matrix(op)

    def counting_post_init(op):
        counts["operators"] += 1
        post_init(op)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(operators, "as_matrix", counting_as_matrix)
    monkeypatch.setattr(KernelOperator, "__post_init__", counting_post_init)
    return counts


def test_ladder_walk_factors_the_operator_once(mixture, monkeypatch):
    model, sf = mixture
    # A copy of the measure, so no earlier test has cached its basis.
    eta = dataclasses.replace(model.state.eta)
    rhs = center(eta.grid.points, eta).values
    counts = _count_builds(monkeypatch)
    lfd = least_favorable_direction(sf, eta, model.components.tangent, rhs,
                                    RIDGE_LADDER_DEFAULT)
    assert len(lfd.ladder) == 1 + len(RIDGE_LADDER_DEFAULT)
    # One SVD for the centered projector, one for the reduced system.
    assert counts == {"svd": 2, "as_matrix": 1, "operators": 1}


@pytest.mark.parametrize("parametric, svds", [(True, 2), (False, 1)])
def test_analyze_builds_one_operator_and_one_basis(parametric, svds,
                                                   monkeypatch):
    # The mean-zero basis is computed once, on the measure, and shared by
    # the solve, V's eigenvalue and the identifiability basis; the
    # parametric model adds one SVD for its least favorable solve, and V
    # is formed from the solved operator's matrix.
    model = zoo.build("mixture", parametric=parametric, m=30)
    counts = _count_builds(monkeypatch)
    report = analyze_model(model.components, model.state, model.exact)
    assert report.identifiability is not None
    assert np.isfinite(report.v_min_eigen)
    assert counts == {"svd": svds, "as_matrix": 1, "operators": 1}


def _outcome(op, rhs, ridge):
    try:
        return solve(op, rhs, ridge)
    except IllPosedError as err:
        return str(err)


@pytest.mark.parametrize("centering", [True, False])
def test_every_rung_matches_a_fresh_operator(mixture, centering):
    model, sf = mixture
    eta = model.state.eta
    op = info_operator(sf, eta, model.components.tangent)
    pieces = (op.base, op.multiplier, op.kernel, centering)
    shared = KernelOperator(*pieces)
    points = eta.grid.points
    vector = center(points, eta).values
    matrix = np.column_stack([vector, center(points ** 2, eta).values])
    rungs = ((0.0,) + RIDGE_LADDER_DEFAULT)[::-1]
    for ridge in rungs:
        for rhs in (vector, matrix):
            got = _outcome(shared, rhs, ridge)
            want = _outcome(KernelOperator(*pieces), rhs, ridge)
            assert type(got) is type(want)
            if isinstance(want, str):
                assert got == want
                continue
            for name in (f.name for f in dataclasses.fields(SolveResult)):
                assert np.array_equal(getattr(got, name),
                                      getattr(want, name)), (ridge, name)
