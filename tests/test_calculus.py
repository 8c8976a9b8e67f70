import numpy as np
import pytest

from semiinfo import (
    Category,
    adjoint_of_score,
    analyze_model,
    apply,
    as_matrix,
    classify_category,
    efficient_information,
    efficient_score_function,
    fisher_information,
    info_operator,
    least_favorable_direction,
    local_identifiability,
    nonparametric_influence,
    structural_functions,
    v_operator,
    zoo,
)
from semiinfo.engines import StructuralFunctions
from semiinfo.errors import DomainError, IllPosedError
from semiinfo.measure import center, inner_product


def fake_sf(gamma, se=None, engine="exact", kappa=None):
    gamma = np.asarray(gamma, dtype=float)
    m = gamma.size
    z = np.zeros
    se_gamma = z(m) if se is None else np.asarray(se, dtype=float)
    kappa = z((m, m)) if kappa is None else np.asarray(kappa, dtype=float)
    return StructuralFunctions(
        gamma=gamma, alpha=z((m, 0)), kappa=kappa, beta=z((m, m, 0)),
        se_gamma=se_gamma, se_alpha=z((m, 0)), se_kappa=z((m, m)),
        se_beta=z((m, m, 0)), engine=engine, n=None if engine == "exact" else 100,
    )


def test_classify_invertible_multiplier():
    res = classify_category(fake_sf([0.5, 1.0, 2.0]))
    assert res.category is Category.INVERTIBLE_MULTIPLIER
    assert res.gamma_min == 0.5 and res.gamma_max == 2.0


def test_classify_vanishing_multiplier():
    res = classify_category(fake_sf([0.0, 0.0, 0.0]))
    assert res.category is Category.VANISHING_MULTIPLIER
    assert res.abs_gamma_max == 0.0


def test_classify_indeterminate():
    res = classify_category(fake_sf([0.0, 1.0]))
    assert res.category is Category.INDETERMINATE


def test_classify_bound_gates_invertibility():
    res = classify_category(fake_sf([1e-7, 1.0]), bound=1e6)
    assert res.category is Category.INDETERMINATE
    res2 = classify_category(fake_sf([1e-7, 1.0]), bound=1e8)
    assert res2.category is Category.INVERTIBLE_MULTIPLIER


def test_classify_mc_widens_zero_tolerance():
    # an all-zero multiplier estimated with noise should still be called
    # vanishing once the tolerance reflects the standard errors
    noisy = fake_sf([2e-9, -1e-9], se=[1e-9, 1e-9], engine="mc")
    res = classify_category(noisy)
    assert res.tol_zero == pytest.approx(4e-9)
    assert res.category is Category.VANISHING_MULTIPLIER


def test_info_operator_apply_matches_matrix():
    model = zoo.build("mixture")
    sf = structural_functions(model.exact, model.components, model.state)
    op = info_operator(sf, model.state.eta, model.components.tangent)
    mat = as_matrix(op)
    rng = np.random.default_rng(3)
    for _ in range(5):
        a = rng.normal(size=model.state.eta.size)
        np.testing.assert_allclose(apply(op, a), mat @ a, atol=1e-12)


def test_adjoint_columns_centered_for_mean_zero_tangent():
    model = zoo.build("missing_cov")
    sf = structural_functions(model.exact, model.components, model.state)
    adj = adjoint_of_score(sf, model.state.eta, model.components.tangent)
    assert adj.shape == (model.state.eta.size, 2)
    means = model.state.eta.masses @ adj
    np.testing.assert_allclose(means, 0.0, atol=1e-12)


def test_lfd_direct_solve_on_invertible_model():
    model = zoo.build("cox_rc")
    sf = structural_functions(model.exact, model.components, model.state)
    adj = adjoint_of_score(sf, model.state.eta, model.components.tangent)
    lfd = least_favorable_direction(sf, model.state.eta,
                                    model.components.tangent, adj)
    assert lfd.ridge_used == 0.0
    assert lfd.solve_result.relative_residual < 1e-12
    # the information operator is multiplication, so the solution is the
    # ratio of adjoint to multiplier
    np.testing.assert_allclose(lfd.values, adj / sf.gamma[:, np.newaxis],
                               atol=1e-12)


def singular_setup():
    # no multiplier and a rank-one kernel: the direct solve must refuse
    # and only the ridge ladder gives an answer
    from semiinfo.likelihood import TangentKind
    from semiinfo.measure import DiscreteMeasure, Grid, MeasureKind

    eta = DiscreteMeasure(Grid(np.arange(1.0, 5.0), 4.0), np.full(4, 0.25),
                          MeasureKind.POSITIVE_FINITE)
    u = np.array([1.0, 2.0, 3.0, 4.0])
    sf = fake_sf(np.zeros(4), kappa=np.outer(u, u))
    op = info_operator(sf, eta, TangentKind.L2)
    rhs = as_matrix(op) @ np.ones((4, 1))
    return sf, eta, TangentKind.L2, rhs


def test_lfd_walks_ridge_ladder_on_singular_operator():
    from semiinfo.calculus import RIDGE_LADDER_DEFAULT
    sf, eta, tangent, rhs = singular_setup()
    lfd = least_favorable_direction(sf, eta, tangent, rhs,
                                    RIDGE_LADDER_DEFAULT)
    assert lfd.ladder[0] == (0.0, float("inf"))
    assert len(lfd.ladder) > 1
    assert lfd.ridge_used > 0.0
    # the right-hand side lies in the range, so some ladder step fits it
    assert lfd.solve_result.relative_residual < 1e-6


def test_lfd_without_ladder_propagates_ill_posedness():
    sf, eta, tangent, rhs = singular_setup()
    with pytest.raises(IllPosedError):
        least_favorable_direction(sf, eta, tangent, rhs, ridge_ladder=None)


def test_empty_ridge_ladder_propagates_ill_posedness():
    # An empty ladder is no ladder: the refused direct solve's error
    # comes back, as it does without one.
    model = zoo.build("mixture", parametric=False, m=30)
    c, s = model.components, model.state
    chi_dot = center(s.eta.grid.points, s.eta).values
    sf = structural_functions(model.exact, c, s)
    with pytest.raises(IllPosedError):
        least_favorable_direction(sf, s.eta, c.tangent, chi_dot,
                                  ridge_ladder=())
    with pytest.raises(IllPosedError):
        nonparametric_influence(model.exact, c, s, chi_dot, ridge_ladder=())


def test_lfd_on_toy_first_kind_grids_still_solves_directly():
    # the coarse kernels of the bundled first-kind models are far from
    # numerically singular, so no ridge engages there
    for model_id in ("cox_cs", "mixture"):
        model = zoo.build(model_id)
        sf = structural_functions(model.exact, model.components, model.state)
        adj = adjoint_of_score(sf, model.state.eta, model.components.tangent)
        lfd = least_favorable_direction(sf, model.state.eta,
                                        model.components.tangent, adj)
        assert lfd.ridge_used == 0.0
        assert lfd.solve_result.relative_residual < 1e-8


def test_efficient_score_shape_check():
    model = zoo.build("cox_rc")
    with pytest.raises(DomainError):
        efficient_score_function(model.components, model.state, np.zeros((2, 2)))


def test_efficient_information_routes_agree():
    model = zoo.build("cox_rc")
    c, s = model.components, model.state
    sf = structural_functions(model.exact, c, s)
    adj = adjoint_of_score(sf, s.eta, c.tangent)
    lfd = least_favorable_direction(sf, s.eta, c.tangent, adj)
    fisher = fisher_information(model.exact, c, s)
    eff = efficient_information(model.exact, c, s, lfd.values, adj, fisher)
    assert eff.discrepancy < 1e-8
    assert np.linalg.eigvalsh(eff.by_score)[0] > 0.0
    # route 2 subtracts the pairing of the adjoint with the direction
    pairing = inner_product(adj[:, 0], lfd.values[:, 0], s.eta)
    assert eff.by_adjoint[0, 0] == pytest.approx(fisher[0, 0] - pairing, abs=1e-12)


def test_v_operator_positive_for_invertible_model():
    model = zoo.build("cox_rc")
    c, s = model.components, model.state
    sf = structural_functions(model.exact, c, s)
    fisher = fisher_information(model.exact, c, s)
    v = v_operator(sf, s.eta, c.tangent, fisher)
    eig = np.linalg.eigvalsh(0.5 * (v + v.T))
    assert eig[0] > 0.0


def test_analyze_model_report_fields():
    model = zoo.build("cox_rc")
    report = analyze_model(model.components, model.state, model.exact)
    assert report.p == 1
    assert report.category.category is Category.INVERTIBLE_MULTIPLIER
    assert report.efficient is not None
    assert report.diagnostics["route_discrepancy"] < 1e-8
    assert "fisher_singular" not in report.diagnostics
    assert report.identifiability.min_eigen > 1e-8
    assert report.normalization_deficit is not None


def test_analyze_model_degrades_on_singular_fisher():
    model = zoo.build("cox_rc", duplicated_covariate=True)
    report = analyze_model(model.components, model.state, model.exact)
    assert "fisher_singular" in report.diagnostics
    assert np.isnan(report.v_min_eigen)
    # the direction solve and both information routes are fine (neither
    # inverts the parameter block); the efficient information itself is
    # singular, and only the profiled-operator stage is skipped
    assert report.lfd is not None
    assert report.efficient is not None
    assert np.linalg.eigvalsh(report.efficient.by_score)[0] <= 1e-10
    # the joint check still runs and exposes the flat direction
    assert report.identifiability.min_eigen <= 1e-10


def test_influence_rejects_parametric_models():
    model = zoo.build("cox_rc")
    with pytest.raises(DomainError):
        nonparametric_influence(model.exact, model.components, model.state,
                                np.ones(model.state.eta.size))


def test_influence_requires_centered_derivative():
    model = zoo.build("mixture", parametric=False)
    with pytest.raises(DomainError):
        nonparametric_influence(model.exact, model.components, model.state,
                                np.ones(model.state.eta.size))


def test_influence_rejects_non_finite_derivative():
    # A NaN derivative must not come back as an exact, regular solve.
    model = zoo.build("kaplan_meier")
    chi_dot = np.ones(model.state.eta.size)
    chi_dot[0] = np.nan
    with pytest.raises(DomainError):
        nonparametric_influence(model.exact, model.components, model.state,
                                chi_dot)


def test_influence_regular_case_has_small_residual():
    model = zoo.build("kaplan_meier")
    chi_dot = model.references["lfd"]  # callable: ratio form of the solution
    t = model.state.eta.grid.points[1]
    rhs = model.references["chi_dot"](t)
    res = nonparametric_influence(model.exact, model.components, model.state,
                                  rhs)
    assert not res.non_regular
    np.testing.assert_allclose(res.lfd, chi_dot(t), atol=1e-9)
