import dataclasses
import time
from collections import Counter

import numpy as np
import pytest

from semiinfo import (
    Category,
    MonteCarlo,
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
from semiinfo.errors import DomainError
from semiinfo.likelihood import TangentKind, score_operator
from semiinfo.measure import center, inner_product
from semiinfo.operators import centered_basis


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
    res = classify_category(fake_sf([1e-7, 1.0]))
    assert res.category is Category.INDETERMINATE


def test_classify_mc_widens_zero_tolerance():
    # an all-zero multiplier estimated with noise should still be called
    # vanishing once the tolerance reflects the standard errors
    noisy = fake_sf([2e-9, -1e-9], se=[1e-9, 1e-9], engine="mc")
    res = classify_category(noisy)
    assert res.tol_zero == pytest.approx(4e-9)
    assert res.category is Category.VANISHING_MULTIPLIER


def test_classify_mc_invertible_needs_the_whole_band_inside_the_bound():
    # gamma itself lies inside [1e-6, 1e6], but four standard errors
    # reach below the lower bound at the first point
    gamma, se = [1e-5, 1.0], [3e-6, 0.0]
    assert classify_category(fake_sf(gamma, se=se)).category \
        is Category.INVERTIBLE_MULTIPLIER
    res = classify_category(fake_sf(gamma, se=se, engine="mc"))
    assert res.category is Category.INDETERMINATE
    assert (res.gamma_min, res.gamma_max) == (1e-5, 1.0)
    assert classify_category(fake_sf(gamma, se=[2e-6, 0.0], engine="mc")
                             ).category is Category.INVERTIBLE_MULTIPLIER


def test_sampled_zero_cell_is_never_called_invertible():
    # gamma is exactly zero on three of the zero cell's five points; a
    # sample puts small positive noise there, which the band must cover
    model = zoo.build("missing_cov", zero_cell=True)
    for seed in range(1, 11):
        sf = structural_functions(MonteCarlo(model.sampler, 20000, seed),
                                  model.components, model.state)
        assert classify_category(sf).category \
            is not Category.INVERTIBLE_MULTIPLIER, seed


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
    assert lfd.solve_result.rank == model.state.eta.size
    assert lfd.solve_result.relative_residual < 1e-12
    # the information operator is multiplication, so the solution is the
    # ratio of adjoint to multiplier
    np.testing.assert_allclose(lfd.values, adj / sf.gamma[:, np.newaxis],
                               atol=1e-12)


def test_lfd_on_a_rank_one_kernel_is_the_pinv_solution():
    # No multiplier and a rank-one kernel: a first-kind equation of rank
    # one, whose solve keeps one singular value and returns the min-norm
    # solution. With equal masses the solve coordinates are a scaling of
    # the grid values, so that is the pseudo-inverse's solution.
    from semiinfo.measure import DiscreteMeasure, Grid, MeasureKind

    eta = DiscreteMeasure(Grid(np.arange(1.0, 5.0), 4.0), np.full(4, 0.25),
                          MeasureKind.POSITIVE_FINITE)
    u = np.array([1.0, 2.0, 3.0, 4.0])
    sf = fake_sf(np.zeros(4), kappa=np.outer(u, u))
    mat = as_matrix(info_operator(sf, eta, TangentKind.L2))
    rhs = mat @ np.ones((4, 1))
    lfd = least_favorable_direction(sf, eta, TangentKind.L2, rhs)
    assert lfd.solve_result.rank == 1
    assert lfd.ladder == ((1, lfd.solve_result.relative_residual),)
    assert lfd.solve_result.relative_residual < 1e-14
    np.testing.assert_allclose(lfd.values, np.linalg.pinv(mat) @ rhs,
                               rtol=1e-12, atol=1e-14)


def _gram_min_norm_lfd(model):
    """The min-norm least favorable direction from the joint-score Gram:
    ``G_etaeta^+ G_etatheta`` on the L2(eta)-orthonormal tangent basis,
    with the eigenvalues of G_etaeta above 1e-8 times the largest."""
    from semiinfo.calculus import _identifiability_gram

    c, s = model.components, model.state
    gram = _identifiability_gram(model.exact, c, s)
    p = c.p
    eig, vec = np.linalg.eigh(gram[p:, p:])
    keep = eig > 1e-8 * eig[-1]
    coef = vec[:, keep] @ ((vec[:, keep].T @ gram[p:, :p])
                           / eig[keep][:, np.newaxis])
    return centered_basis(s.eta) @ coef


@pytest.mark.parametrize("m", [30, 400])
def test_rank_deficient_mixture_lfd_is_the_gram_min_norm_lfd(m):
    # The fine latent grids leave the information operator rank 4 of
    # m - 1: the solve keeps those singular values, and its LFD is the
    # min-norm one the Gram gives, so both efficient-information routes
    # agree to rounding.
    model = zoo.build("mixture", m=m)
    eta = model.state.eta
    report = analyze_model(model.components, model.state, model.exact)
    assert report.lfd.solve_result.rank == 4
    assert report.diagnostics["lfd_rank"] == 4
    assert report.efficient.discrepancy <= 1e-14
    gap = report.lfd.values - _gram_min_norm_lfd(model)
    assert np.sqrt(np.sum(eta.masses * gap[:, 0] ** 2)) <= 1e-12


def test_nonparametric_influence_of_the_mean_on_fine_mixture_is_non_regular():
    # The mean of the mixing measure is not in the range of the rank-4
    # information operator: the min-norm solve leaves the relative
    # distance of its derivative from that range as the residual.
    model = zoo.build("mixture", parametric=False, m=400)
    c, s = model.components, model.state
    chi_dot = center(s.eta.grid.points, s.eta).values
    res = nonparametric_influence(model.exact, c, s, chi_dot)
    assert res.non_regular
    assert res.solve_result.rank == 4
    assert res.solve_result.relative_residual == pytest.approx(
        5.866179119382507e-3, rel=1e-9)


def test_lfd_on_toy_first_kind_grids_still_solves_directly():
    # the coarse kernels of the bundled first-kind models are far from
    # numerically singular, so the solve keeps every singular value
    for model_id in ("cox_cs", "mixture"):
        model = zoo.build(model_id)
        sf = structural_functions(model.exact, model.components, model.state)
        adj = adjoint_of_score(sf, model.state.eta, model.components.tangent)
        lfd = least_favorable_direction(sf, model.state.eta,
                                        model.components.tangent, adj)
        reduced = model.state.eta.size - (model.components.tangent
                                          is TangentKind.L2_ZERO)
        assert lfd.solve_result.rank == reduced
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


def _solve_fields(res):
    return (res.solution.tobytes(), res.residual, res.relative_residual,
            res.condition, res.rank, res.sigma_min, res.sigma_max)


@pytest.mark.parametrize("m", [10, 30, 100, 400, 800])
def test_outcome_route_separates_regular_from_non_regular(m):
    # Five outcomes leave the information operator rank 4 at every m: the
    # derivative of P(X = 2), its kernel row, is in its range and the mean
    # is not. Both are solved in outcome space, without the m x m
    # mean-zero basis.
    model = zoo.build("mixture", parametric=False, m=m)
    c, s = model.components, model.state
    row = center(model.extras["kernel"][2], s.eta).values
    start = time.perf_counter()
    mean = nonparametric_influence(
        model.exact, c, s, center(s.eta.grid.points, s.eta).values)
    elapsed = time.perf_counter() - start
    regular = nonparametric_influence(model.exact, c, s, row)
    assert "_mean_zero_basis" not in vars(s.eta)
    for res in (mean, regular):
        assert res.factorization == "outcome"
        assert 0.0 <= res.score_mean <= 1e-12 * np.sqrt(
            res.solve_result.sigma_max)
        assert res.solve_result.rank == 4
        assert res.solve_result.sigma_min == 0.0
    assert not regular.non_regular
    assert regular.solve_result.relative_residual <= 1e-13
    assert mean.non_regular
    if m == 800:
        assert elapsed < 1.0


@pytest.mark.parametrize("m", [10, 30, 100, 400, 800])
def test_outcome_route_agrees_with_the_operator_solve(m):
    # The outcome route differs from a solve on its own factorization with
    # the Hessian-form matrix as residual map only in that residual.
    from dataclasses import replace

    from semiinfo.engines import outcome_law
    from semiinfo.operators import outcome_factored, solve

    model = zoo.build("mixture", parametric=False, m=m)
    c, s = model.components, model.state
    law = outcome_law(model.exact, c, s)
    sf = structural_functions(law, c, s)
    factored = outcome_factored(s.eta, True, law.score_matrix(),
                                law.weights)[0]
    matrix = as_matrix(info_operator(sf, s.eta, c.tangent))
    hessian_map = replace(factored, apply=matrix.__matmul__)
    for chi, regular in ((center(s.eta.grid.points, s.eta).values, False),
                         (center(model.extras["kernel"][2], s.eta).values,
                          True)):
        res = nonparametric_influence(model.exact, c, s, chi)
        assert res.factorization == "outcome"
        sr = res.solve_result
        assert _solve_fields(sr) == _solve_fields(solve(factored, chi))
        swapped = solve(hessian_map, chi)
        assert sr.solution.tobytes() == swapped.solution.tobytes()
        assert (sr.rank, sr.condition, sr.sigma_min, sr.sigma_max) == \
            (swapped.rank, swapped.condition, swapped.sigma_min,
             swapped.sigma_max)
        # a regular residual is rounding: compare it on the residual's scale
        assert sr.relative_residual == pytest.approx(
            swapped.relative_residual, rel=1e-9, abs=1e-13 if regular else 0)
        hessian = least_favorable_direction(sf, s.eta, c.tangent,
                                            chi).solve_result
        assert sr.rank == hessian.rank == 4
        gap = sr.solution - hessian.solution
        assert np.sqrt(np.sum(s.eta.masses * gap * gap)) <= 1e-11
        assert sr.condition == pytest.approx(hessian.condition, rel=1e-9)
        assert sr.relative_residual == pytest.approx(
            hessian.relative_residual, rel=1e-9, abs=1e-13 if regular else 0)
        assert sr.sigma_max == pytest.approx(hessian.sigma_max, rel=1e-12)


def test_outcome_route_forms_no_structural_functions_or_matrix(monkeypatch):
    import semiinfo.calculus as calculus
    import semiinfo.operators as operators

    model = zoo.build("mixture", parametric=False, m=400)
    c, s = model.components, model.state

    def refuse(*args, **kwargs):
        raise AssertionError("the outcome route formed an m x m quantity")

    monkeypatch.setattr(calculus, "structural_functions", refuse)
    monkeypatch.setattr(operators, "as_matrix", refuse)
    res = nonparametric_influence(model.exact, c, s,
                                  center(s.eta.grid.points, s.eta).values)
    assert res.factorization == "outcome"
    assert res.solve_result.rank == 4
    assert res.non_regular
    assert "_mean_zero_basis" not in vars(s.eta)


@pytest.mark.parametrize("case", ["kaplan_meier-exact", "mixture-mc"])
def test_operator_route_keeps_the_least_favorable_solve(case):
    # Where the outcome route does not apply (as many outcomes as grid
    # points, a sampled law) the solve is
    # least_favorable_direction's, bit for bit, and the gate is not read.
    from semiinfo.engines import MonteCarlo

    if case == "mixture-mc":
        model = zoo.build("mixture", parametric=False, m=30)
        engine = MonteCarlo(model.exact, 20000, 3)
        chi = center(model.state.eta.grid.points, model.state.eta).values
    else:
        model = zoo.build("kaplan_meier")
        engine = model.exact
        chi = model.references["chi_dot"](model.state.eta.grid.points[1])
    c, s = model.components, model.state
    res = nonparametric_influence(engine, c, s, chi)
    sf = structural_functions(engine, c, s)
    lfd = least_favorable_direction(sf, s.eta, c.tangent, chi)
    assert res.factorization == "operator" and res.score_mean is None
    assert _solve_fields(res.solve_result) == _solve_fields(lfd.solve_result)


def test_influence_evaluates_no_component_after_the_solve():
    # The influence of each of the law's outcomes is its row of the law's
    # stacked measure scores: over kaplan_meier's six outcomes it calls
    # neither g nor L (each once per outcome when every outcome was scored
    # alone).
    model = zoo.build("kaplan_meier")
    calls = Counter()

    def counting(name, component):
        def counted(*args):
            calls[name] += 1
            return component(*args)
        return counted

    c = dataclasses.replace(model.components,
                            g=counting("g", model.components.g),
                            ell=counting("L", model.components.ell))
    res = nonparametric_influence(model.exact, c, model.state,
                                  model.references["chi_dot"](2.0))
    calls.clear()
    for obs in model.exact.outcomes:
        res.influence(obs)
    assert calls == Counter()


@pytest.mark.parametrize("case", ["kaplan_meier-exact", "kaplan_meier-mc",
                                  "mixture-m30-exact", "mixture-m400-exact",
                                  "mixture-m30-mc"])
def test_influence_rows_are_the_one_outcome_scores(case):
    # The stacked rows equal score_operator's one-outcome scores bit for
    # bit, on both routes, exact and sampled. A sampled kaplan_meier law
    # draws none of the three tiny-mass event outcomes, whose influence
    # is scored alone.
    if case.startswith("kaplan_meier"):
        model = zoo.build("kaplan_meier")
        chis = [model.references["chi_dot"](t) for t in (1.0, 2.0, 3.0)]
    else:
        model = zoo.build("mixture", parametric=False,
                          m=400 if "m400" in case else 30)
        chis = [center(model.state.eta.grid.points, model.state.eta).values]
    c, s = model.components, model.state
    engine = MonteCarlo(model.exact, 20000, 3) if case.endswith("mc") \
        else model.exact
    if case == "kaplan_meier-mc":
        assert len(engine.law(c, s).outcomes) == 3
    for chi in chis:
        res = nonparametric_influence(engine, c, s, chi)
        for obs in model.exact.outcomes:
            want = score_operator(c, s, obs, res.lfd)
            assert res.influence(obs) == want, (case, obs)


def test_a_score_mean_above_the_gate_keeps_the_operator_solve(monkeypatch):
    # A gate of zero refuses the rounding-level score mean of mixture: the
    # gate is read and reported, and the solve is the operator's.
    import semiinfo.calculus as calculus

    model = zoo.build("mixture", parametric=False, m=30)
    c, s = model.components, model.state
    chi = center(s.eta.grid.points, s.eta).values
    monkeypatch.setattr(calculus, "SCORE_MEAN_REL_TOL", 0.0)
    res = nonparametric_influence(model.exact, c, s, chi)
    sf = structural_functions(model.exact, c, s)
    lfd = least_favorable_direction(sf, s.eta, c.tangent, chi)
    assert res.factorization == "operator"
    assert 0.0 < res.score_mean <= 1e-15
    assert _solve_fields(res.solve_result) == _solve_fields(lfd.solve_result)
