"""Release gate: one test per numbered acceptance check, AC1 through AC11.

Every tolerance here is pinned. Each test ends with a one-line PASS
summary carrying the measured margins (visible under ``pytest -s``).
These checks are intentionally redundant with parts of the unit suite:
they exercise the public pipeline end to end, against independently
derived closed forms, at the exact tolerances the package promises.
"""
import json

import numpy as np
import pytest

from semiinfo import (
    MonteCarlo,
    adjoint_of_score,
    analyze_model,
    apply,
    check_adjoint_identity,
    cumulative,
    efficient_information,
    efficient_score_function,
    fisher_information,
    info_operator,
    least_favorable_direction,
    structural_functions,
    zoo,
)
from semiinfo.calculus import NONREGULAR_RESID_TOL
from semiinfo.cli import main
from semiinfo.likelihood import TangentKind, score_operator
from semiinfo.measure import center
from semiinfo.operators import (
    BlockInformation,
    block_inverse_identity_check,
    efficient_info_parametric,
    min_eigen_sym,
)
from semiinfo.serialize import write_matrix_csv
from semiinfo.validate import FD_ORDER_FLOOR, fd_order_ok

ALL_IDS = sorted(zoo.MODELS)
STRUCTURAL_NAMES = ("gamma", "alpha", "kappa", "beta")


def maxabs(arr):
    arr = np.asarray(arr)
    return float(np.max(np.abs(arr))) if arr.size else 0.0


def admissible(rng, model):
    """A random direction, centered when the tangent space is mean-zero."""
    a = rng.uniform(-1.0, 1.0, model.state.eta.size)
    if model.components.tangent is TangentKind.L2_ZERO:
        a = center(a, model.state.eta).values
    return a


def pipeline(model):
    sf = structural_functions(model.exact, model.components, model.state)
    adj = adjoint_of_score(sf, model.state.eta, model.components.tangent)
    lfd = least_favorable_direction(sf, model.state.eta,
                                    model.components.tangent, adj)
    return sf, adj, lfd


def test_ac01_adjoint_pairing_and_derivative_agree_three_ways():
    # g runs over each parameter score component and the measure score of
    # five random directions; each g is paired with 20 random admissible b.
    exact_tol = 1e-10
    order_window = (3.5, 4.5)
    rng = np.random.default_rng(20260819)
    worst_exact = 0.0
    worst_fd_frac = 0.0
    ratios = []
    checks = 0
    vacuous = 0
    for model_id in ("cox_cs", "mixture", "missing_cov"):
        model = zoo.build(model_id)
        c, s = model.components, model.state
        sf = structural_functions(model.exact, c, s)
        score_family = list(range(c.p))
        score_family += [admissible(rng, model) for _ in range(5)]
        directions = [admissible(rng, model) for _ in range(20)]
        for g in score_family:
            for b in directions:
                res = check_adjoint_identity(model.exact, c, s, g, b, sf=sf)
                ctx = res.context
                assert ctx["exact_pair"] <= exact_tol, (model_id, ctx)
                assert ctx["fd_error"] <= res.tolerance, (model_id, ctx)
                assert fd_order_ok(ctx["order_error"],
                                   ctx["order_error_half"],
                                   ctx["scale"], ctx["exact_pair"]), \
                    (model_id, ctx)
                floor = max(FD_ORDER_FLOOR * max(1.0, ctx["scale"]),
                            4.0 * ctx["exact_pair"])
                if ctx["order_error"] <= floor and \
                        ctx["order_error_half"] <= floor:
                    vacuous += 1
                else:
                    ratio = ctx["richardson_ratio"]
                    assert order_window[0] <= ratio <= order_window[1], \
                        (model_id, ctx)
                    ratios.append(ratio)
                worst_exact = max(worst_exact, ctx["exact_pair"])
                worst_fd_frac = max(worst_fd_frac,
                                    ctx["fd_error"] / res.tolerance)
                checks += 1
    # the order probe must actually measure something on these toys
    assert len(ratios) >= 0.8 * checks
    print(f"AC1 PASS: {checks} identity checks, worst exact pair "
          f"{worst_exact:.2e} (tol {exact_tol:.0e}), worst fd error at "
          f"{worst_fd_frac:.2e} of its h^2 bound, halving ratios in "
          f"[{min(ratios):.3f}, {max(ratios):.3f}] (window {order_window}), "
          f"{vacuous} vacuous")


def test_ac02_structural_functions_match_references_exact_and_mc():
    exact_tol = 1e-9
    worst_exact = 0.0
    for model_id in ALL_IDS:
        model = zoo.build(model_id)
        sf = structural_functions(model.exact, model.components, model.state)
        for name in STRUCTURAL_NAMES:
            gap = maxabs(getattr(sf, name) - model.references[name])
            assert gap <= exact_tol, (model_id, name, gap)
            worst_exact = max(worst_exact, gap)

    # Monte Carlo coverage: pooled over models, seeds, and entries. The
    # enumeration's normalization deficit (< 1e-9) shifts reference values
    # for entries whose per-draw contribution is constant, where the MC
    # standard error is rightly zero, so entries outside the 4 se band
    # must still sit within the deficit allowance.
    seeds = range(20)
    n_draws = 4000
    entries = 0
    within = 0
    worst_outside = 0.0
    for model_id in ALL_IDS:
        model = zoo.build(model_id)
        for seed in seeds:
            mc = structural_functions(
                MonteCarlo(model.sampler, n_draws, seed),
                model.components, model.state)
            for name in STRUCTURAL_NAMES:
                gap = np.abs(getattr(mc, name) - model.references[name])
                band = 4.0 * getattr(mc, "se_" + name)
                ok = gap <= band
                entries += ok.size
                within += int(ok.sum())
                if not np.all(ok):
                    outside = gap[~ok]
                    assert np.all(outside <= exact_tol), (model_id, name)
                    worst_outside = max(worst_outside, float(outside.max()))
    fraction = within / entries
    assert fraction >= 0.99
    print(f"AC2 PASS: exact worst entry gap {worst_exact:.2e} (tol "
          f"{exact_tol:.0e}); MC {within}/{entries} entries within 4 se "
          f"({fraction:.4f} >= 0.99), out-of-band gaps all <= "
          f"{max(worst_outside, 0.0):.2e} (deficit allowance {exact_tol:.0e})")


def test_ac03_flat_mass_term_kills_the_multiplier():
    tol = 1e-10
    flat_ids = [mid for mid in ALL_IDS
                if zoo.build(mid).components.ell is None]
    # exactly the two models whose log-density has no mass-size term
    assert flat_ids == ["cox_cs", "mixture"]
    margins = {}
    for model_id in flat_ids:
        model = zoo.build(model_id)
        sf = structural_functions(model.exact, model.components, model.state)
        gmax = maxabs(sf.gamma)
        assert gmax <= tol, (model_id, gmax)
        margins[model_id] = gmax
    cs = zoo.build("cox_cs")
    sf_cs = structural_functions(cs.exact, cs.components, cs.state)
    amax = maxabs(sf_cs.alpha)
    assert amax <= tol
    print(f"AC3 PASS: sup|gamma| = {margins['cox_cs']:.2e} (cox_cs), "
          f"{margins['mixture']:.2e} (mixture); cox_cs sup|alpha| = "
          f"{amax:.2e} (tol {tol:.0e})")


def test_ac04_right_censored_ratio_solution_and_route_agreement():
    ratio_tol = 1e-10
    route_tol = 1e-8
    model = zoo.build("cox_rc")
    c, s = model.components, model.state
    sf, adj, lfd = pipeline(model)
    assert np.all(sf.kappa == 0.0)
    ratio = adj / sf.gamma[:, np.newaxis]
    gap_ratio = maxabs(lfd.values - ratio)
    assert gap_ratio <= ratio_tol

    indep = zoo.build("cox_rc", theta=0.0)
    _, _, lfd0 = pipeline(indep)
    gap_half = maxabs(lfd0.values - 0.5)
    assert gap_half <= ratio_tol

    fisher = fisher_information(model.exact, c, s)
    eff = efficient_information(model.exact, c, s, lfd.values, adj, fisher)
    assert eff.discrepancy <= route_tol
    eig = min_eigen_sym(eff.by_score)
    assert eig > 0.0
    print(f"AC4 PASS: kernel identically zero; solver vs adjoint/gamma "
          f"ratio gap {gap_ratio:.2e} (tol {ratio_tol:.0e}); independence "
          f"direction off 1/2 by {gap_half:.2e}; route discrepancy "
          f"{eff.discrepancy:.2e} (tol {route_tol:.0e}), min eigen {eig:.2e}")


def test_ac05_current_status_cumulative_and_efficient_score_displays():
    model = zoo.build("cox_cs", m=200)
    c, s = model.components, model.state
    eta = s.eta
    sf, adj, lfd = pipeline(model)
    refs = model.references
    target = refs["cumulative_target"]
    bound = refs["truncation_bound"]
    pts = eta.grid.points
    m = pts.size

    cum = np.array([cumulative(lfd.values[:, 0], eta, t) for t in pts])
    gap = np.abs(cum - target)[1:m - 1]
    allowance = 5.0 * bound[1:m - 1]
    assert np.all(gap <= allowance)
    worst_cum = float(np.max(gap / allowance))

    # the same per-point allowance governs the efficient score display,
    # with a small absolute floor where the bound itself underflows
    floor = 1e-10
    es = efficient_score_function(c, s, lfd.values)
    ref_es = refs["efficient_score"]
    worst_es = 0.0
    for obs in model.exact.outcomes:
        tol = 5.0 * bound[obs.u_index] + floor
        d = abs(float(es(obs)[0]) - float(ref_es(obs)))
        assert d <= tol, (obs, d, tol)
        worst_es = max(worst_es, d / tol)
    print(f"AC5 PASS: m=200 cumulative identity within {worst_cum:.2e} of "
          f"its 5x truncation allowance at interior points; efficient "
          f"score within {worst_es:.2e} of the same allowance at all "
          f"{len(model.exact.outcomes)} outcomes")


def test_ac06_survival_influence_and_multiplication_operator():
    infl_tol = 1e-8
    model = zoo.build("kaplan_meier")
    c, s = model.components, model.state
    eta = s.eta
    refs = model.references
    sf = refs["structural"]

    worst = 0.0
    for t in eta.grid.points:
        chi = refs["chi_dot"](t)
        lfd = least_favorable_direction(sf, eta, c.tangent, chi)
        assert lfd.solve_result.relative_residual <= NONREGULAR_RESID_TOL
        closed = refs["influence"](t)
        for obs in model.exact.outcomes:
            d = abs(score_operator(c, s, obs, lfd.values)
                    - float(closed(obs)))
            assert d <= infl_tol, (t, obs, d)
            worst = max(worst, d)

    assert np.all(sf.kappa == 0.0)
    assert maxabs(sf.gamma - refs["pi"]) == 0.0
    op = info_operator(sf, eta, c.tangent)
    rng = np.random.default_rng(6)
    for _ in range(10):
        a = rng.uniform(-1.0, 1.0, eta.size)
        assert np.all(apply(op, a) == sf.gamma * a)
    print(f"AC6 PASS: operator-route influence within {worst:.2e} of the "
          f"closed form at every grid point (tol {infl_tol:.0e}); "
          f"information operator acts exactly as multiplication by the "
          f"at-risk probability")


def test_ac07_recurrent_direct_assembly_matches_simplified_form():
    tol = 1e-9
    gaps = {}
    for transform in ("identity", "log1p"):
        model = zoo.build("recurrent_transform", transform=transform)
        sf = structural_functions(model.exact, model.components, model.state)
        gap = maxabs(sf.gamma - model.references["gamma"])
        assert gap <= tol, (transform, gap)
        gaps[transform] = gap
    print(f"AC7 PASS: stacked direct assembly vs simplified multiplier, "
          f"gap {gaps['identity']:.2e} (identity), {gaps['log1p']:.2e} "
          f"(log1p), tol {tol:.0e}")


def test_ac08_missing_covariates_closed_forms_and_conditions():
    tol = 1e-9
    model = zoo.build("missing_cov")
    sf = structural_functions(model.exact, model.components, model.state)
    worst = 0.0
    for name in STRUCTURAL_NAMES:
        gap = maxabs(getattr(sf, name) - model.references[name])
        assert gap <= tol, (name, gap)
        worst = max(worst, gap)

    ok, diag = zoo.invertibility_conditions(model)
    assert ok is True and diag["failing"] == []
    ok_cell, diag_cell = zoo.invertibility_conditions(
        zoo.build("missing_cov", zero_cell=True))
    assert ok_cell is False
    assert "selection_positivity" in diag_cell["failing"]
    ok_z, diag_z = zoo.invertibility_conditions(
        zoo.build("missing_cov", degenerate_z=True))
    assert ok_z is False
    assert "cell_information" in diag_z["failing"]
    print(f"AC8 PASS: four closed forms within {worst:.2e} (tol {tol:.0e}); "
          f"conditions hold at defaults and fail as "
          f"{diag_cell['failing']} / {diag_z['failing']} on the "
          f"engineered degeneracies")


def test_ac09_partitioned_information_identities_on_random_matrices():
    identity_tol = 1e-10
    rng = np.random.default_rng(909)
    worst_identity = 0.0
    worst_ordering = np.inf
    for _ in range(100):
        p = int(rng.integers(1, 6))
        q = int(rng.integers(1, 6))
        n = p + q
        a = rng.normal(size=(n, n))
        info = BlockInformation.from_matrix(a @ a.T + 0.5 * np.eye(n), p)
        worst_identity = max(worst_identity,
                             block_inverse_identity_check(info))
        gap = info.i_tt - efficient_info_parametric(info)
        worst_ordering = min(worst_ordering, min_eigen_sym(gap))
    assert worst_identity <= identity_tol
    assert worst_ordering >= -identity_tol
    print(f"AC9 PASS: 100 random partitioned matrices, block inverse "
          f"identity off by {worst_identity:.2e} (tol {identity_tol:.0e}), "
          f"profiled-information ordering min eigen {worst_ordering:.2e} "
          f">= -{identity_tol:.0e}")


def test_ac10_category_classification_and_identifiability_surrogate():
    pos_tol = 1e-8
    zero_tol = 1e-10
    eigens = {}
    for model_id in ALL_IDS:
        model = zoo.build(model_id)
        rep = analyze_model(model.components, model.state, model.exact)
        assert rep.category.category is model.expected_category, model_id
        assert rep.identifiability.min_eigen > pos_tol, \
            (model_id, rep.identifiability.min_eigen)
        eigens[model_id] = rep.identifiability.min_eigen

    degenerate = [
        ("cox_rc", {"duplicated_covariate": True}),
        ("mixture", {"constant_kernel": True}),
        ("missing_cov", {"zero_cell": True}),
    ]
    degen_eigens = []
    for model_id, params in degenerate:
        model = zoo.build(model_id, **params)
        rep = analyze_model(model.components, model.state, model.exact)
        assert rep.identifiability.min_eigen <= zero_tol, \
            (model_id, params, rep.identifiability.min_eigen)
        degen_eigens.append(rep.identifiability.min_eigen)
    worst_pos = min(eigens.values())
    worst_degen = max(degen_eigens)
    print(f"AC10 PASS: categories reproduced on all six models; joint Gram "
          f"min eigen >= {worst_pos:.2e} well-specified (tol {pos_tol:.0e}), "
          f"<= {worst_degen:.2e} on the three degeneracies (tol "
          f"{zero_tol:.0e})")


def test_ac11_validate_determinism_and_cli_exit_codes(tmp_path, capsys):
    def write_cfg(doc, name):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    ok_cfg = write_cfg({
        "schema_version": 1,
        "command": "validate",
        "validate": {"seed": 11},
    }, "ok.json")
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert main(["--config", ok_cfg, "--out", str(out1)]) == 0
    stdout1 = capsys.readouterr().out
    assert main(["--config", ok_cfg, "--out", str(out2)]) == 0
    stdout2 = capsys.readouterr().out
    report1 = (out1 / "report.json").read_bytes()
    assert report1 == (out2 / "report.json").read_bytes()
    assert stdout1 == stdout2

    # a check failure (difference quotients drowned in rounding noise)
    fail_cfg = write_cfg({
        "schema_version": 1,
        "command": "validate",
        "validate": {"models": ["mixture"], "h": 1e-8},
    }, "fail.json")
    assert main(["--config", fail_cfg, "--out", str(tmp_path / "f")]) == 1
    capsys.readouterr()

    # a config error
    assert main(["--config", str(tmp_path / "absent.json"),
                 "--out", str(tmp_path / "c")]) == 2
    capsys.readouterr()

    # a numerical failure
    mat_path = tmp_path / "info.csv"
    write_matrix_csv(mat_path, np.array([[1.0, 0.0], [0.0, -1.0]]))
    bad_cfg = write_cfg({
        "schema_version": 1,
        "command": "paramcheck",
        "paramcheck": {"path": str(mat_path), "p": 1},
    }, "bad.json")
    assert main(["--config", bad_cfg, "--out", str(tmp_path / "n")]) == 3
    capsys.readouterr()
    n_checks = report1.count(b'"passed"')
    print(f"AC11 PASS: two validate runs byte-identical over {n_checks} "
          f"checks; exit codes 0/1/2/3 observed for success, check "
          f"failure, config error, numerical failure")
