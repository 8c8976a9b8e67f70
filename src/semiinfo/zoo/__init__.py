"""Worked models with closed-form cross-checks.

Each module in this package builds one finite-outcome model wired for the
operator pipeline, together with independently derived reference values
(structural functions, least favorable directions, influence functions)
used to cross-validate the generic machinery; the references are
computed on their first read (see ``base.References``).  Models are
addressed by a snake_case id string, the same id the CLI accepts.
"""
from __future__ import annotations

from ..errors import ConfigError, NotAvailableError
from . import cox_cs, cox_rc, kaplan_meier, missing_cov, mixture, recurrent
from .base import BUILD_ERRORS, ZooModel, build_error, check_state
from .missing_cov import invertibility_conditions

MODELS = {
    "cox_rc": cox_rc.build,
    "cox_cs": cox_cs.build,
    "recurrent_transform": recurrent.build,
    "kaplan_meier": kaplan_meier.build,
    "mixture": mixture.build,
    "missing_cov": missing_cov.build,
}


def build(model_id, **params):
    """Construct the zoo model named by ``model_id``.

    Keyword arguments are passed to the model's builder; see the
    individual modules for what each accepts. The model's references are
    computed on their first read, not here.
    """
    try:
        builder = MODELS[model_id]
    except KeyError:
        known = ", ".join(sorted(MODELS))
        raise ConfigError(f"unknown model id {model_id!r}; known ids: {known}") from None
    try:
        return builder(**params)
    except BUILD_ERRORS as exc:
        raise build_error(model_id, exc) from exc


def _reference(model, name, state=None):
    check_state(model, state)
    try:
        return model.references[name]
    except KeyError:
        raise NotAvailableError(f"{model.model_id} has no closed-form {name!r} reference") from None


def reference_gamma(model, state=None):
    """Closed-form multiplier part of the information operator."""
    return _reference(model, "gamma", state)


def reference_kappa(model, state=None):
    """Closed-form kernel part of the information operator."""
    return _reference(model, "kappa", state)


def reference_adjoint(model, state=None):
    """Closed-form adjoint of the parametric score, an (m, p) array."""
    return _reference(model, "adjoint", state)


def reference_lfd(model, state=None):
    """Closed-form least favorable direction, an (m, p) array or an
    evaluator, for models where one is displayed.  Raises
    NotAvailableError otherwise (notably the mixture model)."""
    return _reference(model, "lfd", state)


__all__ = [
    "MODELS",
    "ZooModel",
    "build",
    "invertibility_conditions",
    "reference_adjoint",
    "reference_gamma",
    "reference_kappa",
    "reference_lfd",
]
