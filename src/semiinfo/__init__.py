"""Numerical calculus of information operators for semiparametric
models with a finite-dimensional parameter and an unknown measure.

The pipeline starts from a model's likelihood factorization, computes
the four structural expectations that define the adjoint of the measure
score and its information operator, solves for least favorable
directions, and assembles efficient scores and efficient information
with independent cross-checks at every step.
"""
from .calculus import (Category, CategoryResult, EfficientInformation,
                       InfoReport, InfluenceResult, adjoint_of_score,
                       analyze_model, classify_category, efficient_information,
                       efficient_score_function, fisher_information,
                       info_operator, least_favorable_direction,
                       local_identifiability, nonparametric_influence,
                       v_operator)
from .engines import (ClosedForm, ExactEnumeration, MonteCarlo,
                      StructuralFunctions, expect, structural_functions)
from .errors import (ConfigError, DimensionError, DomainError, EngineError,
                     EvaluationError, NotAvailableError,
                     NotIdentifiableError, SemiinfoError)
from .likelihood import (ModelComponents, ModelState, TangentKind,
                         joint_score, log_density, score_matrix,
                         score_operator, score_theta)
from .measure import (DiscreteMeasure, Direction, Grid, MeasureKind, center,
                      cumulative, inner_product, mean, norm, perturb_measure)
from .operators import (BlockInformation, KernelOperator, SolveResult, apply,
                        as_matrix, block_inverse_identity_check,
                        efficient_info_parametric, invertibility_verdict,
                        min_eigen_sym, solve)
from .validate import (PropertyResult, check_adjoint_identity,
                       check_centering_construction, check_score_fd,
                       run_suite, suite_for_model)

__version__ = "0.1.0"
