"""Zero counting for polynomials in z and a modular or elliptic function,
plus the supporting special functions, Pfaffian chains, and bound checks."""
from __future__ import annotations

from .errors import (AmbiguityError, CannotPerturbError, DomainError,
                     DominanceError, InvalidSpecError, MzlError,
                     NonconvergenceError, PoleProximityError,
                     PrecisionLossError, ZeroOnContourError)
from .poly import (BivariatePolynomial, PerturbedComposite, eval_composed,
                   perturb, polynomial_from_json, polynomial_to_json)
from .special import (gauss_relation_residuals, hyp2f1, hyp2f1_with_bound,
                      j_inverse, klein_j, klein_j_derivative, klein_j_pair,
                      ramanujan_inversion_residual)
from .elliptic import (LatticeParams, lattice, wp_analytic, wp_invariants,
                       wp_pair)
from .pfaffian import (MultiPoly, PfaffianChain, PfaffianFunction,
                       build_hypergeometric_chain, build_ratio_chain,
                       chain_residual, khovanskii_zero_bound,
                       ratio_pfaffian_function, real_zero_count)
from .contour import (ArcSegment, Contour, LineSegment, LocalizedZero,
                      WindingResult, circle_contour, crossing_bound_check,
                      dominant_term_bound, localize_zeros,
                      log_derivative_integral, rectangle_contour,
                      winding_number)
from .domains import (JDomainSpec, WpDomainSpec, ZeroCountReport,
                      bezout_step_bound, build_j_contour, build_wp_contour,
                      count_zeros_j, count_zeros_wp, line_im_zero_count,
                      proposition_bound, random_polynomial, theorem1_bound,
                      theorem2_bound, theorem2_proof_bound,
                      verify_bound_inequalities)
from .config import RunConfig, load_config
from .verify import run_selftest, run_suites

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
