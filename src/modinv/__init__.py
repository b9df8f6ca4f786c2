"""Exact invariant theory of rank-2 reflection groups over prime fields.

Computes ordinary, stable, and generalized invariant ideals of reflection
subgroups of GL_2(F_p), classifies those subgroups up to conjugacy, and
verifies the whole statement catalog mechanically at small primes.
"""

from modinv._kernels import backend
from modinv.fp_arith import binomial_sum_check, lucas_binom, primitive_root
from modinv.fp_linalg import Subspace, kernel
from modinv.grp2 import (
    GroupClass,
    Mat2,
    MatrixGroup,
    Reflection,
    catalog_generators,
    catalog_group,
    classify,
    generate_closure,
    is_reflection,
)
from modinv.poly2 import (
    LinearForm,
    Poly2,
    act,
    delta,
    d0,
    d1,
    div_exact_linear,
    format_poly,
    gamma,
    rho,
    verify_formules,
)
from modinv.graded_ideal import (
    GradedIdeal,
    MonomialFamily,
    basis_check,
    gamma_family,
    ideal_equal,
    invariant_slice,
    minimal_generators,
    omega_family,
    theta_family,
)
from modinv.demazure import (
    GenInvResult,
    chain,
    generalized_ideal,
    verify_operadorsD,
)
# the chain driver itself stays at modinv.stable_chain.stable_chain so the
# function does not shadow its module
from modinv.stable_chain import StableChainResult, compute_J1, next_ideal, verify_basedos
from modinv.report import Check, VerificationReport
from modinv.verify import THEOREMS, emit_report, run_verification

__version__ = "0.1.0"
