"""Desk-scale Dirichlet L-function engine.

Covers the rational-field instance end to end: character enumeration with
conductors, Hurwitz-zeta backed L-evaluation, completed L-functions and root
numbers, zero location certified by the argument principle, and the
arithmetic prime sums that feed the verification harness.
"""

from zerokit.dirichlet.characters import (
    DirichletCharacter,
    char_label,
    char_value,
    conjugate_character,
    enumerate_characters,
    primitive_characters,
    primitive_inducer,
    product_character,
)
from zerokit.dirichlet.hurwitz import hurwitz_zeta, hurwitz_zeta_vec
from zerokit.dirichlet.lfunctions import (
    GammaPoleError,
    completed_l,
    digamma,
    gamma_factor,
    gamma_factor_log_deriv,
    l_eval,
    l_eval_by_inducer,
    l_eval_vec,
    log_deriv_series,
    log_deriv_tail_bound,
    loggamma,
    root_number,
    trigamma,
    trivial_zeros,
)
from zerokit.dirichlet.arith import (
    harmonic_sum,
    primes_up_to,
    smoothed_harmonic_sum,
    von_mangoldt_sum,
)
from zerokit.dirichlet.zeros import (
    ZeroSet,
    count_zeros_circle,
    scan_zeros,
)
from zerokit.dirichlet.zerocache import DependencyError, ZeroLibrary, read_zero_cache, write_zero_cache

__all__ = [
    "DependencyError",
    "DirichletCharacter",
    "GammaPoleError",
    "ZeroLibrary",
    "ZeroSet",
    "char_label",
    "char_value",
    "completed_l",
    "conjugate_character",
    "count_zeros_circle",
    "digamma",
    "enumerate_characters",
    "gamma_factor",
    "gamma_factor_log_deriv",
    "harmonic_sum",
    "hurwitz_zeta",
    "hurwitz_zeta_vec",
    "l_eval",
    "l_eval_by_inducer",
    "l_eval_vec",
    "log_deriv_series",
    "log_deriv_tail_bound",
    "loggamma",
    "primes_up_to",
    "primitive_characters",
    "primitive_inducer",
    "product_character",
    "read_zero_cache",
    "root_number",
    "scan_zeros",
    "smoothed_harmonic_sum",
    "trigamma",
    "trivial_zeros",
    "von_mangoldt_sum",
    "write_zero_cache",
]
