"""Exact evaluators, moment counters, and verification sweeps for character
sums over small multiplicative subgroups of prime fields."""

from .curves import (
    CurveBoundReport,
    CurveSpec,
    check_curve_bound,
    count_points,
    delta_eval,
    discriminant,
    discriminant_f0y,
    resultant,
)
from .exponents import (
    AdmissibleRange,
    EtaTable,
    InductionLevel,
    admissible_range,
    as_fraction,
    binomial_bound,
    curve_bound,
    eta,
    eta_table,
    induction_trace,
    kappa,
    kloosterman_bound,
    monomial_bound,
    q3_bound,
    theorem_bound,
)
from .field import (
    GuardExceeded,
    PrimeModulus,
    SubgroupSpec,
    divisors,
    factorize,
    is_prime,
    least_primitive_root,
    prime_modulus,
    subgroup,
)
from .moments import (
    MomentInequalityReport,
    PowerVectorHistogram,
    j_histogram,
    q_bruteforce,
    q_convolution,
    q_second_route,
    t3_count,
    verify_moment_inequality,
)
from .prng import (
    GeneratorSequence,
    inversive_generator,
    power_generator,
    write_csv,
    write_u64le,
)
from .sums import (
    SparsePolynomial,
    SumValue,
    complete_sum,
    incomplete_subgroup_sum,
    inversive_subgroup_sum,
    kloosterman_subgroup_sum,
    subgroup_sum,
    twisted_sum,
)

__version__ = "0.1.0"
