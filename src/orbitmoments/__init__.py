"""orbitmoments: exact orbit counting and empirical prime averages."""

from .closed_forms import (
    affine_masses,
    cm_masses,
    cm_moment,
    dk,
    gl2_masses,
    gl2_moment,
    mk,
    moment_of,
    p_poly,
    unit_masses,
)
from .core_arith import (
    CapacityError,
    divisor_count,
    factorize,
    is_prime,
    kronecker_symbol,
    mobius,
    prime_segments,
)
from .local_counts import (
    CURVE_PRESETS,
    BadPrimes,
    PowerEquation,
    WeierstrassCurve,
    count_roots_array,
    count_roots_formula,
    ec_torsion_count_array,
    parse_curve,
)
from .moment_lab import (
    CounterSpec,
    MomentReport,
    PowerCounter,
    PowerProductCounter,
    SplitFilter,
    TorsionCounter,
    characteristic_function,
    clear_stream_memo,
    convergence_trace,
    empirical_distribution,
    empirical_moment,
)
from .orbit_engine import (
    PermutationAction,
    build_action,
    burnside_moment,
    fixed_point_histogram,
)
from .orbit_oracle import orbit_count_oracle
from .residue_algebra import QuadOrderSpec, glm_order, psi

__version__ = "0.1.0"
