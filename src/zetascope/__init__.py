"""Numerics for zeta shifts: twisted Euler products, constructive phase
targets, short-interval scans, mollified equidistribution, and weak
universality certification."""

__version__ = "0.1.0"

from .curve import FrequencyVector, TorusPoint, curve_point, frequency_nonzero, weyl_integral
from .errors import ZetascopeError
from .mollifier import MollifierSpec, bump, fourier_coeffs, mean_over_curve, mollifier_product
from .omega import (
    BoundConstants,
    TargetSpec,
    align_phases,
    calibrate_u0,
    construct_phases,
    prime_cutoff_lower_bound,
    solve_vandermonde,
    tail_constants,
    window_start_log_bound,
)
from .phases import (
    LogDerivSpec,
    PhaseAssignment,
    alternating_phases,
    log_euler_deriv,
    prime_phase_sum,
    prime_phase_sum_deriv,
)
from .primes import BlockSystem, PrimeTable, build_blocks, primes_up_to, short_interval_count
from .scan import Hit, ScanWindow, density_estimate, refine_hit, scan_log_derivs, scan_zeta_derivs
from .universality import (
    UniversalityTarget,
    boundary_max,
    check_disk_approximation,
    choose_disk_shrink,
    choose_taylor_degree,
    run_universality,
    taylor_coeffs,
    threshold_base,
)
from .zeta_engine import (
    SelbergSpec,
    ZeroCount,
    ZetaEval,
    count_zeros,
    log_zeta_derivs,
    log_zeta_tracked,
    selberg_log_zeta,
    selberg_zeta_prime_over_zeta,
    zero_density_envelope,
    zero_ordinates,
    zeta,
    zeta_array,
    zeta_derivs,
)
