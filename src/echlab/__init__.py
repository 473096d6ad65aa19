"""Exact combinatorics of embedded-orbit index theory.

Quadratic-irrational arithmetic with certified floors, orbit-system
modeling, ECH/J0 index evaluation, best-upper-approximation sets,
generator censuses with growth statistics, and Lefschetz zeta constraints
for surface diffeomorphisms and affine torus maps.
"""

from .census import (
    CensusResult,
    EllipsoidVerification,
    GrowthFit,
    ellipsoid_verify,
    enumerate_generators,
    growth_exponent,
    min_index_on_shells,
    spectrum,
    triangle_lattice_count,
)
from .exactreal import (
    CFExpansion,
    ExactReal,
    ceil_mult,
    compare,
    continued_fraction,
    convergents,
    floor_mult,
    floor_sum,
    make_exact,
)
from .indices import (
    End,
    EndData,
    IndexReport,
    QuadrantCertificate,
    conley_zehnder,
    cylinder_criterion,
    ech_index,
    genus_bound,
    index_envelope,
    index_identity_residual,
    index_report,
    intersection_bound,
    j0_index,
    mod2_grading,
    qbar,
    qbar_quadrant_positive,
)
from .lefschetz import (
    AffineTorusMap,
    TorusOrbitReport,
    ZetaCheck,
    ZetaInstance,
    ZetaSolution,
    lefschetz_number,
    torus_orbit_report,
    torus_periodic_points,
    zeta_identity_check,
    zeta_solve,
)
from .orbits import (
    Generator,
    Homology,
    NullLattice,
    Orbit,
    OrbitSystem,
    ValidationReport,
    is_valid_generator,
    nullhomologous_lattice,
    orbit_order,
    validate_system,
)
from .presets_io import load_preset, preset_names
from .stheta import (
    admissible_end_multiplicity,
    density_profile,
    in_s_theta,
    s_theta_up_to,
    semiconvergents_above,
)

__version__ = "0.1.0"
