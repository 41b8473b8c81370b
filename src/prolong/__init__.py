"""Obstruction theory and classification for prolongations of central
extensions of finite groups.

Given a central extension row, an epimorphism on kernels and a normal
injection on quotients, the package decides whether a compatible bottom row
exists (a degree-3 cohomology class vanishes), constructs one as a crossed
product when it does, and enumerates all of them up to equivalence as a
torsor under the degree-2 cohomology of the induced module.
"""

from .errors import (
    CheckItem,
    ObstructionNonzero,
    ProlongError,
    ValidationReport,
)
from .groups import (
    FiniteGroup,
    Homomorphism,
    QuotientData,
    Subgroup,
    all_homomorphisms,
    automorphism_group,
    center,
    cokernel,
    compose,
    direct_product,
    fibers,
    identity_hom,
    image,
    inner_automorphism,
    is_normal,
    kernel,
    quotient,
    subgroup_as_group,
    subgroup_closure,
    trivial_hom,
    validate_group,
)
from .extensions import (
    FactorSet,
    Prolongation,
    Section,
    ShortExtension,
    choose_section,
    factor_set,
    induced_sequence,
    is_central,
    make_extension,
    pullback,
    validate_prolongation,
)
from .cohomology import (
    Cochain,
    CohomologyGroup,
    PiModule,
    abelian_structure,
    coboundary,
    cochain_add,
    cochain_from_values,
    cochain_sub,
    cohomology_group,
    is_coboundary,
    is_cocycle,
    pi_module,
    same_class,
    trivial_module,
    zero_cochain,
)
from .crossed import (
    CrossedModule,
    check_crossed_module,
    induce_crossed_module,
    induced_module_action,
    make_crossed_module,
)
from .obstruction import (
    LiftedFactorSet,
    PreProlongation,
    build_prolongation,
    crossed_product,
    derive,
    lift_factor_set,
    obstruction_class,
    obstruction_cocycle,
    validate_pre,
    verify_covering,
)
from .classify import (
    EquivalenceWitness,
    ProlongationClass,
    are_equivalent,
    brute_force_coverings,
    difference_cocycle,
    enumerate_classes,
    to_crossed_product,
    torsor_act,
)

__version__ = "0.1.0"
