"""Orthogonal irreducible decomposition of tensors over 3-D space."""

from .core import (
    as_tensor,
    contract_complete,
    contract_double,
    contract_single,
    delta,
    epsilon,
    frobenius,
    frobenius_norm,
    outer,
    symmetrize,
    trace_pair,
)
from .rotations import check_rotation, random_rotation, rotate, rotation_about
from .harmonic import (
    DeviatorBasis,
    build_basis,
    coords,
    from_coords,
    is_deviator,
    project_deviator,
)
from .decomposition import (
    Decomposition,
    IrreduciblePart,
    VerifyReport,
    combine_deviator_triple,
    count_parts,
    counts_row,
    decompose,
    part_orders,
    reconstruct,
    split_deviator_triple,
    trinomial,
    verify,
)
from .closedform import (
    assemble_order3,
    assemble_order4,
    fit_structural_coefficients,
    lift_kernel4,
    structural_coefficients,
)
from .physics import (
    CouplingDeviators,
    StiffnessDeviators,
    VOIGT_PAIRS,
    coupling_coefficient_diff,
    coupling_decompose,
    coupling_reconstruct,
    isotropic_stiffness,
    stiffness_decompose,
    stiffness_reconstruct,
    tensor_to_voigt,
    validate_coupling,
    validate_stiffness,
    voigt_to_tensor,
)
from .serialization import (
    decomposition_from_json,
    decomposition_to_json,
    load_decomposition,
    load_tensor,
    load_voigt,
    save_decomposition,
    save_tensor,
    save_voigt,
    tensor_from_json,
    tensor_to_json,
    voigt_from_text,
    voigt_to_json,
    voigt_to_text,
)

__version__ = "0.1.0"
