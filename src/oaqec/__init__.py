"""Mixed-level orthogonal arrays compiled into quantum codes, with dual
combinatorial and exact quantum-side verification."""

from .algebra import Field, factorize_prime_powers, field_create, is_prime_power
from .arrays import (
    DEFAULT_VERIFICATION_BUDGET,
    BalanceWitness,
    DistanceProfile,
    MixedLevelArray,
    attach_index_column,
    certify,
    claim,
    delete_columns,
    derive_subarray,
    distance_profile,
    ensure_checked,
    expansive_replacement,
    from_text,
    is_orthogonal_array,
    minimal_distance,
    multiply_oa,
    saturated_hd_formula,
    saturation_check,
    to_text,
)
from .constructions import (
    AssetRecord,
    asset_add,
    asset_get,
    asset_list,
    asset_records,
    bush,
    full_factorial_mixed,
    hyperoval_oa,
    resolve_symmetric_oa,
)
from .formats import (
    code_from_ket_text,
    code_from_record_text,
    code_record,
    code_to_ket_text,
    code_to_record_text,
    fixture_names,
    load_fixture,
    parse_ket_text,
    provenance_block,
)
from .schemes import (
    DifferenceScheme,
    d3_scheme,
    d_2s,
    is_difference_scheme,
    oa_from_scheme,
)
from .synthesis import (
    CodeParams,
    OrthogonalPartition,
    Provenance,
    QuantumCode,
    admissible_m_range,
    code_from_partitioned_oa,
    corollary_5lie,
    m_value,
    make_code_params,
    partition_by_prefix,
    singleton_bound,
    theorem_52s,
    theorem_5s2,
    theorem_huan,
    theorem_s1,
    theorem_tn,
)
from .tables import (
    RowResult,
    TableRowExpectation,
    build_row,
    expectations,
    render_report,
    reproduce,
)
from .verify import (
    CrossValidation,
    ReducedCrossMatrix,
    ReductionWitness,
    VerificationReport,
    cross_validate,
    reduced_cross_matrix,
    verify_code,
)

__version__ = "0.1.0"
