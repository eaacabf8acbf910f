"""Schmidt decomposability toolkit for pure multipartite quantum states.

Decides whether an n-partite pure state admits a joint Schmidt form
sum_l c_l |l_1>...|l_n> with one orthonormal family per subsystem,
produces the form when it exists, and covers the surrounding toolbox:
bipartite decompositions, the equal-reduced-spectra necessary
condition, exact best-bipartition search, tensor composition,
purification and purification linking, plus a JSON file CLI.
"""

from .bipartite import (
    BipartiteDecomposition,
    schmidt_decompose_bipartite,
    schmidt_number,
    spectra,
)
from .compose import (
    Grouping,
    RankInequalityReport,
    SchmidtDimension,
    compose,
    enumerate_groupings,
    rank_inequality_check,
    schmidt_dimension,
)
from .errors import (
    CoefficientsMismatch,
    DegenerateCombination,
    DifferentStates,
    DimensionMismatch,
    GroupingMismatch,
    IndicesOutOfRange,
    InvalidArgs,
    InvalidPartition,
    MalformedCut,
    NoPairFound,
    NotDecomposable,
    NotNormalizable,
    NotPSD,
    OverflowRisk,
    ProductOverflow,
    RankTooLarge,
    ReferenceTooSmall,
    SchmidtError,
    TooFewSubsystems,
    TooManySubsystems,
)
from .fixtures import basis_state, bell, ghz, haar_random_state, w_state
from .io import (
    dumps_canonical,
    load_decomposition,
    load_density,
    load_state,
    report_to_dict,
    save_decomposition,
    save_density,
    save_state,
)
from .multipartite import (
    DecomposabilityReport,
    apply_local_unitaries,
    check_decomposable,
    equal_spectra_check,
    local_unitary_link,
    random_decomposable_state,
    random_decomposition,
)
from .partition import (
    PartitionInstance,
    PartitionSolution,
    SubsetSumReduction,
    decide,
    max_schmidt_number,
    qubit_bound,
    subset_sum_to_partition,
)
from .purify import (
    Purification,
    linking_unitary,
    purification_class,
    purify,
    trace_out_reference,
)
from .state import (
    Bipartition,
    DensityMatrix,
    SchmidtDecomposition,
    StateTensor,
    flatten,
    new_state,
    partial_trace,
    pure_density,
    reconstruct,
    reduced_density,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # states and structure
    "StateTensor",
    "new_state",
    "Bipartition",
    "DensityMatrix",
    "SchmidtDecomposition",
    "flatten",
    "reduced_density",
    "partial_trace",
    "pure_density",
    "reconstruct",
    # fixtures
    "w_state",
    "ghz",
    "bell",
    "basis_state",
    "haar_random_state",
    # bipartite
    "BipartiteDecomposition",
    "schmidt_decompose_bipartite",
    "schmidt_number",
    "spectra",
    # multipartite engine
    "DecomposabilityReport",
    "equal_spectra_check",
    "check_decomposable",
    "random_decomposition",
    "random_decomposable_state",
    "apply_local_unitaries",
    "local_unitary_link",
    # partition
    "PartitionInstance",
    "PartitionSolution",
    "SubsetSumReduction",
    "max_schmidt_number",
    "decide",
    "qubit_bound",
    "subset_sum_to_partition",
    # compose
    "Grouping",
    "SchmidtDimension",
    "RankInequalityReport",
    "enumerate_groupings",
    "compose",
    "schmidt_dimension",
    "rank_inequality_check",
    # purify
    "Purification",
    "purify",
    "trace_out_reference",
    "linking_unitary",
    "purification_class",
    # io
    "load_state",
    "save_state",
    "load_density",
    "save_density",
    "load_decomposition",
    "save_decomposition",
    "report_to_dict",
    "dumps_canonical",
    # errors
    "SchmidtError",
    "DimensionMismatch",
    "NotNormalizable",
    "InvalidPartition",
    "TooFewSubsystems",
    "TooManySubsystems",
    "NoPairFound",
    "RankTooLarge",
    "CoefficientsMismatch",
    "NotDecomposable",
    "ProductOverflow",
    "OverflowRisk",
    "GroupingMismatch",
    "InvalidArgs",
    "DegenerateCombination",
    "ReferenceTooSmall",
    "NotPSD",
    "DifferentStates",
    "MalformedCut",
    "IndicesOutOfRange",
]
