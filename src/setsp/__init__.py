"""Discrete signal processing on set functions (signals indexed by a powerset).

Five shift-derived signal models give five notions of convolution and Fourier
transform on length-2**n set functions; model 5 is the Walsh-Hadamard
transform.  On top of the transforms the package provides coverage-function
spectra, Gaussian joint-entropy oracles, band-limited compression of
expensive oracles, and sparse-spectrum sampling/reconstruction.
"""

from .core import (
    DENSE_MAX_N,
    MAX_N,
    MODELS,
    GroundSet,
    SetFunction,
    SparseSetFunction,
    SparseSpectrum,
    SparseSupport,
    Spectrum,
    is_subset,
    popcount,
    subsets_of_cardinality_at_most,
)
from .io import (
    SetFnFormatError,
    read_covariance,
    read_setfn,
    read_spectrum,
    write_covariance,
    write_setfn,
)
from .transforms import (
    dsft,
    dsft_inplace,
    dsft_matrix,
    fourier_basis_vector,
    idsft,
    kernel,
)
from .filters import (
    Filter,
    convolve,
    frequency_response,
    shift,
    shift_by_set,
)
from .coverage import (
    CoverageRepresentation,
    GaussianModel,
    MiReport,
    coverage_dense,
    coverage_from_setfunction,
    entropy_setfunction,
    fragment_weights_spectrum,
    gaussian_entropy_many,
    intersection_weights,
    mi_check,
    pairwise_mutual_information,
)
from .compression import (
    SetFunctionOracle,
    compress_band,
    estimate_relative_errors,
    wht_regression,
)
from .sampling import (
    eval_sparse_many,
    reconstruct,
    sampling_indices,
    select_support,
    synthetic_sparse_spectrum,
)

__version__ = "0.1.0"
