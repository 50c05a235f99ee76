"""Fractional Fourier and continuous fractional wavelet transforms."""

from .grid import (
    AxisSpec,
    Grid,
    SampledSignal,
    axis_centered,
    axis_linspace,
    inner_product,
    integrate,
    l1_norm,
    l2_norm,
    sample,
)
from .frft import (
    Dilate,
    FrftPlan,
    Modulate,
    OrderKind,
    TransformOrder,
    Translate,
    apply_operator,
    c_alpha,
    frft_direct,
    frft_fast,
    frft_inverse,
    kernel_eval,
    make_plan,
    natural_output_grid,
)
from .fracconv import frac_convolve, scaled_identity_check, spectral_identity_check
from .wavelets import (
    CATALOG,
    DaughterParams,
    WaveletSpec,
    get_wavelet,
    make_daughter,
    wavelet_l1_norm,
    wavelet_l2_norm,
)
from .scales import ScaleGrid, log_scale_grid
from .admissibility import (
    AdmissibilityReport,
    FrequencyScan,
    admissibility_cache_info,
    admissibility_constant,
    cross_admissibility,
    fractional_spectrum,
)
from .cfrwt import (
    CfrwtCoefficients,
    ReproducingKernelPoint,
    cfrwt_direct,
    cfrwt_fast,
    inner_product_relation_check,
    kernel_projection,
    plancherel_check,
    range_membership_residual,
    reconstruct,
    reproducing_kernel,
    truncated_coverage,
)
from .uncertainty import (
    LocalEntry,
    LocalUncertaintyReport,
    MomentSpec,
    UncertaintyReport,
    dispersion,
    heisenberg_cfrwt,
    heisenberg_two_domain,
    lemma_moment_identity_check,
    local_uncertainty_scan,
    restricted_energy_identity_check,
)
from .morrey import (
    MorreyConfig,
    MorreyEstimate,
    default_morrey_config,
    morrey_bound_check,
    morrey_distance_checks,
    morrey_norm,
)
from .io import (
    RunConfig,
    parse_run_config,
    read_coefficients,
    read_csv,
    read_signal,
    write_coefficients,
    write_csv,
    write_signal,
)
from .report import VerificationReport
from .verify import run_suite, suite_names

__version__ = "0.1.0"
