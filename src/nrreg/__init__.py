"""Non-rigid 3-D registration with reweighted sparse data and smoothness
terms, solved by alternating closed-form subproblems."""

from .correspondence import (
    CorrespondenceMap,
    closest_point_refresh,
    load_correspondences,
    merge,
    save_correspondences,
)
from .geometry import (
    Shape,
    build_edge_graph,
    compute_vertex_normals,
    load_shape,
    mean_edge_length,
    save_shape,
)
from .metrics import (
    DistributionFit,
    ErrorReport,
    fit_residual_distributions,
    fitting_error,
    residuals_for_analysis,
)
from .operators import (
    SingularSystemError,
    SystemMatrices,
    SystemStructure,
    TransformStack,
    assemble_B,
    assemble_V,
    assemble_system,
    block_shrink,
    factorize_system,
    shrink,
    solve_X,
)
from .solver import (
    AdmmState,
    RegistrationResult,
    SolverConfig,
    admm_solve,
    evaluate_energy,
    register,
    solve_l2_baseline,
    update_weights,
)
from .synthesis import (
    CorruptionSpec,
    DeformationSpec,
    make_strip,
    perturb_noise,
    perturb_outliers,
    synth_deformation,
)

__version__ = "0.1.0"
