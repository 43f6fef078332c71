"""Forward and inverse spectral solvers for Sturm-Liouville problems whose
boundary conditions depend on the eigenvalue parameter.

The package covers: quasi-derivative Cauchy problems with L2 antiderivative
potentials, characteristic functions and eigenvalue location, Weyl functions,
extraction of generalized Cauchy data, the moment-system reconstruction of
that data from a subspectrum, basis/conditioning diagnostics, stability
experiments, and a half-inverse (one full spectrum, half-known potential)
driver.  See README.md for the CLI.
"""

__version__ = "0.1.0"

from .errors import (  # noqa: F401
    CommonRoot,
    DimensionMismatch,
    DuplicateEigenvalue,
    IllConditioned,
    NonUniqueWarning,
    NormalizationViolation,
    ParityMismatch,
    PoleProximity,
    RootLoss,
    SchemaError,
    StepFailure,
)
from .types import (  # noqa: F401
    BoundaryPolyPair,
    CauchyData,
    EntirePair,
    SigmaFunction,
    Subspectrum,
    branch_sqrt,
    hp_inner,
    validate_rp,
)

from .forward import (  # noqa: F401
    char_delta,
    char_pair,
    extract_cauchy,
    find_eigenvalues,
    index_search,
    make_delta,
    resample_cauchy,
    weyl,
)
from .halfinverse import (  # noqa: F401
    TwoSidedProblem,
    hl_entire_pair,
    hl_reconstruct,
    hl_spectrum,
    problem_spectrum,
    psi_mid,
)
from .moments import (  # noqa: F401
    MomentSystem,
    basis_diagnostics,
    build_moment_system,
    build_v,
    build_w,
    xi_identity_residual,
)
from .ode import (  # noqa: F401
    monodromy,
    node_values,
    rk4_node_values,
)
from .reconstruct import (  # noqa: F401
    completeness_ratio,
    deltas_from_cauchy,
    moment_identity_check,
    reconstruct,
    solve_moment,
    stability_experiment,
)
