"""mvskew: detect, measure, and remove multivariate skewness.

The toolkit is organized around the third multivariate moment of an n x d
sample, stored as a d^2 x d matrix. On top of it sit the classical scalar
skewness measures (per-variable Fisher, Mardia, partial, directional) with
parametric and bootstrap p-values, a projection pursuit that finds
mutually orthogonal directions of maximal skewness, and its converse, a
linear transformation that projects skewness away.
"""

from .bootstrap import BootstrapResult, skew_boot
from .data import (
    DataError,
    DataMatrix,
    PreconditionError,
    SingularityError,
    covariance,
    inv_sqrt,
    load_csv,
    standardize,
)
from .measures import (
    SkewnessReport,
    chi2_sf,
    directional_skewness,
    fisher_skew,
    mardia_skewness,
    partial_skewness,
)
from .moments import (
    ThirdMomentMatrix,
    block,
    cumulant_from_moments,
    load_third_moment,
    save_third_moment,
    third_moment,
    transform_third,
)
from .projection import ProjectionBasis, max_skew
from .symmetrize import min_skew, residual_skewness

__version__ = "0.1.0"

__all__ = [
    "BootstrapResult",
    "DataError",
    "DataMatrix",
    "PreconditionError",
    "ProjectionBasis",
    "SingularityError",
    "SkewnessReport",
    "ThirdMomentMatrix",
    "block",
    "chi2_sf",
    "covariance",
    "cumulant_from_moments",
    "directional_skewness",
    "fisher_skew",
    "inv_sqrt",
    "load_csv",
    "load_third_moment",
    "mardia_skewness",
    "max_skew",
    "min_skew",
    "partial_skewness",
    "residual_skewness",
    "save_third_moment",
    "skew_boot",
    "standardize",
    "third_moment",
    "transform_third",
]
