"""Symmetrize: project skewness away instead of chasing it.

The right singular vectors B of the standardized third cumulant K belonging
to its smallest singular values minimise ||KB||_F^2; when K is genuinely
rank deficient those projections are exactly weakly symmetric (null third
cumulant). This is the mirror image of projection pursuit.
"""

from pathlib import Path

import numpy as np

from mvskew import (
    load_csv,
    mardia_skewness,
    max_skew,
    min_skew,
    residual_skewness,
    third_moment,
)

iris = load_csv(Path(__file__).resolve().parents[1] / "data" / "iris.csv",
                columns=[1, 2, 3, 4])
np.set_printoptions(precision=4, suppress=True)

basis = min_skew(iris, dimension=2)
print("singular values kept (smallest two of the standardized cumulant):",
      basis.skewness)
print("Linear (original-variable coefficients):")
print(basis.directions)
print("Projections, first rows:")
print(basis.projected[:5])

residual = third_moment(basis.projected, "standardized")
print("\nstandardized third cumulant of the projections:")
print(residual.values)
print(f"largest |entry|: {np.abs(residual.values).max():.4f} "
      "(all close to zero: weak symmetry achieved)")

print(f"\nMardia skewness, original 4 variables: "
      f"{mardia_skewness(iris).value:.4f}")
print(f"Mardia skewness, min-skew projections:  "
      f"{residual_skewness(basis, iris).value:.4f}")
maxbasis = max_skew(iris, iterations=50, components=2)
print(f"Mardia skewness, MAX-skew projections:  "
      f"{residual_skewness(maxbasis, iris).value:.4f}")
print("-> the two ends of the same spectrum")

print("\nprojection moments: mean", basis.projected.mean(axis=0).round(10),
      "covariance")
print((basis.projected.T @ basis.projected / iris.n).round(6))
print("-> unit-variance uncorrelated scores, comparable to N(0,1) margins")
