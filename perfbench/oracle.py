"""Independent plain-numpy oracle for the CLI's output files.

The oracle re-reads the input CSV with ``np.loadtxt``, whitens with its own
eigendecomposition and builds the third cumulant with ``np.einsum``; it
imports nothing from mvskew. Checks compare by tolerance, not by bytes, so a
change that moves the last bits of a result still passes.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

# Relative tolerance for quantities the CLI writes at --precision 15.
RTOL = 1e-8
# Seeded directions that every max_skew component must dominate.
DIRECTION_SEED = 20260101
N_DIRECTIONS = 4096
# Directional bootstrap statistics use a 5-iteration search that need not
# reach the maximum, so their lower bracket uses only this many directions.
N_DIRECTIONAL_LOWER = 64

# Published iris values (MaxSkew/MultiSkew R sessions), each with half a
# unit of its last printed digit as tolerance.
IRIS_MARDIA = (2.69722, 5e-6)
IRIS_MARDIA_P = (4.758e-07, 5e-11)
IRIS_PARTIAL = (0.8098, 5e-5)
IRIS_PARTIAL_P = (0.0384, 5e-5)
IRIS_PARTIAL_VECTOR = ([0.5301, 0.4355, 0.4105, 0.4131], 5e-5)
IRIS_FISHER = ([0.3118, 0.3158, -0.2721, -0.1019], 5e-5)


def chi2_sf(statistic: float, dof: int) -> float:
    """P(chi2_dof >= statistic) = Q(dof/2, statistic/2), in closed form.

    For a = dof/2 an integer, Q(a, x) = exp(-x) sum_{j<a} x^j/j!; for a
    half-integer, Q(a, x) = erfc(sqrt x) + exp(-x) sum_{j<a-1/2} x^(j+1/2)/G(j+3/2).
    """
    x = statistic / 2.0
    if x <= 0:
        return 1.0
    log_x = math.log(x)
    if dof % 2 == 0:
        return math.fsum(math.exp(-x + j * log_x - math.lgamma(j + 1))
                         for j in range(dof // 2))
    return math.erfc(math.sqrt(x)) + math.fsum(
        math.exp(-x + (j + 0.5) * log_x - math.lgamma(j + 1.5))
        for j in range((dof - 1) // 2))


def _sample_skewness(y: np.ndarray) -> np.ndarray:
    centered = y - y.mean(axis=0)
    return (centered**3).mean(axis=0) / (centered**2).mean(axis=0) ** 1.5


def _close(name: str, got, want, tol: float) -> list[str]:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape}, expected {want.shape}"]
    err = float(np.max(np.abs(got - want))) if got.size else 0.0
    if not err <= tol:
        return [f"{name}: off by {err:.3e} (tolerance {tol:.3e})"]
    return []


def _read_matrix(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", comments="#", ndmin=2)


def _read_keyvalue(path: Path) -> dict[str, str]:
    out = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition(",")
        out[key] = value
    return out


def _arg(args: tuple[str, ...], flag: str) -> str:
    return args[args.index(flag) + 1]


class Oracle:
    """Reference quantities of one input file, computed once."""

    def __init__(self, path: Path, usecols, iris: bool):
        x = np.loadtxt(path, delimiter=",", skiprows=1, usecols=usecols, ndmin=2)
        self.iris = iris
        self.n, self.d = x.shape
        self.centered = x - x.mean(axis=0)
        cov = self.centered.T @ self.centered / self.n
        lam, vec = np.linalg.eigh(cov)
        self.z = self.centered @ ((vec / np.sqrt(lam)) @ vec.T)
        self.cumulant = np.einsum("ni,nj,nk->ijk", self.z, self.z, self.z) / self.n
        self.mardia = float((self.cumulant**2).sum())
        self.fisher = _sample_skewness(self.centered)
        self.mori = ((self.z**2).sum(axis=1)[:, None] * self.z).mean(axis=0)
        self.singular = np.linalg.svd(self.cumulant.reshape(self.d**2, self.d),
                                      compute_uv=False)
        rng = np.random.default_rng(DIRECTION_SEED)
        self.directions = rng.standard_normal((self.d, N_DIRECTIONS))

    def cubic(self, u: np.ndarray) -> np.ndarray:
        """Skewness of z @ u for unit columns u, as the cubic form of the cumulant."""
        u = u / np.linalg.norm(u, axis=0)
        return np.einsum("ijk,im,jm,km->m", self.cumulant, u, u, u, optimize=True)

    # -- per job kind ----------------------------------------------------

    def check_third(self, out: Path, args) -> list[str]:
        got = _read_matrix(out / "third_standardized.csv")
        want = self.cumulant.reshape(self.d**2, self.d)
        return _close("third standardized", got, want,
                      RTOL * max(1.0, float(np.abs(want).max())))

    def check_skew(self, out: Path, args) -> list[str]:
        fails = []
        fisher = _read_keyvalue(out / "skew_fisher.csv")
        values = [float(v) for k, v in fisher.items() if k.startswith("value.")]
        fails += _close("fisher", values, self.fisher, RTOL)
        for measure, value, vector, dof, stat_scale in (
            ("mardia", self.mardia, None, self.d * (self.d + 1) * (self.d + 2) // 6,
             self.n / 6.0),
            ("partial", float(self.mori @ self.mori), self.mori, self.d,
             self.n / (2.0 * (self.d + 2))),
        ):
            report = _read_keyvalue(out / f"skew_{measure}.csv")
            fails += _close(f"{measure} value", float(report["value"]), value,
                            RTOL * max(1.0, value))
            if vector is not None:
                fails += _close(f"{measure} vector",
                                [float(v) for v in report["vector"].split()],
                                vector, RTOL)
            statistic = stat_scale * value
            fails += _close(f"{measure} statistic", float(report["statistic"]),
                            statistic, RTOL * max(1.0, statistic))
            if int(report["dof"]) != dof:
                fails.append(f"{measure} dof {report['dof']}, expected {dof}")
            pvalue = chi2_sf(statistic, dof)
            fails += _close(f"{measure} pvalue", float(report["pvalue"]), pvalue,
                            RTOL * pvalue + 1e-300)
            if self.iris:
                fixture = IRIS_MARDIA if measure == "mardia" else IRIS_PARTIAL
                fails += _close(f"iris {measure} fixture", float(report["value"]),
                                *fixture)
                fixture = IRIS_MARDIA_P if measure == "mardia" else IRIS_PARTIAL_P
                fails += _close(f"iris {measure} pvalue fixture",
                                float(report["pvalue"]), *fixture)
        if self.iris:
            fails += _close("iris fisher fixture", values, *IRIS_FISHER)
            fails += _close("iris partial vector fixture",
                            [float(v) for v in _read_keyvalue(
                                out / "skew_partial.csv")["vector"].split()],
                            *IRIS_PARTIAL_VECTOR)
        return fails

    def _scores(self, name: str, scores: np.ndarray, k: int) -> list[str]:
        if scores.shape != (self.n, k):
            return [f"{name} scores shape {scores.shape}, expected {(self.n, k)}"]
        fails = _close(f"{name} score means", scores.mean(axis=0), np.zeros(k), RTOL)
        return fails + _close(f"{name} score covariance", scores.T @ scores / self.n,
                              np.eye(k), RTOL)

    def check_maxskew(self, out: Path, args) -> list[str]:
        k = int(_arg(args, "--components"))
        scores = _read_matrix(out / "maxskew_projections.csv")
        fails = self._scores("maxskew", scores, k)
        if fails:
            return fails
        skewness = _read_matrix(out / "maxskew_skewness.csv").ravel()
        fails += _close("maxskew skewness vs scores", skewness,
                        _sample_skewness(scores), RTOL)
        directions = _read_matrix(out / "maxskew_directions.csv")
        fails += _close("maxskew directions", self.centered @ directions, scores,
                        RTOL * float(np.abs(scores).max()))
        scatter = np.loadtxt(out / "maxskew_scatter.csv", delimiter=",",
                             skiprows=1, ndmin=2)
        fails += _close("maxskew scatter", scatter, scores, 0.0)
        # whitened directions behind the scores; z has identity covariance
        found = self.z.T @ scores / self.n
        for j in range(k):
            prior = found[:, :j]
            u = self.directions - prior @ (prior.T @ self.directions)
            best = float(np.abs(self.cubic(u)).max())
            if not skewness[j] >= best - RTOL:
                fails.append(f"maxskew component {j + 1}: skewness {skewness[j]:.9g} "
                             f"below a random direction's {best:.9g}")
        return fails

    def check_minskew(self, out: Path, args) -> list[str]:
        m = int(_arg(args, "--dimension"))
        fails = self._scores("minskew", _read_matrix(out / "minskew_projections.csv"), m)
        values = _read_matrix(out / "minskew_skewness.csv").ravel()
        return fails + _close("minskew singular values", values,
                              self.singular[self.d - m:], RTOL * self.singular[0])

    def check_boot(self, out: Path, args) -> list[str]:
        replicates = int(_arg(args, "--replicates"))
        measure = _arg(args, "--measure")
        reps = _read_matrix(out / "boot_replicates.csv").ravel()
        summary = _read_keyvalue(out / "boot_summary.csv")
        observed = float(summary["observed"])
        fails = []
        if reps.size != replicates or int(summary["replicates"]) != replicates:
            fails.append(f"boot: {reps.size} replicates written, {replicates} asked")
        pvalue = (1 + int(np.count_nonzero(reps >= observed))) / (reps.size + 1)
        fails += _close("boot pvalue", float(summary["pvalue"]), pvalue, 1e-12)
        histogram = np.loadtxt(out / "boot_histogram.csv", delimiter=",",
                               skiprows=1, ndmin=2)
        if int(histogram[:, 2].sum()) != replicates:
            fails.append("boot histogram counts do not sum to the replicates")
        if measure == "Mardia":
            fails += _close("boot observed", observed, self.mardia,
                            RTOL * max(1.0, self.mardia))
        else:
            # squared skewness of some unit direction: at most Mardia's value
            # (Cauchy-Schwarz), at least that of a few seeded directions
            few = self.directions[:, :N_DIRECTIONAL_LOWER]
            lower = float(np.abs(self.cubic(few)).max()) ** 2
            if not lower - RTOL <= observed <= self.mardia * (1 + RTOL):
                fails.append(f"boot Directional observed {observed:.9g} outside "
                             f"[{lower:.9g}, {self.mardia:.9g}]")
        return fails

    def check(self, kind: str, out: Path, args) -> list[str]:
        method = getattr(self, "check_" + kind.split("_")[0])
        try:
            return method(out, args)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return [f"{kind}: unreadable output ({type(exc).__name__}: {exc})"]
