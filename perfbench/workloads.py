"""Workload definitions: seeded input files and the job script of each workload.

Every workload runs the same six job kinds, so every end-to-end metric exists
on every workload; sizes and parameters differ so that each workload puts its
time in different layers.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Job kinds, in the order the end-to-end latency metrics are named.
JOB_KINDS = ("third", "skew", "maxskew", "minskew",
             "boot_directional", "boot_mardia")


@dataclass(frozen=True)
class Job:
    """One CLI invocation of a job script, minus input path and output options."""

    kind: str
    args: tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    n: int          # rows of the generated file (0: the bundled iris file)
    d: int          # numeric columns, the first d of the file
    jobs: tuple[Job, ...]
    label: bool = False  # generated file ends with a text label column

    def input_file(self, root: Path, workdir: Path, seed: int) -> Path:
        """The CSV the program reads; generated files are written to workdir."""
        if self.n == 0:
            return root / "data" / "iris.csv"
        path = workdir / f"{self.name}.csv"
        write_gamma_mixed(path, self.n, self.d, seed, self.label)
        return path


# Seed of the mixing matrix. It is the same for every --seed, so each seed
# draws a new sample from one population and the projection searches do
# comparable work from seed to seed.
MIXING_SEED = 20190326


def gamma_mixed(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """x = G A + noise: iid Gamma(2) columns mixed by a random d x d matrix."""
    a = np.random.default_rng([MIXING_SEED, d]).standard_normal((d, d))
    g = rng.gamma(2.0, size=(n, d))
    return g @ a + 0.1 * rng.standard_normal((n, d))


def write_gamma_mixed(path: Path, n: int, d: int, seed: int, label: bool) -> None:
    rng = np.random.default_rng([seed, n, d])
    values = gamma_mixed(rng, n, d)
    buffer = io.StringIO()
    np.savetxt(buffer, values, fmt="%.9g", delimiter=",")
    lines = buffer.getvalue().splitlines()
    header = [f"x{j + 1}" for j in range(d)]
    if label:
        header.append("label")
        names = rng.choice(np.array(["alpha", "beta", "gamma"]), size=n)
        lines = [f"{line},{name}" for line, name in zip(lines, names)]
    with open(path, "w") as handle:
        handle.write(",".join(header) + "\n")
        handle.write("\n".join(lines) + "\n")


def workloads(small: bool = False) -> dict[str, Workload]:
    """The benchmark's workloads; ``small`` shrinks inputs and replicate counts
    for the benchmark's own smoke test."""
    def reps(count: int) -> str:
        return str(max(2, count // 20) if small else count)

    iris = ("--columns", "1-4")
    tall = ("--columns", "1-8")
    table = [
        Workload("iris-session", 0, 4, (
            Job("third", ("third", "--kind", "standardized") + iris),
            Job("skew", ("skew", "--measure", "all") + iris),
            Job("maxskew", ("maxskew", "--iterations", "50", "--components", "2") + iris),
            Job("minskew", ("minskew", "--dimension", "2") + iris),
            Job("boot_directional", ("boot", "--measure", "Directional",
                                     "--replicates", reps(200), "--units", "150") + iris),
            Job("boot_mardia", ("boot", "--measure", "Mardia",
                                "--replicates", reps(2000), "--units", "150") + iris),
        )),
        # skew runs without --columns, so header/label auto-detection scans
        # every cell; the bootstrap jobs draw 150-row resamples, so on this
        # file they mostly pay load_csv and bypass bootstrap changes.
        Workload("tall-csv", 2000 if small else 200_000, 8, (
            Job("skew", ("skew", "--measure", "all")),
            Job("maxskew", ("maxskew", "--iterations", "50", "--components", "3") + tall),
            Job("minskew", ("minskew", "--dimension", "4") + tall),
            Job("third", ("third", "--kind", "standardized") + tall),
            Job("boot_directional", ("boot", "--measure", "Directional",
                                     "--replicates", reps(20), "--units", "150") + tall),
            Job("boot_mardia", ("boot", "--measure", "Mardia",
                                "--replicates", reps(200), "--units", "150") + tall),
        ), label=True),
        # Directional resamples at d=32 pay d^2+8 restarts per replicate.
        Workload("wide-d32", 300 if small else 2000, 32, (
            Job("third", ("third", "--kind", "standardized")),
            Job("maxskew", ("maxskew", "--iterations", "50", "--components", "2")),
            Job("minskew", ("minskew", "--dimension", "16")),
            Job("skew", ("skew", "--measure", "all")),
            Job("boot_mardia", ("boot", "--measure", "Mardia",
                                "--replicates", reps(200), "--units", "200")),
            Job("boot_directional", ("boot", "--measure", "Directional",
                                     "--replicates", "2" if small else "5",
                                     "--units", "200")),
        )),
    ]
    return {w.name: w for w in table}
