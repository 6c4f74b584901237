"""Command-line front end: csv in, csv/json out, reproducible.

Subcommands mirror the library: ``third`` (moment matrices), ``skew``
(fisher/mardia/partial reports), ``maxskew`` (most-skewed projections),
``minskew`` (least-skewed projections), ``boot`` (bootstrap p-values).
Exit status is 0 on success, 2 on bad usage or a library
``PreconditionError``, 1 on other data and computation errors, with a
one-line diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .bootstrap import skew_boot
from .data import (DataError, DataMatrix, PreconditionError, SingularityError,
                   format_matrix, load_csv)
from .measures import fisher_skew, mardia_skewness, partial_skewness
from .moments import save_third_moment, third_moment
from .projection import ProjectionBasis, max_skew
from .symmetrize import min_skew

__all__ = ["main"]

ENV_OUTPUT_DIR = "MVSKEW_OUTPUT_DIR"


def _parse_selection(spec: str):
    """Parse a --columns value: names, 1-based indices, and ranges like 1-4."""
    out = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        if "-" in token and not token.lstrip("-").isalpha():
            lo, _, hi = token.partition("-")
            if lo.strip().isdigit() and hi.strip().isdigit():
                lo_i, hi_i = int(lo), int(hi)
                if lo_i > hi_i or lo_i < 1:
                    raise PreconditionError(f"bad range {token!r} in selection")
                out.extend(range(lo_i, hi_i + 1))
                continue
        if token.isdigit():
            out.append(int(token))
        else:
            out.append(token)
    if not out:
        raise PreconditionError(f"empty selection {spec!r}")
    return out


def _parse_rows(spec: str, n: int):
    rows = _parse_selection(spec)
    indices = []
    for r in rows:
        if not isinstance(r, int):
            raise PreconditionError(f"row selection must be numeric, got {r!r}")
        if not 1 <= r <= n:
            raise PreconditionError(f"row {r} out of range 1..{n}")
        indices.append(r - 1)
    return indices


def _load(args) -> DataMatrix:
    header = {"auto": None, "yes": True, "no": False}[args.header]
    columns = _parse_selection(args.columns) if args.columns else None
    data = load_csv(args.input, columns=columns, header=header)
    if args.rows:
        data = data.select_rows(_parse_rows(args.rows, data.n))
    return data


def _out_dir(args) -> Path:
    directory = Path(args.output_dir or os.environ.get(ENV_OUTPUT_DIR) or ".")
    directory.mkdir(parents=True, exist_ok=True)
    return directory


def _fmt(precision: int):
    return lambda x: f"%.{precision}g" % x


def _write_matrix(path: Path, matrix: np.ndarray, precision: int, header=None) -> None:
    with open(path, "w") as handle:
        if header:
            handle.write(",".join(header) + "\n")
        handle.write(format_matrix(matrix, precision))


def _write_keyvalue(path: Path, items, precision: int) -> None:
    show = _fmt(precision)

    def render(value):
        if isinstance(value, (list, tuple, np.ndarray)):
            return " ".join(show(x) for x in np.asarray(value).ravel())
        if isinstance(value, (int, np.integer)) or isinstance(value, str):
            return str(value)
        return show(value)

    with open(path, "w") as handle:
        for key, value in items:
            handle.write(f"{key},{render(value)}\n")


def _json_dump(path: Path, payload) -> None:
    """Write the payload as sorted, indented JSON; numpy arrays become lists."""
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True,
                  default=np.ndarray.tolist)
        handle.write("\n")


def _cmd_third(args) -> int:
    data = _load(args)
    result = third_moment(data, args.kind)
    directory = _out_dir(args)
    if args.format == "json":
        path = directory / f"third_{args.kind}.json"
        _json_dump(path, {"kind": result.kind, "d": result.d,
                          "values": result.values})
    else:
        path = directory / f"third_{args.kind}.csv"
        save_third_moment(result, path, precision=args.precision)
    print(f"wrote {path}")
    return 0


def _cmd_skew(args) -> int:
    data = _load(args)
    wanted = ["fisher", "mardia", "partial"] if args.measure == "all" else [args.measure]
    directory = _out_dir(args)
    for name in wanted:
        if name == "fisher":
            values = fisher_skew(data)
            items = [("measure", "fisher")] + [
                (f"value.{label}", v) for label, v in zip(data.names, values)
            ]
            payload = {"measure": "fisher", "value": values,
                       "variables": data.names}
        else:
            report = mardia_skewness(data) if name == "mardia" else partial_skewness(data)
            items = list(report.to_dict().items())
            payload = report.to_dict()
        if args.format == "json":
            path = directory / f"skew_{name}.json"
            _json_dump(path, payload)
        else:
            path = directory / f"skew_{name}.csv"
            _write_keyvalue(path, items, args.precision)
        show = _fmt(args.precision)
        summary = ", ".join(
            f"{k}={show(v) if isinstance(v, float) else v}" for k, v in items
        )
        print(summary)
        print(f"wrote {path}")
    return 0


def _basis_files(basis: ProjectionBasis, directory: Path, prefix: str, args,
                 linear_name: str, proj_name: str) -> list[Path]:
    if args.format == "json":
        path = directory / f"{prefix}.json"
        payload = {linear_name: basis.directions,
                   "standardized_directions": basis.standardized_directions,
                   "skewness": basis.skewness,
                   proj_name: basis.projected}
        if basis.restarts:  # max_skew's per-component search diagnostics
            payload.update(restarts=basis.restarts, converged=basis.converged)
        _json_dump(path, payload)
        return [path]
    paths = []
    for stem, matrix in ((linear_name, basis.directions),
                         ("skewness", basis.skewness.reshape(1, -1)),
                         (proj_name, basis.projected)):
        path = directory / f"{prefix}_{stem}.csv"
        _write_matrix(path, matrix, args.precision)
        paths.append(path)
    return paths


def _cmd_maxskew(args) -> int:
    data = _load(args)
    basis = max_skew(data, iterations=args.iterations, components=args.components)
    directory = _out_dir(args)
    paths = _basis_files(basis, directory, "maxskew", args,
                         "directions", "projections")
    # scatter data for external plotting: projections with column labels
    scatter = directory / "maxskew_scatter.csv"
    _write_matrix(scatter, basis.projected, args.precision,
                  header=[f"proj{j + 1}" for j in range(basis.projected.shape[1])])
    paths.append(scatter)
    for path in paths:
        print(f"wrote {path}")
    return 0


def _cmd_minskew(args) -> int:
    data = _load(args)
    basis = min_skew(data, dimension=args.dimension)
    directory = _out_dir(args)
    paths = _basis_files(basis, directory, "minskew", args,
                         "linear", "projections")
    for path in paths:
        print(f"wrote {path}")
    return 0


def _cmd_boot(args) -> int:
    data = _load(args)
    result = skew_boot(data, replicates=args.replicates, units=args.units,
                       measure=args.measure, seed=args.seed)
    directory = _out_dir(args)
    summary_items = [
        ("measure", result.measure),
        ("observed", result.observed),
        ("pvalue", result.pvalue),
        ("replicates", args.replicates),
        ("units", args.units),
        ("seed", result.seed),
    ]
    if args.format == "json":
        path = directory / "boot.json"
        _json_dump(path, {
            "measure": result.measure,
            "observed": result.observed,
            "pvalue": result.pvalue,
            "replicates": result.replicates,
            "histogram": result.histogram,
            "units": args.units,
            "seed": result.seed,
        })
        paths = [path]
    else:
        paths = []
        path = directory / "boot_replicates.csv"
        _write_matrix(path, result.replicates.reshape(-1, 1), args.precision)
        paths.append(path)
        path = directory / "boot_histogram.csv"
        show = _fmt(args.precision)
        with open(path, "w") as handle:
            handle.write("lower,upper,count\n")
            for lo, hi, count in result.histogram:
                handle.write(f"{show(lo)},{show(hi)},{count}\n")
        paths.append(path)
        path = directory / "boot_summary.csv"
        _write_keyvalue(path, summary_items, args.precision)
        paths.append(path)
    show = _fmt(args.precision)
    print(f"measure={result.measure}, observed={show(result.observed)}, "
          f"pvalue={show(result.pvalue)}")
    for path in paths:
        print(f"wrote {path}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("input", help="CSV file of observations")
    common.add_argument("--columns", help="columns to use: names, 1-based "
                        "indices, or ranges, e.g. 1-4 or sepal_length,petal_width")
    common.add_argument("--rows", help="1-based row selection, e.g. 1-50")
    common.add_argument("--header", choices=["auto", "yes", "no"], default="auto",
                        help="whether the first row is a header (default: auto)")
    common.add_argument("--output-dir", default=None,
                        help=f"output directory (default: ${ENV_OUTPUT_DIR} or .)")
    common.add_argument("--format", choices=["csv", "json"], default="csv")
    common.add_argument("--precision", type=int, default=6,
                        help="significant digits in output, 1..15 (default 6)")

    parser = argparse.ArgumentParser(
        prog="mvskew",
        description="Detect, measure, and remove multivariate skewness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("third", parents=[common],
                       help="third moment matrix of the data")
    p.add_argument("--kind", choices=["raw", "central", "standardized"],
                   required=True)
    p.set_defaults(func=_cmd_third)

    p = sub.add_parser("skew", parents=[common],
                       help="skewness measures and parametric p-values")
    p.add_argument("--measure", choices=["fisher", "mardia", "partial", "all"],
                   default="all")
    p.set_defaults(func=_cmd_skew)

    p = sub.add_parser("maxskew", parents=[common],
                       help="orthogonal projections of maximal skewness")
    p.add_argument("--iterations", type=int, default=50)
    p.add_argument("--components", type=int, default=1)
    p.set_defaults(func=_cmd_maxskew)

    p = sub.add_parser("minskew", parents=[common],
                       help="projections that alleviate skewness")
    p.add_argument("--dimension", type=int, required=True)
    p.set_defaults(func=_cmd_minskew)

    p = sub.add_parser("boot", parents=[common],
                       help="bootstrap p-value for a skewness measure")
    p.add_argument("--measure", required=True,
                   help="Directional, Partial, or Mardia")
    p.add_argument("--replicates", type=int, required=True)
    p.add_argument("--units", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_boot)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if not 1 <= args.precision <= 15:
        print(f"mvskew: precision must be in 1..15, got {args.precision}",
              file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except PreconditionError as exc:
        print(f"mvskew: {exc}", file=sys.stderr)
        return 2
    except (DataError, SingularityError, FileNotFoundError) as exc:
        print(f"mvskew: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
