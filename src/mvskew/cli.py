"""Command-line front end: csv in, csv/json out, reproducible.

Subcommands mirror the library: ``third`` (moment matrices), ``skew``
(fisher/mardia/partial reports), ``maxskew`` (most-skewed projections),
``minskew`` (least-skewed projections), ``boot`` (bootstrap p-values).
Exit status is 0 on success, 2 on bad usage or a library
``PreconditionError``, 1 on other data, computation and file-system
errors, with a one-line diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import sys
from pathlib import Path

import numpy as np

from .bootstrap import MEASURES, skew_boot
from .data import (DataError, DataMatrix, PreconditionError, SingularityError,
                   format_slices, load_csv, require_count)
from .measures import fisher_skew, mardia_skewness, partial_skewness
from .moments import KINDS, save_third_moment, third_moment
from .projection import ProjectionBasis, max_skew
from .symmetrize import min_skew

__all__ = ["main"]

SKEW_MEASURES = ("fisher", "mardia", "partial")


def _is_index(text: str) -> bool:
    """Whether ``text`` is ASCII digits, less outer whitespace: int refuses '²'."""
    return text.strip().isascii() and text.strip().isdigit()


def _parse_selection(spec: str):
    """Parse a --columns or --rows value: names, 1-based indices, and ranges
    like 1-4. Every token is checked first; a range's indices are then made
    only as they are read, so the first one out of bounds ends the check."""
    parts = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        lo, _, hi = token.partition("-")
        if _is_index(lo) and _is_index(hi):
            lo_i, hi_i = int(lo), int(hi)
            if lo_i > hi_i or lo_i < 1:
                raise PreconditionError(f"bad range {token!r} in selection")
            parts.append(range(lo_i, hi_i + 1))
        else:
            parts.append((int(token) if _is_index(token) else token,))
    if not parts:
        raise PreconditionError(f"empty selection {spec!r}")
    return itertools.chain.from_iterable(parts)


def _parse_rows(spec: str, n: int):
    rows = []
    for r in _parse_selection(spec):
        require_count("row", r, 1, n)
        rows.append(r - 1)
    return rows


def _load(args) -> DataMatrix:
    header = {"auto": None, "yes": True, "no": False}[args.header]
    columns = _parse_selection(args.columns) if args.columns else None
    data = load_csv(args.input, columns=columns, header=header)
    return data.select_rows(_parse_rows(args.rows, data.n)) if args.rows else data


def _cell(value, precision: int) -> str:
    """One value as text: strings and integers as they are, other numbers
    at ``precision`` significant digits, arrays space-separated."""
    if isinstance(value, (list, tuple, np.ndarray)):
        return " ".join(_cell(x, precision) for x in np.asarray(value).ravel())
    if isinstance(value, (str, int, np.integer)):
        return str(value)
    return f"%.{precision}g" % value


def _field(text: str, special: str = ',"\r\n') -> str:
    """A CSV field, quoted as RFC 4180 asks when it holds a character of
    ``special``: by default , " CR or LF."""
    if any(c in text for c in special):
        return '"' + text.replace('"', '""') + '"'
    return text


def _rows(rows, precision: int) -> str:
    """CSV text with one line per row of cells, e.g. key,value pairs."""
    return "".join(",".join(_field(_cell(v, precision)) for v in row) + "\n"
                   for row in rows)


def _summary(items: dict, precision: int) -> None:
    """Print one line ``key=value, key=value``; a key holding , = " CR or LF
    is quoted as a CSV field, so the line splits back into its pairs."""
    pairs = ((_field(key, ',="\r\n'), _cell(v, precision)) for key, v in items.items())
    print(", ".join(f"{key}={value}" for key, value in pairs))


def _write(args, files: dict, matrix=None) -> None:
    """Write output files in one pass and print ``wrote PATH`` for each, in order.

    The output directory is created on first use. ``files`` maps each file's
    name to its head, written as UTF-8: text, or a dict written as sorted,
    indented JSON with numpy arrays as lists; a function is called with the
    path instead, to write the file itself. The other files then get
    ``matrix``'s CSV rows, if there is one, slice by slice: each slice is
    formatted once, for all of them, and a precision or shape the formatter
    refuses creates no file.
    """
    slices = () if matrix is None else format_slices(matrix, args.precision)
    directory = Path(args.output_dir)
    directory.mkdir(parents=True, exist_ok=True)
    paths = [directory / name for name in files]
    with contextlib.ExitStack() as stack:
        handles = []
        for path, head in zip(paths, files.values()):
            if callable(head):
                head(path)
                continue
            if isinstance(head, dict):
                head = json.dumps(head, indent=2, sort_keys=True,
                                  default=np.ndarray.tolist) + "\n"
            handles.append(stack.enter_context(open(path, "wb")))
            handles[-1].write(head.encode("utf-8"))
        for piece in slices:
            for handle in handles:
                handle.write(piece)
    for path in paths:
        print(f"wrote {path}")


def _cmd_third(args, data: DataMatrix) -> None:
    result = third_moment(data, args.kind)
    name = f"third_{args.kind}.{args.format}"
    if args.format == "json":
        _write(args, {name: {"kind": result.kind, "d": result.d,
                             "values": result.values}})
    else:
        _write(args, {name: lambda path: save_third_moment(result, path, args.precision)})


def _cmd_skew(args, data: DataMatrix) -> None:
    for name in SKEW_MEASURES if args.measure == "all" else (args.measure,):
        if name == "fisher":
            values = fisher_skew(data)
            items = {"measure": "fisher",
                     **{f"value.{label}": v for label, v in zip(data.names, values)}}
            payload = {"measure": "fisher", "value": values, "variables": data.names}
        else:
            report = mardia_skewness(data) if name == "mardia" else partial_skewness(data)
            items = payload = report.to_dict()
        _summary(items, args.precision)
        _write(args, {f"skew_{name}.{args.format}":
                      payload if args.format == "json" else _rows(items.items(), args.precision)})


def _write_basis(args, basis: ProjectionBasis, prefix: str, linear_name: str,
                 scatter: str | None = None) -> None:
    """Write a basis's files; given a ``scatter`` header line, also a
    ``{prefix}_scatter.csv`` of the header and the projections, in the
    projections file's pass."""
    files = {} if scatter is None else {f"{prefix}_scatter.csv": scatter}
    if args.format == "json":
        payload = {linear_name: basis.directions,
                   "standardized_directions": basis.standardized_directions,
                   "skewness": basis.skewness,
                   "projections": basis.projected}
        if basis.restarts:  # max_skew's per-component search diagnostics
            payload.update(restarts=basis.restarts, converged=basis.converged,
                           winners=basis.winners)
        _write(args, {f"{prefix}.json": payload})
    else:
        for stem, matrix in ((linear_name, basis.directions), ("skewness", basis.skewness)):
            _write(args, {f"{prefix}_{stem}.csv": ""}, matrix)
        files = {f"{prefix}_projections.csv": "", **files}
    if files:
        _write(args, files, basis.projected)


def _cmd_maxskew(args, data: DataMatrix) -> None:
    basis = max_skew(data, iterations=args.iterations, components=args.components)
    # scatter data for external plotting: projections with column labels
    header = ",".join(f"proj{j + 1}" for j in range(basis.projected.shape[1])) + "\n"
    _write_basis(args, basis, "maxskew", "directions", header)


def _cmd_minskew(args, data: DataMatrix) -> None:
    _write_basis(args, min_skew(data, dimension=args.dimension), "minskew", "linear")


def _cmd_boot(args, data: DataMatrix) -> None:
    result = skew_boot(data, replicates=args.replicates, units=args.units,
                       measure=args.measure, seed=args.seed)
    summary = {"measure": result.measure, "observed": result.observed,
               "pvalue": result.pvalue}
    _summary(summary, args.precision)
    summary.update(replicates=args.replicates, units=args.units, seed=result.seed)
    if args.format == "json":
        _write(args, {"boot.json": {**summary, "replicates": result.replicates,
                                    "histogram": result.histogram,
                                    "redraws": result.redraws}})
        return
    _write(args, {"boot_replicates.csv": ""}, result.replicates.reshape(-1, 1))
    _write(args, {"boot_histogram.csv":
                  _rows([("lower", "upper", "count"), *result.histogram], args.precision)})
    _write(args, {"boot_summary.csv": _rows(summary.items(), args.precision)})


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("input", help="CSV file of observations")
    common.add_argument("--columns", help="columns to use: names, 1-based "
                        "indices, or ranges, e.g. 1-4 or sepal_length,petal_width")
    common.add_argument("--rows", help="1-based row selection, e.g. 1-50")
    common.add_argument("--header", choices=["auto", "yes", "no"], default="auto",
                        help="whether the first row is a header (default: auto)")
    common.add_argument("--output-dir", default=".",
                        help="output directory (default: .)")
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
    p.add_argument("--kind", choices=KINDS, required=True)
    p.set_defaults(func=_cmd_third)

    p = sub.add_parser("skew", parents=[common],
                       help="skewness measures and parametric p-values")
    p.add_argument("--measure", choices=[*SKEW_MEASURES, "all"],
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
    p.add_argument("--measure", required=True, help=", ".join(MEASURES))
    p.add_argument("--replicates", type=int, required=True)
    p.add_argument("--units", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_boot)
    return parser


def main(argv=None) -> int:
    # stdout is UTF-8, as every file is, in any locale; its error handler stays
    with contextlib.suppress(AttributeError):  # a stdout without reconfigure
        sys.stdout.reconfigure(encoding="utf-8", errors=sys.stdout.errors)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        require_count("precision", args.precision, 1, 15)
        args.func(args, _load(args))
    except (DataError, SingularityError, OSError) as exc:
        print(f"mvskew: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, PreconditionError) else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
