"""Command-line surface: fit on CSV data, evaluate functionals, run studies.

Reports are pure functions of the input bytes and the configuration: no
timestamps or other nondeterministic fields appear in report bodies, so
repeated runs are byte-identical.  Every error path exits nonzero with a
single ``error:<code>: message`` line on stderr.
"""

from __future__ import annotations

import argparse
import codecs
import csv
import io
import json
import math
import sys
import warnings
from contextlib import nullcontext

import numpy as np

from .errors import DataError, DomainError, IdentifiabilityError, QuantfuncError
from .model import Dataset, _write_csv, design_diagnostics, empirical_quantile_process
from .ranks import fit_r_estimator
from .two_step import averaged_two_step_process, centered_process, two_step_quantile
from . import functionals as fn
from . import simulation as sim


class CliError(QuantfuncError):
    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


_CHUNK = 1 << 16  # bytes per read of the body scan
_SLICE = 4096     # array values per call of the C encoder
_HOLE = "\x00"    # a report's stand-in for an array that _dump streams
# A body with one of these bytes or a non-ASCII one may pad a cell in a way
# numpy's parser would strip: the ASCII blanks other than a line break, and
# a quote, which can hide a line break in a cell.  Every other whitespace
# character is non-ASCII in UTF-8.
_FLAGGED = b" \t\v\f\x1c\x1d\x1e\x1f\""


def read_csv_dataset(path: str, response: str, covariates: list[str]) -> Dataset:
    """Strict CSV ingestion: header row, comma separator, '.' decimals, UTF-8
    with or without a byte-order mark.

    The header line is read here and the used columns are parsed from the
    open file in one vectorized pass, so the body is never held as one
    string.  Missing, non-numeric, non-finite or whitespace-padded cells,
    and digit separators such as ``1_000``, abort with the offending row
    number.
    """
    columns = [response, *covariates]
    error = None
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            header_line = fh.readline()
            header = [h.strip() for h in next(csv.reader([header_line]))]
            if not header_line.strip() or not all(c in header for c in columns):
                _raise_input_fault(path, columns)
            cols = [header.index(c) for c in columns]
            # numpy's parser strips whitespace around a number, so a body
            # that may pad a cell has each used cell parsed by _cell.  The
            # encoding hands it str: numpy 1.x defaults to latin1 bytes.
            strict = _cell if _needs_cell_check(path, len(header_line.encode())) else None
            try:
                with warnings.catch_warnings():
                    # A body of empty lines is refused as "no data rows" below.
                    warnings.simplefilter("ignore", UserWarning)
                    data = np.loadtxt(fh, delimiter=",", quotechar='"', usecols=cols,
                                      ndmin=2, comments=None, converters=strict,
                                      encoding="utf-8")
            except ValueError as exc:  # a bad cell, or an undecodable byte
                error = exc
        if error is not None or not len(data):
            _raise_input_fault(path, columns)
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError("input", f"cannot read {path}: {exc}") from exc
    if error is not None:
        raise CliError("input", f"{path}: {error}") from error
    try:
        return Dataset(y=data[:, 0], x=data[:, 1:])
    except DataError as exc:  # a non-finite cell is named by its row
        _raise_input_fault(path, columns)
        raise CliError("data", str(exc)) from exc


def _cell(text: str) -> float:
    """The number a used cell holds: plain ASCII, with no blank around it
    and no digit separator, as ``float`` reads it."""
    if text != text.strip() or "_" in text or not text.isascii():
        raise ValueError(f"could not convert string to float: {text!r}")
    return float(text)


def _needs_cell_check(path: str, start: int) -> bool:
    """Whether the file past byte ``start`` holds a non-ASCII byte or one of
    ``_FLAGGED``, read in chunks of ``_CHUNK`` bytes.

    With ``start`` the header line's length in UTF-8, the body begins at
    ``start``, or one byte later when the header ended in ``\\r\\n``, so the
    scan sees the body and at most a newline more; a byte-order mark moves
    both by its 3 bytes."""
    with open(path, "rb") as fh:
        fh.seek(start + 3 * (fh.read(3) == codecs.BOM_UTF8))
        while chunk := fh.read(_CHUNK):
            if not chunk.isascii() or any(byte in chunk for byte in _FLAGGED):
                return True
    return False


def _raise_input_fault(path: str, columns: list[str]) -> None:
    """Read the file again whole and raise for its first fault, in the order
    the checks take: an undecodable byte, a missing header or column, a
    blank body, then the first row with a used cell that is not a plain
    number or not finite.  Rows are numbered by the physical line on which
    they start.  Returns when there is none."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            header_line = fh.readline()
            body = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError("input", f"cannot read {path}: {exc}") from exc
    if not header_line.strip():
        raise CliError("input", f"{path}: empty file, header row required")
    header = [h.strip() for h in next(csv.reader([header_line]))]
    for col in columns:
        if col not in header:
            raise CliError("input", f"{path}: column {col!r} not in header {header}")
    if not body.strip():
        raise CliError("input", f"{path}: no data rows")
    cols = [header.index(c) for c in columns]
    rows, line = csv.reader(io.StringIO(body, newline="")), 2
    for row in rows:
        if row:
            try:
                values = [_cell(row[j]) for j in cols]
            except (ValueError, IndexError) as exc:
                raise CliError("input", f"{path}: row {line}: bad numeric cell ({exc})") from exc
            if not all(map(math.isfinite, values)):
                raise CliError("input", f"{path}: row {line}: non-finite value")
        line = rows.line_num + 2


def _dump(payload, path: str | None) -> None:
    """Write ``json.dumps(payload, sort_keys=True, indent=2)`` and a newline
    to ``path``, or to stdout when there is none.  The indenting encoder is
    slow on long lists, so each top-level 1-D ndarray of a dict payload is
    encoded as ``_HOLE`` and streamed in its place through the C encoder, in
    the indented layout, ``_SLICE`` values per call."""
    arrays = []
    if isinstance(payload, dict):
        arrays = [payload[k] for k in sorted(payload) if isinstance(payload[k], np.ndarray)]
        payload = {k: _HOLE if isinstance(v, np.ndarray) else v for k, v in payload.items()}
    head, *tails = json.dumps(payload, sort_keys=True, indent=2).split(json.dumps(_HOLE))
    with open(path, "w", encoding="utf-8", newline="\n") if path else nullcontext(sys.stdout) as fh:
        fh.write(head)
        for values, tail in zip(arrays, tails):
            sep = "[\n    "
            for start in range(0, values.size, _SLICE):
                fh.write(sep + json.dumps(values[start:start + _SLICE].tolist(),
                                          separators=(",\n    ", ": "))[1:-1])
                sep = ",\n    "
            fh.write(("\n  ]" if values.size else "[]") + tail)
        fh.write("\n")


def run_fit(args) -> None:
    ds = read_csv_dataset(args.input, args.response, args.covariates)
    lam = args.lam
    est = fit_r_estimator(ds, lam) if ds.p else None
    slopes = est.beta_tilde if est else np.zeros(0)
    proc = averaged_two_step_process(ds, lam, slopes=slopes)
    if args.format == "csv":
        proc.to_csv(args.output)
        return
    diag = design_diagnostics(ds)
    report = {
        "lambda": lam,
        "n": ds.n,
        "p": ds.p,
        "slopes": [float(s) for s in slopes],
        "dispersion": est.dispersion if est else None,
        "two_step_intercepts": {
            repr(a): two_step_quantile(ds, a, lam, slopes=slopes).intercept
            for a in args.alphas
        },
        "nuisance_estimate": proc.nuisance_estimate,
        "averaged_process": proc.values,
        "design_diagnostics": {
            "max_centered_norm": diag.max_centered_norm,
            "max_leverage": diag.max_leverage,
            "v_n_over_n_spectral_norm": diag.v_n_over_n_spectral_norm,
            "x1_suspect": diag.x1_suspect,
        },
    }
    _dump(report, args.output)


def run_functional(args) -> None:
    ds = read_csv_dataset(args.input, args.response, args.covariates)
    if ds.p == 0:
        proc, source = empirical_quantile_process(ds.y), "empirical"
    elif args.functional in ("lorenz", "gastwirth_j"):
        # Shares of a total: the centred process has mean zero.
        proc = averaged_two_step_process(ds, args.lam)
        source = "averaged_two_step"
    else:
        proc = centered_process(averaged_two_step_process(ds, args.lam))
        source = "centered_two_step"
    with np.errstate(over="ignore"):  # an overflowed value is refused as not finite
        est = getattr(fn, args.functional)(proc, args.level)
    payload = {
        "kind": est.kind,
        "level": est.level,
        "value": est.value,
        "n": est.n,
        "lambda": args.lam,
        "process_source": source,
    }
    if args.format == "csv":
        _write_csv(args.output, {k: [v] for k, v in payload.items()})
        return
    _dump(payload, args.output)


def _whole(value) -> int:
    """``int(value)``, refusing a float with a fractional part."""
    number = int(value)
    if isinstance(value, float) and number != value:
        raise ValueError(f"{value!r} is not a whole number")
    return number


def _load_sim_config(args) -> tuple[sim.SimulationConfig, str, tuple]:
    """Read and check the whole simulate config before any study runs: the
    study's configuration, its name and its further arguments.

    Missing keys and study problems are reported together.  ``lambda``,
    ``alphas``, ``replications`` and ``seed`` default to those of
    :class:`~quantfunc.simulation.SimulationConfig`.
    """
    if not args.config:
        raise CliError("config", "simulate requires --config with a JSON config file")
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError("config", f"cannot parse config {args.config}: {exc}") from exc
    if not isinstance(raw, dict):
        raise CliError("config", f"config {args.config} must be a JSON object")
    problems = [f"missing key {key!r}" for key in ("n_grid", "p") if key not in raw]
    problems += [f"{key!r} must be a list, got {raw[key]!r}"
                 for key in ("n_grid", "beta", "alphas")
                 if raw.get(key) is not None and not isinstance(raw[key], list)]
    study = raw.get("study", "two_step_rate")
    if study not in ("two_step_rate", "r_estimator_rate", "functional_consistency"):
        problems.append(f"unknown study {study!r}")
    if study == "functional_consistency":
        problems += [f"functional_consistency needs key {key!r}"
                     for key in ("functional", "level") if raw.get(key) is None]
        functional = raw.get("functional")
        if functional is not None and functional not in sim.STUDY_FUNCTIONALS:
            problems.append(f"functional_consistency takes a functional in "
                            f"{list(sim.STUDY_FUNCTIONALS)}, got {functional!r}")
    if problems:
        raise CliError("config", "; ".join(problems))
    if args.seed is not None:
        raw["seed"] = args.seed
    try:
        optional = {name: parse(raw[key]) for key, name, parse in (
            ("lambda", "lam", float), ("replications", "replications", _whole),
            ("seed", "seed", _whole)) if key in raw}
        if raw.get("alphas") is not None:
            optional["alphas"] = tuple(float(a) for a in raw["alphas"])
        config = sim.SimulationConfig(
            n_grid=tuple(_whole(n) for n in raw["n_grid"]), p=_whole(raw["p"]),
            beta0=float(raw.get("beta0", 0.0)),
            beta=tuple(float(b) for b in raw.get("beta", [])),
            error_dist=sim.ErrorDistribution(raw.get("error_dist", "standard_normal"),
                                             float(raw.get("error_param", 1.0))),
            design=raw.get("design", "iid_uniform_cube"), **optional)
        extra = ((raw["functional"], float(raw["level"]))
                 if study == "functional_consistency" else ())
    except (DomainError, TypeError, ValueError, OverflowError) as exc:
        raise CliError("config", str(exc)) from exc
    return config, study, extra


def run_simulate(args) -> None:
    config, study, extra = _load_sim_config(args)
    if study == "two_step_rate":
        reports = sim.rate_study_two_step(config)
    elif study == "r_estimator_rate":
        reports = [sim.rate_study_r_estimator(config)]
    else:
        reports = [sim.functional_consistency_study(config, *extra)]
    if args.format == "csv":
        sim.reports_to_csv(reports, args.output)
        return
    payload = [json.loads(r.to_json()) for r in reports]
    _dump(payload, args.output)


class _Parser(argparse.ArgumentParser):
    """Argument parser whose errors, such as a flag of the wrong type or an
    unknown one, are one ``error:config`` line, like every other error."""

    def error(self, message):
        raise CliError("config", message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="quantfunc",
        description="Quantile functionals of regression errors via averaged "
                    "two-step regression quantiles.",
    )
    parser.add_argument("--command", required=True, choices=("fit", "functional", "simulate"))
    parser.add_argument("--input", help="input CSV path (fit, functional)")
    parser.add_argument("--response", help="response column name")
    parser.add_argument("--covariates", default="",
                        help="comma-separated covariate column names (may be empty)")
    parser.add_argument("--alpha", default="0.5",
                        help="comma-separated quantile levels in (0,1)")
    parser.add_argument("--lambda", dest="lam", type=float, default=0.5,
                        help="level for the rank-based slope estimate")
    parser.add_argument("--functional", help="cvar|mean_excess|lorenz|gastwirth_j|staudte_r")
    parser.add_argument("--level", type=float, help="functional level/threshold")
    parser.add_argument("--output", help="report destination (stdout when omitted)")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--seed", type=int, help="override for the simulation seed")
    parser.add_argument("--config", help="JSON config file (simulate)")
    return parser


def _check_flags(args) -> None:
    """Parse and check every flag, before any input is read."""
    args.covariates = [c for c in args.covariates.split(",") if c.strip()]
    try:
        args.alphas = [float(a) for a in args.alpha.split(",") if a.strip()]
    except ValueError as exc:
        raise CliError("config", f"bad --alpha list: {exc}") from exc
    for a in args.alphas:
        if not 0.0 < a < 1.0:
            raise CliError("config", f"--alpha levels must be in (0, 1), got {a}")
    if not 0.0 < args.lam < 1.0:
        raise CliError("config", f"--lambda must be in (0, 1), got {args.lam}")
    if args.command in ("fit", "functional"):
        if not args.input or not args.response:
            raise CliError("config", f"{args.command} requires --input and --response")
    if args.command == "functional":
        if args.functional not in fn.FUNCTIONALS:
            raise CliError("config", f"unknown functional {args.functional!r}; "
                                     f"choose from {sorted(fn.FUNCTIONALS)}")
        if args.level is None:
            raise CliError("config", "--level is required for a functional run")
    if args.format == "csv" and not args.output:
        raise CliError("config", "csv format requires --output")


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _check_flags(args)
        if args.command == "fit":
            run_fit(args)
        elif args.command == "functional":
            run_functional(args)
        else:
            run_simulate(args)
    except CliError as exc:
        print(f"error:{exc.code}: {exc}", file=sys.stderr)
        return 2
    except (DomainError, DataError) as exc:
        print(f"error:domain: {exc}", file=sys.stderr)
        return 2
    except IdentifiabilityError as exc:
        print(f"error:identifiability: {exc}", file=sys.stderr)
        return 2
    except QuantfuncError as exc:
        print(f"error:solver: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:  # every read maps its own; this is the report's write
        print(f"error:output: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
