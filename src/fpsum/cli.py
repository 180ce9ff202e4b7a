"""Command-line front end.

Subcommands: ml-eval, density, pmf, sample, returns, fit, mc-tables,
converge.  Every command is deterministic given its seed; JSON output is a
single report object carrying ``"schema": "fpsum-output/v1"`` and validating
against ``schemas/fpsum_output.schema.json``.

Exit codes: 0 success, 2 usage error, 3 numeric failure, 4 data error.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import json
import math
import re
import sys
from dataclasses import asdict, astuple

import numpy as np

from .distributions import (
    CompLaw,
    FractionalPoissonLaw,
    MittagLefflerLaw,
    NmlLaw,
    RngStream,
)
from .errors import DataError, DomainError, EstimationError, EvaluationError
from .estimation import MomentSummary, fitted_cumulants, mm_fit
from .random_sums import (
    McExperimentConfig,
    SummandSpec,
    convergence_sweep,
    run_mc_tables,
)
from ._float_text import float_rows
from .special_functions import mittag_leffler

SCHEMA_TAG = "fpsum-output/v1"

# parameters of the bundled synthetic daily-return series (location, squared
# scale, tail parameter, length); used by `fit --demo`
DEMO_MU = 0.00021
DEMO_SIGMA2 = 0.00018
DEMO_KAPPA = 0.49123
DEMO_LENGTH = 2226
DEMO_SEED = 69

# the laws that density, pmf and sample build: --dist name -> (class, its
# parameters in constructor order with their defaults; None means required)
_LAWS = {
    "nml": (NmlLaw, {"mu": 0.0, "sigma2": 1.0, "kappa": None}),
    "ml": (MittagLefflerLaw, {"kappa": None}),
    "fp": (FractionalPoissonLaw, {"nu": None, "kappa": None}),
    "comp": (CompLaw, {"lam": None, "eta": None}),
}


_PRICES = ("date", "close")
_RETURNS = ("date", "log_return")


def load_series(path: str, headers: tuple) -> tuple[list, np.ndarray]:
    """(dates, log-returns) of a returns CSV, or of a prices CSV as r_t =
    ln(P_t / P_{t-1}) dated at t, whose header is one of ``headers``.  Each
    row but a blank one is checked once, in file order: two fields, a finite
    value (a close also positive), and an ISO date after the row above's; the
    first that fails raises a DataError naming its line."""
    try:
        handle = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    with handle:
        reader = csv.reader(handle)
        try:
            header = tuple(h.strip().lower() for h in next(reader))
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        if header not in headers:
            raise DataError(
                f"{path}: header {','.join(header)!r} not one of "
                + " / ".join(",".join(h) for h in headers)
            )
        prices = header == _PRICES
        name, need = ("close", "positive") if prices else ("return", "finite")
        dates, values, last = [], [], None
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != 2:
                raise DataError(f"line {lineno}: expected 2 fields, got {len(row)}")
            date, text = row[0].strip(), row[1].strip()
            try:
                value = float(text)
            except ValueError as exc:
                raise DataError(f"line {lineno}: unparseable {name} {text!r}") from exc
            if not math.isfinite(value) or prices and value <= 0:
                raise DataError(f"line {lineno}: {name} must be {need}, got {text!r}")
            try:
                day = datetime.date.fromisoformat(date)
            except ValueError as exc:
                raise DataError(f"line {lineno}: bad ISO date {date!r}") from exc
            if last is not None and day <= last:
                raise DataError(f"line {lineno}: dates must be strictly increasing at {date!r}")
            dates.append(date)
            values.append(value)
            last = day
    if not prices:
        return dates, np.asarray(values)
    if len(values) < 2:
        raise DataError("need at least two prices to form returns")
    return dates[1:], np.diff(np.log(np.asarray(values)))


def demo_series(seed: int = DEMO_SEED) -> np.ndarray:
    """Synthetic daily log-returns drawn from the bundled NML parameters."""
    return NmlLaw(DEMO_MU, DEMO_SIGMA2, DEMO_KAPPA).sample(RngStream(seed), DEMO_LENGTH)


# ---------------------------------------------------------------------------
# model fits for the comparison report
# ---------------------------------------------------------------------------


def _empirical_cumulants(values: np.ndarray) -> dict:
    n = values.size
    mean = float(values.mean())
    centered = values - mean
    var = float((centered**2).mean())
    if var == 0.0:
        raise EstimationError("degenerate sample: zero variance")
    skew = float((centered**3).mean() / var**1.5)
    kurt = float((centered**4).mean() / var**2 - 3.0)
    return {
        "mean": mean,
        "variance": var,
        "skewness": skew,
        "excess_kurtosis": kurt,
        "n": n,
    }


_PARAMETERS = ("mu", "sigma2", "kappa")


def _model_entry(model: str, estimates, se, cumulants, **extra) -> dict:
    """One model of the fit report: (mu, sigma2, kappa) estimates and their
    standard errors, a NaN one written as None, and the fitted (mean,
    variance, skewness, excess kurtosis); ``extra`` adds fields."""
    return {
        "model": model,
        "estimates": dict(zip(_PARAMETERS, estimates)),
        "se": {p: None if math.isnan(v) else float(v) for p, v in zip(_PARAMETERS, se)},
        "fitted_cumulants": dict(
            zip(("mean", "variance", "skewness", "excess_kurtosis"), cumulants)
        ),
        **extra,
    }


def fit_models(values: np.ndarray, models: tuple[str, ...]) -> dict:
    """Fit the requested models and assemble the comparison report."""
    if values.size < 5:
        raise DataError("need at least 5 returns to fit")
    emp = _empirical_cumulants(values)
    n = emp.pop("n")
    report_models = []
    for model in models:
        if model == "nml":
            fit = mm_fit(MomentSummary.from_sample(values))
            entry = _model_entry(
                "nml",
                (fit.mu_hat, fit.sigma2_hat, fit.kappa_hat),
                fit.se,
                astuple(fitted_cumulants(fit)),
                boundary_flag=fit.boundary_flag.value,
            )
        elif model == "normal":
            mu = float(values.mean())
            s2 = float(values.var())
            entry = _model_entry(
                "normal",
                (mu, s2, 1.0),
                (math.sqrt(s2 / n), math.sqrt(2.0 * s2 * s2 / n), math.nan),
                (mu, s2, 0.0, 0.0),
            )
        elif model == "laplace":
            mu = float(values.mean())
            b = float(np.abs(values - mu).mean())
            if b == 0.0:
                raise EstimationError("degenerate sample: zero absolute deviation")
            entry = _model_entry(
                "laplace",
                (mu, b * b, 0.0),
                (b / math.sqrt(n), 2.0 * b * b / math.sqrt(n), math.nan),
                (mu, 2.0 * b * b, 0.0, 3.0),
                note="sigma2 is the squared scale b^2 of density "
                "exp(-|x-mu|/b)/(2b); the implied variance is 2*b^2, and "
                "standard errors are the large-sample likelihood ones",
            )
        else:
            raise DomainError(f"unknown model {model!r}")
        report_models.append(entry)
    return {"kind": "fit_report", "n": n, "empirical": emp, "models": report_models}


def _format_fit_table(report: dict) -> str:
    def cell(value, se=None):
        if value is None:
            return "--"
        body = f"{value: .6g}"
        if se is not None:
            body += f" ({se:.3g})"
        return body

    lines = []
    lines.append(f"{'model':<9} {'mu (se)':<24} {'sigma2 (se)':<24} {'kappa (se)':<22}")
    for m in report["models"]:
        est, se = m["estimates"], m["se"]
        kappa_txt = cell(est["kappa"], se["kappa"])
        flag = m.get("boundary_flag", "")
        if flag and flag != "interior":
            kappa_txt += f" [{flag}]"
        lines.append(
            f"{m['model']:<9} {cell(est['mu'], se['mu']):<24} "
            f"{cell(est['sigma2'], se['sigma2']):<24} {kappa_txt:<22}"
        )
    lines.append("")
    lines.append(f"{'':<9} {'mean':>12} {'variance':>12} {'skewness':>10} {'ex.kurt':>10}")
    for m in report["models"]:
        c = m["fitted_cumulants"]
        lines.append(
            f"{m['model']:<9} {c['mean']:>12.6g} {c['variance']:>12.6g} "
            f"{c['skewness']:>10.5g} {c['excess_kurtosis']:>10.5g}"
        )
    c = report["empirical"]
    lines.append(
        f"{'empirical':<9} {c['mean']:>12.6g} {c['variance']:>12.6g} "
        f"{c['skewness']:>10.5g} {c['excess_kurtosis']:>10.5g}"
    )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------


# an ndarray's place in the JSON skeleton: json.dumps writes this character
# as \u0000, which no other string of a report contains
_SLOT = "\x00"
_SLOT_RE = re.compile(r'"\\u0000(\d+)"')
# values formatted per chunk, which bounds the strings alive at once
_CHUNK = 1 << 16


def _clean(obj, arrays: list):
    """JSON-safe copy: numpy scalars to python, NaN to None, +-inf to
    "inf"/"-inf"; each ndarray becomes a slot string and is appended to
    ``arrays``, for ``_json_pieces`` to splice in."""
    if isinstance(obj, dict):
        return {k: _clean(v, arrays) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v, arrays) for v in obj]
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        if math.isnan(f):
            return None
        if math.isinf(f):
            return "inf" if f > 0 else "-inf"
        return f
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        arrays.append(obj)
        return f"{_SLOT}{len(arrays) - 1}"
    return obj


def _value_rows(values, nan: str, pos_inf: str, neg_inf: str):
    """Text of a 1-d array or a list of strings, chunk by chunk, as (n, w)
    uint8 rows padded with zero bytes.  A float is written as repr writes
    it, as json and csv do, and a non-finite one with the given spelling;
    other values are written with repr, strings as they are."""
    for start in range(0, len(values), _CHUNK):
        chunk = values[start : start + _CHUNK]
        if isinstance(chunk, np.ndarray):
            if chunk.dtype.kind == "f":
                yield float_rows(chunk, nan, pos_inf, neg_inf)
                continue
            chunk = list(map(repr, chunk.tolist()))
        yield np.array(chunk, dtype=bytes).view(np.uint8).reshape(len(chunk), -1)


def _join_rows(parts) -> str:
    """One chunk of text: the parts, byte rows and str separators, side by
    side on each row, with the zero padding dropped."""
    n = next(len(p) for p in parts if isinstance(p, np.ndarray))
    matrix = np.concatenate(
        [
            p if isinstance(p, np.ndarray)
            else np.broadcast_to(np.frombuffer(p.encode(), np.uint8), (n, len(p)))
            for p in parts
        ],
        axis=1,
    )
    return matrix[matrix != 0].tobytes().decode("ascii")


def _json_pieces(payload: dict):
    """The report as json.dumps(indent=2, sort_keys=True) writes it, in
    pieces: the small skeleton is dumped, and each array is written at its
    slot's indent."""
    arrays = []
    text = json.dumps(_clean(payload, arrays), indent=2, sort_keys=True, allow_nan=False)

    def pieces():
        pos = 0
        for slot in _SLOT_RE.finditer(text):
            yield text[pos : slot.start()]
            pos = slot.end()
            values = arrays[int(slot.group(1))]
            if not values.size:
                yield "[]"
                continue
            line = text[text.rfind("\n", 0, slot.start()) + 1 : slot.start()]
            indent = "\n" + " " * (len(line) - len(line.lstrip(" ")))
            sep = "," + indent + "  "
            # sep goes before each value, without its comma before the first
            yield "["
            for i, rows in enumerate(_value_rows(values, "null", '"inf"', '"-inf"')):
                chunk = _join_rows((sep, rows))
                yield chunk if i else chunk[1:]
            yield indent + "]"
        yield text[pos:] + "\n"

    return pieces()


# (payload key, CSV header) of each column of the reports made of arrays
_CSV_COLUMNS = {
    "ml_eval": (("z", "z"), ("value", "value")),
    "density_grid": (("x", "x"), ("density", "density")),
    "pmf_grid": (("n", "n"), ("pmf", "pmf")),
    "samples": (("values", "value"),),
    "returns_series": (("dates", "date"), ("values", "log_return")),
    "convergence": (("grid", "rate"), ("ks", "ks")),
}
_MC_COUNTS = ("n", "replications", "clamped_low", "clamped_high")
_MC_GROUPS = ("mean_est", "rmse", "se_empirical", "se_theoretical")


def _csv_columns(payload: dict) -> list:
    """(CSV header, values) of each column of the report.  The record
    reports become columns: mc_tables one row per cell, fit_report one row
    per (model, parameter), with a None se as NaN."""
    kind = payload["kind"]
    if kind == "mc_tables":
        cells = payload["cells"]
        return (
            [("kappa", np.array([c["kappa"] for c in cells], dtype=float))]
            + [(k, np.array([c[k] for c in cells], dtype=np.int64)) for k in _MC_COUNTS]
            + [
                (f"{g}_{p}", np.array([c[g][p] for c in cells], dtype=float))
                for g in _MC_GROUPS
                for p in _PARAMETERS
            ]
        )
    if kind == "fit_report":
        rows = [(m, p) for m in payload["models"] for p in m["estimates"]]
        return [
            ("model", [m["model"] for m, _ in rows]),
            ("parameter", [p for _, p in rows]),
            ("estimate", np.array([m["estimates"][p] for m, p in rows], dtype=float)),
            ("se", np.array([m["se"].get(p) for m, p in rows], dtype=float)),
        ]
    return [(header, payload[key]) for key, header in _CSV_COLUMNS[kind]]


def _csv_pieces(payload: dict):
    """The report as CSV, in pieces.  Columns are arrays, or lists of ISO
    dates and names, none of which needs quoting; NaN is an empty field,
    written "" when it is the row's only field, as csv.writer does."""
    headers, columns = zip(*_csv_columns(payload))
    nan = '""' if len(columns) == 1 else ""

    def pieces():
        yield ",".join(headers) + "\n"
        for rows in zip(*(_value_rows(c, nan, "inf", "-inf") for c in columns)):
            parts = [part for r in rows for part in (r, ",")]
            parts[-1] = "\n"
            yield _join_rows(parts)

    return pieces()


def _emit(payload: dict, args) -> None:
    """Write the report, tagged with the schema, as json or csv to --out or
    stdout.  A fit report's aligned table goes to stdout, or to stderr when
    stdout carries the report."""
    payload["schema"] = SCHEMA_TAG
    pieces = _json_pieces(payload) if args.format == "json" else _csv_pieces(payload)
    text = _format_fit_table(payload) if payload["kind"] == "fit_report" else None
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.writelines(pieces)
        if text:
            print(text)
    else:
        if text:
            print(text, file=sys.stderr)
        sys.stdout.writelines(pieces)


def _parse_grid(spec: str) -> np.ndarray:
    try:
        lo, hi, step = (float(p) for p in spec.split(":"))
    except ValueError:
        raise DomainError(f"grid must be lo:hi:step, got {spec!r}") from None
    if step <= 0 or hi < lo:
        raise DomainError(f"bad grid {spec!r}")
    return np.arange(lo, hi + step / 2.0, step)


def _parse_list(spec: str, kind=float) -> tuple:
    try:
        return tuple(kind(p) for p in spec.split(","))
    except ValueError:
        raise DomainError(f"bad list {spec!r}") from None


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_ml_eval(args) -> dict:
    z = _parse_grid(args.grid) if args.grid else np.array([args.z], dtype=float)
    values = np.atleast_1d(mittag_leffler(args.kappa, z))
    return {"kind": "ml_eval", "kappa": args.kappa, "z": z, "value": values}


def _law_from_args(args):
    """The law that --dist names, built from its flags; returns (law, parameters).

    A law flag that this law does not take is a usage error, and so is a
    missing one that has no default.
    """
    cls, defaults = _LAWS[args.dist]
    given = {n: getattr(args, n) for n in args.law_flags if getattr(args, n) is not None}
    extra = [f"--{n}" for n in given if n not in defaults]
    if extra:
        raise DomainError(f"--dist {args.dist} does not take {', '.join(extra)}")
    params = {n: given.get(n, d) for n, d in defaults.items()}
    missing = [f"--{n}" for n, v in params.items() if v is None]
    if missing:
        raise DomainError(f"--dist {args.dist} needs {', '.join(missing)}")
    return cls(**params), params


def cmd_density(args) -> dict:
    x = _parse_grid(args.grid)
    law, params = _law_from_args(args)
    density = np.atleast_1d(law.density(x))
    return {"kind": "density_grid", "dist": args.dist, "parameters": params,
            "x": x, "density": density}


def cmd_pmf(args) -> dict:
    if args.max < 0:
        raise DomainError("--max must be nonnegative")
    n = np.arange(args.max + 1)
    law, params = _law_from_args(args)
    pmf = np.atleast_1d(law.pmf(n))
    return {"kind": "pmf_grid", "dist": args.dist, "parameters": params, "n": n, "pmf": pmf}


def cmd_sample(args) -> dict:
    if args.n < 1:
        raise DomainError("--n must be positive")
    rng = RngStream(args.seed if args.seed is not None else 0)
    law, params = _law_from_args(args)
    values = np.asarray(law.sample(rng, args.n))
    return {"kind": "samples", "dist": args.dist, "parameters": params,
            "seed": rng.seed, "values": values}


def cmd_returns(args) -> dict:
    dates, values = load_series(args.prices, (_PRICES,))
    return {"kind": "returns_series", "dates": dates, "values": values}


def cmd_fit(args) -> dict:
    if args.demo and args.returns:
        raise DomainError("fit takes a returns/prices CSV or --demo, not both")
    if args.seed is not None and not args.demo:
        raise DomainError("--seed only applies to --demo")
    if args.demo:
        values = demo_series(args.seed if args.seed is not None else DEMO_SEED)
        source = "demo"
    else:
        if not args.returns:
            raise DataError("fit needs a returns/prices CSV or --demo")
        _, values = load_series(args.returns, (_PRICES, _RETURNS))
        source = args.returns
    models = _parse_list(args.models, str)
    return {**fit_models(values, models), "source": source}


def cmd_mc_tables(args) -> dict:
    config = McExperimentConfig(
        mu=args.mu,
        sigma2=args.sigma2,
        kappa_grid=_parse_list(args.kappa),
        sample_sizes=_parse_list(args.n, int),
        replications=args.reps,
        base_seed=args.seed if args.seed is not None else 0,
    )
    cells = run_mc_tables(config)
    return {"kind": "mc_tables", "config": asdict(config), "cells": [asdict(c) for c in cells]}


def cmd_converge(args) -> dict:
    unused = {"fp": "eta", "comp": "kappa"}[args.sweep]
    if getattr(args, unused) is not None:
        raise DomainError(f"converge {args.sweep} does not take --{unused}")
    rng = RngStream(args.seed if args.seed is not None else 0)
    report = convergence_sweep(
        args.sweep,
        _parse_list(args.grid),
        SummandSpec(args.summands),
        args.draws,
        rng,
        kappa=args.kappa,
        eta=args.eta,
    )
    return {
        "kind": "convergence",
        "sweep": report.kind,
        "target": report.target,
        "grid": np.asarray(report.parameter_grid, dtype=float),
        "ks": np.asarray(report.distances, dtype=float),
        "draws_per_point": report.draws_per_point,
    }


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_law_flags(p, dists: tuple[str, ...]) -> None:
    """--dist and the parameter flags of the laws it may name; a flag
    defaults to None so that a flag given to a law without it is seen."""
    p.add_argument("--dist", choices=dists, required=True)
    flags = {}
    for dist in dists:
        for name in _LAWS[dist][1]:
            flags.setdefault(name, []).append(dist)
    for name, users in flags.items():
        default = _LAWS[users[0]][1][name]
        help_text = f"for --dist {'/'.join(users)}"
        if default is not None:
            help_text += f" (default {default})"
        p.add_argument(f"--{name}", type=float, help=help_text)
    p.set_defaults(law_flags=tuple(flags))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fpsum",
        description="Fractional-Poisson random sums and the "
        "Normal-Mittag-Leffler law",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="output file (default stdout)")
    common.add_argument("--format", choices=("csv", "json"), default="json")
    # only the commands that draw random numbers take a seed
    seeded = argparse.ArgumentParser(add_help=False, parents=[common])
    seeded.add_argument("--seed", type=int, default=None, help="64-bit RNG seed")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ml-eval", parents=[common], help="evaluate the Mittag-Leffler function")
    p.add_argument("--kappa", type=float, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--z", type=float)
    group.add_argument("--grid", help="lo:hi:step")
    p.set_defaults(handler=cmd_ml_eval)

    p = sub.add_parser("density", parents=[common], help="density on a grid")
    _add_law_flags(p, ("nml", "ml"))
    p.add_argument("--grid", required=True, help="lo:hi:step")
    p.set_defaults(handler=cmd_density)

    p = sub.add_parser("pmf", parents=[common], help="pmf table for a count law")
    _add_law_flags(p, ("fp", "comp"))
    p.add_argument("--max", type=int, required=True, help="largest count")
    p.set_defaults(handler=cmd_pmf)

    p = sub.add_parser("sample", parents=[seeded], help="draw random variates")
    _add_law_flags(p, tuple(_LAWS))
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(handler=cmd_sample)

    p = sub.add_parser("returns", parents=[common], help="log-returns from a prices CSV")
    p.add_argument("prices", help="CSV with header date,close")
    p.set_defaults(handler=cmd_returns)

    p = sub.add_parser("fit", parents=[common], help="fit models to a returns series")
    p.add_argument("returns", nargs="?", help="CSV with header date,log_return or date,close")
    p.add_argument("--demo", action="store_true", help="use the bundled synthetic series")
    p.add_argument("--seed", type=int, help="seed of the --demo series")
    p.add_argument("--models", default="nml,normal,laplace")
    p.set_defaults(handler=cmd_fit)

    p = sub.add_parser("mc-tables", parents=[seeded], help="replicated sample-fit tables")
    p.add_argument("--kappa", required=True, help="comma list")
    p.add_argument("--n", required=True, help="comma list")
    p.add_argument("--reps", type=int, default=500)
    p.add_argument("--mu", type=float, default=0.5)
    p.add_argument("--sigma2", type=float, default=1.0)
    p.set_defaults(handler=cmd_mc_tables)

    p = sub.add_parser("converge", parents=[seeded], help="weak-limit KS sweep")
    p.add_argument("sweep", choices=("fp", "comp"))
    p.add_argument("--grid", required=True, help="comma list of rates")
    p.add_argument("--kappa", type=float, help="for fp")
    p.add_argument("--eta", type=float, help="for comp")
    p.add_argument("--draws", type=int, default=100_000)
    p.add_argument(
        "--summands",
        choices=("standard_normal", "rademacher", "centered_uniform"),
        default="standard_normal",
    )
    p.set_defaults(handler=cmd_converge)
    return parser


def _fold_negative_values(argv):
    """Join value flags with arguments that start with '-', which argparse
    would otherwise read as option names (e.g. --grid -4:4:0.01)."""
    folded = []
    skip = False
    for i, token in enumerate(argv):
        if skip:
            skip = False
            continue
        if (
            token in ("--grid", "--z")
            and i + 1 < len(argv)
            and argv[i + 1].startswith("-")
            and len(argv[i + 1]) > 1
            and (argv[i + 1][1].isdigit() or argv[i + 1][1] == ".")
        ):
            folded.append(f"{token}={argv[i + 1]}")
            skip = True
        else:
            folded.append(token)
    return folded


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_fold_negative_values(list(argv)))
    try:
        seed = getattr(args, "seed", None)
        if seed is not None and not 0 <= seed < 2**64:
            raise DomainError("--seed must be an unsigned 64-bit integer")
        _emit(args.handler(args), args)
        return 0
    except DomainError as exc:
        print(f"fpsum: usage error: {exc}", file=sys.stderr)
        return 2
    except (EvaluationError, EstimationError) as exc:
        print(f"fpsum: numeric failure: {exc}", file=sys.stderr)
        return 3
    except DataError as exc:
        print(f"fpsum: data error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
