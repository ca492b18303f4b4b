"""Command-line frontend.

Subcommands::

    entropy     closed-form entropies from explicit parameters
    divergence  closed-form divergences between two parameter sets
    estimate    closed-form MLE from CSV observations, optional plug-in measure
    verify      closed form vs numerical oracle over a built-in grid
    families    list the implemented families and their decompositions

Reports are JSON (default) or CSV on stdout. Numbers are serialized as the
shortest decimal that round-trips binary64, so identical invocations
produce byte-identical reports.

Exit codes: 0 success, 1 verification failed, 2 usage error, 3 domain error
(out-of-domain parameters, bad observations, degenerate samples), 4 oracle
non-convergence.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
import warnings

import numpy as np

from .errors import ConvergenceError, DomainError, SupportError
from .families import Family, family_names, get_family
from .measures import (
    MEASURE_NAMES,
    MEASURES,
    MeasureResult,
    evaluate_measure,
    measure_needs_alpha,
    measure_needs_pair,
)
from .estimation import MeasureRequest, SampleSet, mle, plugin_measure
from .oracle import oracle_measure

ENTROPY_MEASURES = tuple(m.name for m in MEASURES if not m.needs_pair)
DIVERGENCE_MEASURES = tuple(m.name for m in MEASURES if m.needs_pair)

VERIFY_ALPHAS = (0.5, 0.9, 1.0 - 1e-4, 1.0 + 1e-4, 2.0)

# The (measure, alpha) cells `verify` runs for each family, in table order.
VERIFY_CELLS = tuple(
    (m.name, alpha) for m in MEASURES for alpha in (VERIFY_ALPHAS if m.needs_alpha else (None,))
)

# Built-in parameter pairs for `verify`, chosen so that every grid alpha
# (including 2) keeps the mixed parameter inside the natural domain.
VERIFY_PAIRS: dict[str, tuple[dict, dict]] = {
    "exponential": ({"rate": 1.0}, {"rate": 1.5}),
    "poisson": ({"rate": 1.0}, {"rate": 2.5}),
    "bernoulli": ({"p": 0.3}, {"p": 0.6}),
    "gaussian": ({"mu": 0.0, "var": 1.0}, {"mu": 0.5, "var": 1.2}),
    "mvn": (
        {"mu": [0.0, 0.0], "sigma": [[1.0, 0.2], [0.2, 0.8]]},
        {"mu": [0.4, -0.3], "sigma": [[1.1, -0.1], [-0.1, 0.9]]},
    ),
    "laplacian": ({"scale": 1.0}, {"scale": 1.4}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="efmeasures",
        description="Closed-form information measures for exponential families.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p: argparse.ArgumentParser, *, params2: bool = False) -> None:
        p.add_argument("--family", required=True, help="family name")
        p.add_argument("--params", required=True, help="source parameters as JSON")
        if params2:
            p.add_argument("--params2", required=True, help="second parameter set as JSON")
        p.add_argument("--measure", required=True, help="measure name")
        p.add_argument(
            "--alpha",
            action="append",
            type=float,
            default=None,
            help="order alpha (> 0); repeatable",
        )
        p.add_argument("--output", choices=("json", "csv"), default="json")

    p_ent = sub.add_parser("entropy", help="entropies from explicit parameters")
    add_common(p_ent)

    p_div = sub.add_parser("divergence", help="divergences between two parameter sets")
    add_common(p_div, params2=True)

    p_est = sub.add_parser("estimate", help="closed-form MLE from CSV observations")
    p_est.add_argument("--family", required=True)
    p_est.add_argument("--data", required=True, help="CSV file, one observation per row")
    p_est.add_argument("--data2", default=None, help="second CSV file (divergence measures)")
    p_est.add_argument("--measure", default=None, help="optional plug-in measure")
    p_est.add_argument("--alpha", action="append", type=float, default=None)
    p_est.add_argument("--dim", type=int, default=None, help="dimension for the mvn family")
    p_est.add_argument("--output", choices=("json", "csv"), default="json")

    p_ver = sub.add_parser("verify", help="closed form vs oracle over the built-in grid")
    p_ver.add_argument("--family", default=None, help="restrict the grid to one family")
    p_ver.add_argument("--output", choices=("json", "csv"), default="json")

    sub.add_parser("families", help="list families and their decompositions")
    return parser


# --------------------------------------------------------------------------
# Input parsing helpers.
# --------------------------------------------------------------------------


def _parse_params(parser, family_name: str, text: str, flag: str) -> tuple[Family, dict]:
    """Parse a source-parameter JSON object and look up the family it belongs to."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        parser.error(f"{flag}: invalid JSON ({exc})")
    if not isinstance(obj, dict):
        parser.error(f"{flag}: expected a JSON object")
    return _family_of(parser, family_name, obj, flag), obj


def _family_of(parser, family_name: str, obj: dict, flag: str) -> Family:
    """The family of a source-parameter object, sized by its ``mu`` if multivariate.

    An unknown name or wrong keys are usage errors; a bad mvn ``mu`` a domain error."""
    mu = obj.get("mu")
    sized = isinstance(mu, list) and len(mu) > 0
    try:
        fam = get_family(family_name, dim=len(mu) if sized else 1)
    except ValueError as exc:
        parser.error(str(exc))
    if set(obj) != set(fam.source_keys):
        parser.error(
            f"{flag}: expected keys {sorted(fam.source_keys)} for family {family_name!r}, "
            f"got {sorted(obj)}"
        )
    if fam.support.kind == "real-vector" and not sized:
        raise DomainError("mu: expected a non-empty list of numbers")
    return fam


def _check_alphas(parser, alphas) -> None:
    for a in alphas or ():
        if not (math.isfinite(a) and a > 0):
            parser.error(f"--alpha: values must be positive reals, got {a}")


def _parse_csv(source) -> np.ndarray:
    """numpy's parse of a headerless CSV path or list of lines, shape (rows, fields)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # numpy warns on input without rows
        return np.loadtxt(
            source, delimiter=",", ndmin=2, comments=None, quotechar='"', encoding="utf-8"
        )


def _lines(path: str) -> list[str]:
    with open(path, encoding="utf-8", errors="replace") as handle:
        return handle.read().split("\n")


def _fields(lines: list[str]) -> int | None:
    """Fields per row of some lines, 0 if they hold no row, None if they do not parse."""
    try:
        rows = _parse_csv(lines)
    except ValueError:
        return None
    return rows.shape[1] if rows.size else 0


def _bad_line(path: str, width: int) -> str:
    """Describe the first line of a file that does not parse as ``width`` numbers.

    Runs only after the whole-file parse failed. Lines parse independently,
    so bisection finds the line in O(log n) parses of ever smaller chunks.
    """
    lines = _lines(path)
    lo, hi = 0, len(lines)  # the first bad line lies in lines[lo:hi]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _fields(lines[lo:mid]) in (0, width):
            lo = mid
        else:
            hi = mid
    fields = _fields(lines[lo : lo + 1])
    if fields is None:
        return f"row {lo + 1} is not numeric: {lines[lo]!r}"
    return f"row {lo + 1} has {fields} fields, expected {width}"


def _read_observations(fam: Family, path: str) -> np.ndarray:
    """Read headerless CSV observations, one per line, in one numpy parse.

    Fields are comma-separated and may be double-quoted; empty lines are
    skipped and there are no comments. Errors name the 1-based line.
    """
    width = fam.support.dim if fam.support.kind == "real-vector" else 1
    try:
        obs = _parse_csv(path)
    except OSError as exc:
        raise DomainError(f"data: cannot read {path!r} ({exc})") from exc
    except ValueError:
        obs = None
    if obs is None or (obs.size and obs.shape[1] != width):
        raise DomainError(f"data: {_bad_line(path, width)}")
    if not obs.size:
        raise DomainError(f"data: {path!r} contains no observations")
    return obs[:, 0] if width == 1 else obs


def _sample_set(fam: Family, path: str):
    """Validated observations of one data file; a support error names its line."""
    obs = _read_observations(fam, path)
    try:
        return SampleSet(fam, obs)
    except SupportError:
        row = int(np.argmin(fam.in_support_batch(obs)))
        line = [n for n, text in enumerate(_lines(path), start=1) if text][row]
        raise DomainError(
            f"data: row {line}: {obs[row].tolist()!r} is outside the support of {fam.name} "
            f"(must be {fam.support.requirement})"
        ) from None


# --------------------------------------------------------------------------
# Report rendering.
# --------------------------------------------------------------------------


def _result_row(measure: str, alpha, res: MeasureResult, oracle=None, passed=None) -> dict:
    return {
        "measure": measure,
        "alpha": alpha,
        "value": res.value,
        "branch": res.branch,
        "oracle": oracle,
        "pass": passed,
    }


def _render(report: dict, output: str) -> str:
    if output == "json":
        return json.dumps(report, indent=2)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["measure", "alpha", "value", "branch", "oracle_value", "oracle_error_bound",
         "oracle_method", "oracle_evaluations", "pass"]
    )
    for row in report.get("results", ()):
        oracle = row.get("oracle") or {}
        writer.writerow(
            [
                row.get("measure", ""),
                _csv_num(row.get("alpha")),
                _csv_num(row.get("value")),
                row.get("branch", ""),
                _csv_num(oracle.get("value")),
                _csv_num(oracle.get("error_bound")),
                oracle.get("method", ""),
                oracle.get("evaluations", ""),
                "" if row.get("pass") is None else str(row["pass"]).lower(),
            ]
        )
    return buf.getvalue().rstrip("\n")


def _csv_num(value) -> str:
    if value is None:
        return ""
    return repr(float(value))


# --------------------------------------------------------------------------
# Subcommand implementations.
# --------------------------------------------------------------------------


def _run_measures(parser, args, *, pair: bool) -> dict:
    valid = DIVERGENCE_MEASURES if pair else ENTROPY_MEASURES
    if args.measure not in valid:
        parser.error(
            f"--measure: {args.measure!r} is not valid for this subcommand; "
            f"choose from {', '.join(valid)}"
        )
    _check_alphas(parser, args.alpha)
    needs_alpha = measure_needs_alpha(args.measure)
    if needs_alpha and not args.alpha:
        parser.error(f"--measure {args.measure} requires at least one --alpha")

    fam, params_obj = _parse_params(parser, args.family, args.params, "--params")
    theta = fam.to_natural(dict(params_obj))
    theta2 = None
    params2_obj = None
    if pair:
        fam2, params2_obj = _parse_params(parser, args.family, args.params2, "--params2")
        if fam2 != fam:
            raise DomainError("params2: dimension differs from params")
        theta2 = fam.to_natural(dict(params2_obj))

    alphas = args.alpha if needs_alpha else [None]
    results = []
    for alpha in alphas:
        res = evaluate_measure(fam, args.measure, theta, theta2, alpha)
        results.append(_result_row(args.measure, alpha, res))

    request = {
        "subcommand": args.subcommand,
        "family": fam.name,
        "params": params_obj,
        "params2": params2_obj,
        "measure": args.measure,
        "alpha": args.alpha,
    }
    return {"request": request, "results": results}


def _estimate_block(fam: Family, est) -> dict:
    params = fam.from_natural(est.theta)
    if fam.name == "mvn":
        source = {"mu": params.mu.tolist(), "sigma": params.cov.tolist()}
    else:
        source = {k: getattr(params, k) for k in fam.source_keys}
    theta = {"vector": est.theta.vector.tolist()}
    if est.theta.matrix is not None:
        theta["matrix"] = est.theta.matrix.tolist()
    return {
        "n": est.n,
        "natural": theta,
        "params": source,
        "mean_sufficient_stat": est.mean_sufficient_stat.flat().tolist(),
    }


def _run_estimate(parser, args) -> dict:
    if args.measure is not None and args.measure not in MEASURE_NAMES:
        parser.error(f"--measure: unknown measure {args.measure!r}")
    _check_alphas(parser, args.alpha)
    try:
        fam = get_family(args.family, dim=1 if args.dim is None else args.dim)
    except ValueError as exc:
        parser.error(str(exc))
    if args.dim is None and fam.support.kind == "real-vector":
        parser.error("--dim is required for the mvn family")

    sample_p = _sample_set(fam, args.data)
    sample_q = None if args.data2 is None else _sample_set(fam, args.data2)

    est_p = mle(sample_p)
    estimates = {"data": _estimate_block(fam, est_p)}
    if sample_q is not None:
        estimates["data2"] = _estimate_block(fam, mle(sample_q))

    results = []
    if args.measure is not None:
        if measure_needs_pair(args.measure) and sample_q is None:
            parser.error(f"--measure {args.measure} requires --data2")
        if measure_needs_alpha(args.measure) and not args.alpha:
            parser.error(f"--measure {args.measure} requires at least one --alpha")
        alphas = args.alpha if measure_needs_alpha(args.measure) else [None]
        for alpha in alphas:
            res = plugin_measure(MeasureRequest(args.measure, alpha), sample_p, sample_q)
            results.append(_result_row(args.measure, alpha, res))

    request = {
        "subcommand": "estimate",
        "family": fam.name,
        "data": args.data,
        "data2": args.data2,
        "measure": args.measure,
        "alpha": args.alpha,
    }
    return {"request": request, "estimates": estimates, "results": results}


def _run_verify(parser, args) -> tuple[dict, bool]:
    try:
        family = None if args.family is None else get_family(args.family, dim=1).name
    except ValueError as exc:
        parser.error(str(exc))
    names = [family] if family else list(VERIFY_PAIRS)

    results = []
    all_pass = True
    for name in names:
        obj_p, obj_q = VERIFY_PAIRS[name]
        fam = _family_of(parser, name, obj_p, "--family")
        theta = fam.to_natural(dict(obj_p))
        theta2 = fam.to_natural(dict(obj_q))
        for measure, alpha in VERIFY_CELLS:
            second = theta2 if measure_needs_pair(measure) else None
            closed = evaluate_measure(fam, measure, theta, second, alpha)
            est = oracle_measure(fam, measure, theta, second, alpha)
            tol = est.error_bound + 1e-12 * (1.0 + abs(closed.value))
            ok = abs(closed.value - est.value) <= tol
            all_pass = all_pass and ok
            row = _result_row(
                measure,
                alpha,
                closed,
                oracle={
                    "value": est.value,
                    "error_bound": est.error_bound,
                    "method": est.method,
                    "evaluations": est.evaluations,
                },
                passed=ok,
            )
            row["family"] = fam.name
            results.append(row)

    request = {
        "subcommand": "verify",
        "family": family,
        "alpha": list(VERIFY_ALPHAS),
    }
    return {"request": request, "results": results, "all_pass": all_pass}, all_pass


def _run_families() -> dict:
    entries = []
    for name in family_names():
        fam = get_family(name, dim=2)
        entries.append(
            {
                "name": fam.name,
                "order": "d + d^2" if fam.support.kind == "real-vector" else fam.order,
                "source_keys": list(fam.source_keys),
                **fam.decomposition,
            }
        )
    return {"request": {"subcommand": "families"}, "families": entries}


# Built once per process: parsing is stateless, building costs ~1 ms.
_parser = functools.cache(build_parser)


def run(argv=None) -> int:
    """Parse argv, execute, print the report; returns the exit code."""
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        if args.subcommand == "entropy":
            report = _run_measures(parser, args, pair=False)
            ok = True
        elif args.subcommand == "divergence":
            report = _run_measures(parser, args, pair=True)
            ok = True
        elif args.subcommand == "estimate":
            report = _run_estimate(parser, args)
            ok = True
        elif args.subcommand == "verify":
            report, ok = _run_verify(parser, args)
        else:
            report = _run_families()
            ok = True
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    print(_render(report, getattr(args, "output", "json")))
    return 0 if ok else 1


def main(argv=None) -> int:
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
