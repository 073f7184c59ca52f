"""Command line front end.

Subcommands map one-to-one onto the estimators and criteria:

    converge    strong error curve + fitted order        -> errors.csv, stdout line
    predict     boundary-drift rate prediction           -> stdout line
    moments     inverse-moment divergence diagnostic     -> moments.csv, stdout line
    feller      boundary classification                  -> stdout line (+ --out table)
    ito         drift/curvature boundedness criterion    -> stdout line (+ --out table)
    timechange  clock-change distribution check          -> stdout line (+ --out table)
    compare     pathwise ordering of two models          -> stdout lines (+ --out table)

A subcommand returns its records: stdout lines as named fields and tables as
(path, columns, footer).  main is the one writer: ``_write_table`` writes each
table with a path, then ``_record`` prints each line (and renders converge's
``#`` footer).  Floats carry 17 significant digits, so files round-trip.

Every subcommand takes ``--config FILE`` plus overrides (``--paths``,
``--seed``, ``--levels a:b``, ``--ref-level``, ``--out``), ``--workers``
(env fallback ``HE_WORKERS``) and ``--dry-run``.  The override flags are
generated from the config's key table and parsed as INI text.  Exit codes:
0 success, 2 simulation abort (or an argparse usage error), 3 config error,
4 hypothesis failure, 5 invalid coefficient.

main checks a run on one path before anything runs: resolve_config applies
the rules of every run, then _RULES those of its subcommand alone (the
reference gap of converge and a plot table apart from its error table, q
and a ref_level of at least 2 for moments, a prototype model for predict and
timechange, one with constant parameters for feller and ito, positive drift
ratios for predict and the comparison hypotheses for compare).  --dry-run
returns only after both, so it refuses what the run refuses before
simulating, with the same message and exit code.
Each rule hands its command what it checked: converge's error table path,
predict's rate prediction, the autonomous model of feller and ito,
timechange's prototype, compare's hi model.

Randomness: each subcommand derives its generator key from the single
``seed`` by hashing a fixed label ("converge", "moments", "compare",
"timechange"; the timechange check further derives "original" and
"changed" for its two independent samples).  compare makes one library call
over all its levels, so each coarser level runs on the finest level's
Brownian increments halved.  Output bytes are identical for any worker count.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import Optional

from .brownian import derive_seed
from .config import (
    OVERRIDES, RunConfig, _checked, apply_overrides, format_resolved, load_config, parse_number, resolve_config,
)
from .criteria import AutonomousModel, RatePrediction, autonomous_from_prototype, feller_test, ito_criterion, predict_rate
from .errors import ConfigError, HypothesisError, InvalidCoefficientError, SimulationAbort
from .models import KINDS, PrototypeParams, SdeModel
from .montecarlo import (
    _check, _check_pair, _check_ref_gap, comparison_check, estimate_inverse_moment, estimate_strong_error,
    timechange_check,
)

__all__ = ["main"]


def _fmt(v) -> str:
    if v is None:
        return "none"
    if isinstance(v, str):
        return v
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    return format(float(v), ".17g")


def _record(fields: dict) -> str:
    """One ``key=value`` line of named fields, in their order."""
    return " ".join(f"{key}={_fmt(value)}" for key, value in fields.items())


# what a subcommand returns: its stdout lines, and its (path, columns, footer) tables
Table = tuple[Optional[str], dict, Optional[dict]]
Records = tuple[list[dict], list[Table]]


def _write_table(path: str, columns: dict, footer: Optional[dict] = None) -> None:
    """Write columns as a CSV headed by their names, then footer as a ``# key=value`` line.

    Columns, not rows, so that a table with no rows keeps its header."""
    lines = [",".join(columns)]
    lines += [",".join(_fmt(v) for v in row) for row in zip(*columns.values(), strict=True)]
    if footer is not None:
        lines.append("# " + _record(footer))
    try:
        fh = open(path, "w")
    except OSError as exc:  # a path config._path could not foresee, in an unwritable directory say
        raise ConfigError(f"[output]: cannot write {path!r} ({exc.strerror or exc})")
    try:
        with fh:
            fh.write("\n".join(lines) + "\n")
    except OSError:  # a failure partway, a full disk say: leave no truncated table behind
        os.remove(path)
        raise


def _resolve_workers(flag: Optional[str]) -> Optional[int]:
    where, text = ("--workers", flag) if flag is not None else ("HE_WORKERS", os.environ.get("HE_WORKERS") or None)
    workers = None if text is None else parse_number(text, where, integer=True)  # None: the cpu count
    _checked(where, _check, workers=workers)
    return workers


# ---------------------------------------------------------------------------
# each subcommand's own rules, beyond those resolve_config applies to every run


def _converge_rules(cfg: RunConfig, command: str) -> str:
    _checked("[experiment] ref_level", _check_ref_gap, cfg.levels, cfg.ref_level)
    out = cfg.out or "errors.csv"
    if cfg.plot is not None and os.path.realpath(cfg.plot) == os.path.realpath(out):
        raise ConfigError(f"[output] plot: {cfg.plot!r} names the same file as the error table {out!r}")
    return out


def _moment_rules(cfg: RunConfig, command: str) -> None:
    if cfg.q is None:
        raise ConfigError("[condition]: set q (or s, from which q is derived) for the moments command")
    _checked("[experiment] ref_level", _check, ref_level=cfg.ref_level)


def _prototype(cfg: RunConfig, command: str) -> PrototypeParams:
    if cfg.prototype is None:
        *kinds, last = KINDS
        raise ConfigError(f"{command} requires a prototype model (kind {', '.join(kinds)} or {last})")
    return cfg.prototype


def _rate_rules(cfg: RunConfig, command: str) -> RatePrediction:
    return predict_rate(_prototype(cfg, command))


def _pair_rules(cfg: RunConfig, command: str) -> SdeModel:
    model_hi = cfg.model_hi if cfg.model_hi is not None else cfg.model
    _check_pair(cfg.model, model_hi, cfg.horizon)
    return model_hi


def _autonomous(cfg: RunConfig, command: str) -> AutonomousModel:
    try:
        return autonomous_from_prototype(_prototype(cfg, command))
    except ValueError as exc:
        raise ConfigError(str(exc))


_RULES = {
    "converge": _converge_rules,
    "predict": _rate_rules,
    "moments": _moment_rules,
    "feller": _autonomous,
    "ito": _autonomous,
    "timechange": _prototype,
    "compare": _pair_rules,
}


# ---------------------------------------------------------------------------
# subcommands: each returns (lines, tables) for main to write


def cmd_converge(cfg: RunConfig, workers: Optional[int], out: str) -> Records:
    """Strong error curve and fitted order."""
    report = estimate_strong_error(
        cfg.model, cfg.horizon, cfg.levels, cfg.ref_level, cfg.paths, derive_seed(cfg.seed, "converge"),
        on_explosion=cfg.on_explosion, workers=workers,
    )

    fit = {
        "lambda_hat": report.lambda_hat,
        "stderr": report.lambda_stderr,
        "r2": report.r_squared,
        "predicted_lambda": None,
        "provenance": None,
    }
    if cfg.prototype is not None:
        try:
            pred = predict_rate(cfg.prototype)
            fit["predicted_lambda"] = pred.lambda_sup
            fit["provenance"] = pred.provenance
        except HypothesisError:
            pass

    levels = report.levels
    columns = {
        "level": levels,
        "N": [1 << level for level in levels],
        "dt": [cfg.horizon / (1 << level) for level in levels],
        "l1_error": report.errors,
        "stderr": report.stderrs,
        "argmax_k": report.argmax_nodes,
    }
    kept = [i for i, err in enumerate(report.errors) if err > 0.0]
    plot = {"log2N": [levels[i] for i in kept], "log2err": [math.log2(report.errors[i]) for i in kept]}
    return [fit], [(out, columns, fit), (cfg.plot, plot, None)]


def cmd_predict(cfg: RunConfig, workers: Optional[int], pred: RatePrediction) -> Records:
    """Boundary-drift rate prediction."""
    fields = {
        "mu0": pred.mu0,
        "mu1": pred.mu1,
        "s": pred.s_exponent,
        "lambda_sup": pred.lambda_sup,
        "provenance": pred.provenance,
    }
    if pred.mu1 is None:  # a one-sided model has no right boundary ratio
        del fields["mu1"]
    return [fields], []


def cmd_moments(cfg: RunConfig, workers: Optional[int], checked: None) -> Records:
    """Inverse-moment divergence diagnostic."""
    est = estimate_inverse_moment(
        cfg.model,
        cfg.q,
        cfg.horizon,
        cfg.ref_level,
        cfg.paths,
        derive_seed(cfg.seed, "moments"),
        cap=cfg.cap,
        growth_factor=cfg.growth_factor,
        on_explosion=cfg.on_explosion,
        workers=workers,
    )
    columns = {
        "q": [est.q] * len(est.ref_levels),
        "estimate": est.estimates,
        "stderr": est.stderrs,
        "ref_level": est.ref_levels,
        "cap_hits": est.cap_hits,
        "divergence_flag": [est.divergence_flag] * len(est.ref_levels),
    }
    fields = {"q": est.q, "divergence_flag": est.divergence_flag, "ref_level": est.ref_levels[-1]}
    return [fields], [(cfg.out or "moments.csv", columns, None)]


def cmd_feller(cfg: RunConfig, workers: Optional[int], model: AutonomousModel) -> Records:
    """Boundary classification (Feller test)."""
    result = feller_test(model)
    fields = {
        "conclusion": result.conclusion,
        "left": result.left.classification,
        "right": result.right.classification,
        "v_left": result.left.v_estimate,
        "v_right": result.right.v_estimate,
    }
    probes = (result.left, result.right)
    columns = {
        "side": [probe.side for probe in probes for _ in probe.v_values],
        "segment": [j for probe in probes for j in range(len(probe.v_values))],
        "v": [v for probe in probes for v in probe.v_values],
    }
    return [fields], [(cfg.out, columns, None)]


def cmd_ito(cfg: RunConfig, workers: Optional[int], model: AutonomousModel) -> Records:
    """Drift/curvature boundedness criterion."""
    report = ito_criterion(model)
    row = {key: getattr(report, key) for key in ("classification", "inf_estimate", "left_trend", "right_trend")}
    fields = dict(row)
    if report.s_exponent is not None:  # bounded below: the criterion gives a rate
        fields.update(s=report.s_exponent, lambda_sup=report.lambda_sup)
    return [fields], [(cfg.out, {key: [value] for key, value in row.items()}, None)]


def cmd_timechange(cfg: RunConfig, workers: Optional[int], prototype: PrototypeParams) -> Records:
    """Clock-change distribution check."""
    report = timechange_check(
        prototype,
        max(cfg.levels),
        cfg.paths,
        derive_seed(cfg.seed, "timechange"),
        significance=cfg.significance,
        on_explosion=cfg.on_explosion,
        workers=workers,
    )
    fields = {
        "verdict": "pass" if report.passed else "fail",
        "z_mean": report.z_mean,
        "z_var": report.z_var,
        "threshold": report.threshold,
        "horizon_image": report.horizon_image,
    }
    moments = ("mean_original", "mean_changed", "var_original", "var_changed")
    row = {**fields, **{key: getattr(report, key) for key in moments}}
    return [fields], [(cfg.out, {key: [value] for key, value in row.items()}, None)]


def cmd_compare(cfg: RunConfig, workers: Optional[int], model_hi: SdeModel) -> Records:
    """Pathwise ordering of two models."""
    reports = comparison_check(
        cfg.model, model_hi, cfg.horizon, cfg.levels, cfg.paths, derive_seed(cfg.seed, "compare"),
        tolerance=cfg.tolerance, on_explosion=cfg.on_explosion, workers=workers,
    )
    lines = [
        {
            "level": rep.level,
            "violations": rep.n_violating,
            "violation_fraction": rep.violation_fraction,
            "max_violation": rep.max_violation,
            "tolerance": rep.tolerance,
        }
        for rep in reports
    ]
    columns = ("level", "paths", "n_violating", "violation_fraction", "max_violation", "tolerance")
    return lines, [(cfg.out, {key: [getattr(rep, key) for rep in reports] for key in columns}, None)]


# ---------------------------------------------------------------------------
# parser and entry point

_COMMANDS = {
    "converge": cmd_converge,
    "predict": cmd_predict,
    "moments": cmd_moments,
    "feller": cmd_feller,
    "ito": cmd_ito,
    "timechange": cmd_timechange,
    "compare": cmd_compare,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="powersde",
        description="Euler schemes and convergence diagnostics for SDEs with fractional-power diffusion.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__)
        p.add_argument("--config", help="INI config file")
        for key, section in OVERRIDES.items():  # parsed as INI text, by the key's own parser
            p.add_argument("--" + key.replace("_", "-"), dest=key, help=f"override {section}.{key}")
        p.add_argument("--workers", help="worker processes (default: cpu count; env HE_WORKERS)")
        p.add_argument("--dry-run", action="store_true", help="print the resolved config and exit")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        raw = apply_overrides(load_config(args.config), **{key: getattr(args, key) for key in OVERRIDES})
        workers = _resolve_workers(args.workers)
        cfg = resolve_config(raw)
        checked = _RULES[args.command](cfg, args.command)
        if args.dry_run:
            sys.stdout.write(format_resolved(raw))
            return 0
        # looked up at call time, so a wrapped entry of _COMMANDS is the one called
        lines, tables = _COMMANDS[args.command](cfg, workers, checked)
        for path, columns, footer in tables:
            if path is not None:
                _write_table(path, columns, footer)
        for fields in lines:
            print(_record(fields))
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except SimulationAbort as exc:
        print(f"simulation abort: {exc}", file=sys.stderr)
        return 2
    except HypothesisError as exc:
        print(f"hypothesis failure: {exc}", file=sys.stderr)
        return 4
    except InvalidCoefficientError as exc:
        print(f"invalid coefficient: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
