"""Command line front end.

Subcommands map one-to-one onto the estimators and criteria:

    converge    strong error curve + fitted order        -> errors.csv
    predict     boundary-drift rate prediction           -> stdout line
    moments     inverse-moment divergence diagnostic     -> moments.csv
    feller      boundary classification                  -> stdout line
    ito         drift/curvature boundedness criterion    -> stdout line
    timechange  clock-change distribution check          -> stdout line
    compare     pathwise ordering of two models          -> stdout lines

Every subcommand takes ``--config FILE`` plus overrides (``--paths``,
``--seed``, ``--levels a:b``, ``--ref-level``, ``--out``), ``--workers``
(env fallback ``HE_WORKERS``) and ``--dry-run``.  Exit codes: 0 success,
2 simulation abort, 3 config error, 4 hypothesis failure, 5 invalid
coefficient.

Randomness: each subcommand derives its generator key from the single
``seed`` by hashing a fixed label ("converge", "moments", "compare",
"timechange"; the timechange check further derives "original" and
"changed" for its two independent samples).  Output bytes are identical
for any worker count.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import Optional

from .brownian import derive_seed
from .config import (
    RunConfig,
    apply_overrides,
    format_resolved,
    load_config,
    resolve_config,
)
from .criteria import autonomous_from_prototype, feller_test, ito_criterion, predict_rate
from .errors import ConfigError, HypothesisError, InvalidCoefficientError, SimulationAbort
from .montecarlo import (
    ExperimentConfig,
    comparison_check,
    estimate_inverse_moment,
    estimate_strong_error,
    timechange_check,
)

__all__ = ["main"]


def _fmt(v) -> str:
    if v is None:
        return "none"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int,)):
        return str(v)
    return format(float(v), ".17g")


def _resolve_workers(args) -> Optional[int]:
    if args.workers is not None:
        return args.workers
    env = os.environ.get("HE_WORKERS")
    if env:
        try:
            return int(env)
        except ValueError:
            raise ConfigError(f"HE_WORKERS: cannot parse {env!r} as an integer")
    return None


def _write_lines(path: str, lines: list[str]) -> None:
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# subcommands


def cmd_converge(cfg: RunConfig, args) -> int:
    workers = _resolve_workers(args)
    try:
        exp = ExperimentConfig(
            model=cfg.model,
            horizon=cfg.horizon,
            levels=cfg.levels,
            ref_level=cfg.ref_level,
            paths=cfg.paths,
            master_seed=derive_seed(cfg.seed, "converge"),
            on_explosion=cfg.on_explosion,
        )
    except ValueError as exc:  # the reference gap rule or the memory guard
        raise ConfigError(f"[experiment] {exc}")
    report = estimate_strong_error(exp, workers=workers)

    predicted = None
    provenance = "none"
    if cfg.prototype is not None:
        try:
            pred = predict_rate(cfg.prototype)
            predicted = pred.lambda_sup
            provenance = pred.provenance
        except HypothesisError:
            pass

    lines = ["level,N,dt,l1_error,stderr,argmax_k"]
    for i, level in enumerate(report.levels):
        n = 1 << level
        lines.append(
            ",".join(
                [
                    str(level),
                    str(n),
                    _fmt(cfg.horizon / n),
                    _fmt(report.errors[i]),
                    _fmt(report.stderrs[i]),
                    str(report.argmax_nodes[i]),
                ]
            )
        )
    footer = (
        f"# lambda_hat={_fmt(report.lambda_hat)} stderr={_fmt(report.lambda_stderr)} "
        f"r2={_fmt(report.r_squared)} predicted_lambda={_fmt(predicted)} provenance={provenance}"
    )
    lines.append(footer)
    out = cfg.out or "errors.csv"
    _write_lines(out, lines)

    if cfg.plot:
        plot_lines = ["log2N,log2err"]
        for i, level in enumerate(report.levels):
            if report.errors[i] > 0.0:
                plot_lines.append(f"{_fmt(float(level))},{_fmt(math.log2(report.errors[i]))}")
        _write_lines(cfg.plot, plot_lines)

    print(footer.lstrip("# "))
    return 0


def cmd_predict(cfg: RunConfig, args) -> int:
    if cfg.prototype is None:
        raise ConfigError("predict requires a prototype model (kind cir, wf or ckls)")
    pred = predict_rate(cfg.prototype)
    parts = [f"mu0={_fmt(pred.mu0)}"]
    if pred.mu1 is not None:
        parts.append(f"mu1={_fmt(pred.mu1)}")
    parts.append(f"s={_fmt(pred.s_exponent)}")
    parts.append(f"lambda_sup={_fmt(pred.lambda_sup)}")
    parts.append(f"provenance={pred.provenance}")
    print(" ".join(parts))
    return 0


def cmd_moments(cfg: RunConfig, args) -> int:
    if cfg.q is None:
        raise ConfigError("[condition]: set q (or s, from which q is derived) for the moments command")
    workers = _resolve_workers(args)
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
    lines = ["q,estimate,stderr,ref_level,cap_hits,divergence_flag"]
    for i, level in enumerate(est.ref_levels):
        lines.append(
            ",".join(
                [
                    _fmt(est.q),
                    _fmt(est.estimates[i]),
                    _fmt(est.stderrs[i]),
                    str(level),
                    str(est.cap_hits[i]),
                    _fmt(est.divergence_flag),
                ]
            )
        )
    out = cfg.out or "moments.csv"
    _write_lines(out, lines)
    print(f"q={_fmt(est.q)} divergence_flag={_fmt(est.divergence_flag)} ref_level={est.ref_levels[-1]}")
    return 0


def _autonomous(cfg: RunConfig):
    if cfg.prototype is None:
        raise ConfigError("this command requires a prototype model (kind cir, wf or ckls)")
    try:
        return autonomous_from_prototype(cfg.prototype)
    except ValueError as exc:
        raise ConfigError(str(exc))


def cmd_feller(cfg: RunConfig, args) -> int:
    model = _autonomous(cfg)
    result = feller_test(model)
    print(
        f"conclusion={result.conclusion} "
        f"left={result.left.classification} right={result.right.classification} "
        f"v_left={_fmt(result.left.v_estimate)} v_right={_fmt(result.right.v_estimate)}"
    )
    if cfg.out:
        lines = ["side,segment,v"]
        for probe in (result.left, result.right):
            for j, v in enumerate(probe.v_values):
                lines.append(f"{probe.side},{j},{_fmt(v)}")
        _write_lines(cfg.out, lines)
    return 0


def cmd_ito(cfg: RunConfig, args) -> int:
    model = _autonomous(cfg)
    report = ito_criterion(model)
    parts = [
        f"classification={report.classification}",
        f"inf_estimate={_fmt(report.inf_estimate)}",
        f"left_trend={report.left_trend}",
        f"right_trend={report.right_trend}",
    ]
    if report.s_exponent is not None:
        parts.append(f"s={_fmt(report.s_exponent)}")
        parts.append(f"lambda_sup={_fmt(report.lambda_sup)}")
    print(" ".join(parts))
    if cfg.out:
        _write_lines(
            cfg.out,
            [
                "classification,inf_estimate,left_trend,right_trend",
                f"{report.classification},{_fmt(report.inf_estimate)},{report.left_trend},{report.right_trend}",
            ],
        )
    return 0


def cmd_timechange(cfg: RunConfig, args) -> int:
    if cfg.prototype is None:
        raise ConfigError("timechange requires a prototype model (kind cir, wf or ckls)")
    workers = _resolve_workers(args)
    level = max(cfg.levels)
    report = timechange_check(
        cfg.prototype,
        level,
        cfg.paths,
        derive_seed(cfg.seed, "timechange"),
        significance=cfg.significance,
        on_explosion=cfg.on_explosion,
        workers=workers,
    )
    verdict = "pass" if report.passed else "fail"
    print(
        f"verdict={verdict} z_mean={_fmt(report.z_mean)} z_var={_fmt(report.z_var)} "
        f"threshold={_fmt(report.threshold)} horizon_image={_fmt(report.horizon_image)}"
    )
    if cfg.out:
        _write_lines(
            cfg.out,
            [
                "verdict,z_mean,z_var,threshold,horizon_image,mean_original,mean_changed,var_original,var_changed",
                ",".join(
                    [
                        verdict,
                        _fmt(report.z_mean),
                        _fmt(report.z_var),
                        _fmt(report.threshold),
                        _fmt(report.horizon_image),
                        _fmt(report.mean_original),
                        _fmt(report.mean_changed),
                        _fmt(report.var_original),
                        _fmt(report.var_changed),
                    ]
                ),
            ],
        )
    return 0


def cmd_compare(cfg: RunConfig, args) -> int:
    workers = _resolve_workers(args)
    model_hi = cfg.model_hi if cfg.model_hi is not None else cfg.model
    seed = derive_seed(cfg.seed, "compare")
    rows = []
    for level in cfg.levels:
        rep = comparison_check(
            cfg.model,
            model_hi,
            cfg.horizon,
            level,
            cfg.paths,
            seed,
            tolerance=cfg.tolerance,
            on_explosion=cfg.on_explosion,
            workers=workers,
        )
        rows.append(rep)
        print(
            f"level={rep.level} violations={rep.n_violating} "
            f"violation_fraction={_fmt(rep.violation_fraction)} "
            f"max_violation={_fmt(rep.max_violation)} tolerance={_fmt(rep.tolerance)}"
        )
    if cfg.out:
        lines = ["level,paths,n_violating,violation_fraction,max_violation,tolerance"]
        for rep in rows:
            lines.append(
                ",".join(
                    [
                        str(rep.level),
                        str(rep.paths),
                        str(rep.n_violating),
                        _fmt(rep.violation_fraction),
                        _fmt(rep.max_violation),
                        _fmt(rep.tolerance),
                    ]
                )
            )
        _write_lines(cfg.out, lines)
    return 0


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
        p.add_argument("--paths", type=int, help="override experiment.paths")
        p.add_argument("--seed", type=int, help="override experiment.seed")
        p.add_argument("--levels", help="override experiment.levels (a:b or comma list)")
        p.add_argument("--ref-level", type=int, dest="ref_level", help="override experiment.ref_level")
        p.add_argument("--out", help="override output.out")
        p.add_argument("--workers", type=int, help="worker processes (default: cpu count; env HE_WORKERS)")
        p.add_argument("--dry-run", action="store_true", help="print the resolved config and exit")
        p.set_defaults(func=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        raw = load_config(args.config)
        raw = apply_overrides(
            raw,
            paths=args.paths,
            seed=args.seed,
            levels=args.levels,
            ref_level=args.ref_level,
            out=args.out,
        )
        if args.dry_run:
            sys.stdout.write(format_resolved(raw))
            return 0
        cfg = resolve_config(raw)
        return args.func(cfg, args)
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


def run() -> None:
    sys.exit(main())
