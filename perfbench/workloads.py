"""The benchmark's workloads: CLI operations, their inputs, work and checks.

Each operation is one ``powersde`` subcommand run on a generated INI config.
The workload seed reaches the program only as the config's ``seed`` key.
``path_steps`` is the number of Euler path-steps an operation runs,
computed from its inputs (never counted inside the program), and ``check``
applies the semantic test of the acceptance criterion the operation
mirrors; it returns a list of problems, empty when the output is right.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

# An operation's INI config without its seed: {section: {key: value}}.
Config = dict[str, dict[str, str]]


@dataclass(frozen=True)
class Op:
    name: str
    command: str
    config: Config
    path_steps: int
    check: Callable[[dict], list[str]]
    seeded: bool = True  # False: the output does not depend on the seed


def ini_text(config: Config, seed: int) -> str:
    lines = []
    for section, keys in config.items():
        lines.append(f"[{section}]")
        lines += [f"{k} = {v}" for k, v in keys.items()]
        if section == "experiment":
            lines.append(f"seed = {seed}")
    if "experiment" not in config:
        lines += ["[experiment]", f"seed = {seed}"]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Euler path-steps per operation, from the inputs


def converge_steps(paths, levels, ref_level):
    """One reference sweep plus one sweep per studied level, per path."""
    return paths * ((1 << ref_level) + sum(1 << l for l in levels))


def moments_steps(paths, ref_level):
    """Sweeps at ref_level - 2, ref_level - 1 and ref_level, per path."""
    return paths * sum(1 << l for l in (ref_level - 2, ref_level - 1, ref_level))


def compare_steps(paths, levels):
    """Both models of the pair at every level, per path."""
    return sum(2 * paths * (1 << l) for l in levels)


def timechange_steps(paths, level):
    """The original and the clock-changed model, per path."""
    return 2 * paths * (1 << level)


# ---------------------------------------------------------------------------
# semantic checks (acceptance criteria 04-11)


def _num(text):
    try:
        return float(text)
    except (TypeError, ValueError):
        return math.nan


def _field(out, key, line=0):
    lines = out["stdout"]
    return lines[line].get(key) if len(lines) > line else None


def check_converge(band, levels):
    lo, hi = band

    def check(out):
        problems = []
        lam = _num(_field(out, "lambda_hat"))
        if not lo <= lam <= hi:
            problems.append(f"lambda_hat {lam} outside [{lo}, {hi}]")
        rows = out["csv"]
        if [r.get("level") for r in rows] != [str(l) for l in levels]:
            return problems + [f"levels {[r.get('level') for r in rows]} != {list(levels)}"]
        for r, level in zip(rows, levels):
            if r.get("N") != str(1 << level):
                problems.append(f"level {level}: N={r.get('N')} is not 2^level")
            if not _num(r.get("l1_error")) > 0.0:
                problems.append(f"level {level}: l1_error {r.get('l1_error')} is not positive")
        return problems

    return check


def check_fields(**expected):
    def check(out):
        return [
            f"{k}={_field(out, k)!r}, expected {v!r}" for k, v in expected.items() if _field(out, k) != v
        ]

    return check


def check_predict(nu):
    def check(out):
        want = min(0.5, nu / 2.0)
        got = _num(_field(out, "lambda_sup"))
        problems = [] if abs(got - want) <= 1e-12 else [f"lambda_sup {got} != min(1/2, nu/2) = {want}"]
        return problems + check_fields(provenance="cir-boundary-rate")(out)

    return check


def check_compare(levels):
    def check(out):
        frac = {int(_num(l.get("level"))): _num(l.get("violation_fraction")) for l in out["stdout"]}
        if sorted(frac) != sorted(levels):
            return [f"levels {sorted(frac)} != {sorted(levels)}"]
        coarse, fine = frac[min(levels)], frac[max(levels)]
        if fine < 0.01 and fine <= coarse:
            return []
        return [f"violation fraction {coarse} -> {fine}: not below 0.01 and non-increasing"]

    return check


# ---------------------------------------------------------------------------
# workloads

TWO_PI = repr(2.0 * math.pi)
LEVELS = tuple(range(4, 10))


def _cir(lam, kappa="1.0"):
    return {"kind": "cir", "kappa": kappa, "lam": lam, "theta": "1.0", "x0": "1.0"}


def converge_ops(paths=2048, levels=LEVELS, ref_level=13):
    experiment = {"levels": f"{levels[0]}:{levels[-1]}", "ref_level": str(ref_level), "paths": str(paths)}
    models = [
        # name, model section, lambda_hat band of criteria 04-07
        ("cir-nu2", _cir("1.0"), (0.40, 0.60)),
        ("cir-lam0.25", _cir("0.25"), (0.15, math.inf)),
        ("ckls-g0.75", {**_cir("1.0"), "kind": "ckls", "gamma": "0.75"}, (0.40, 0.60)),
        ("wf-k2", {"kind": "wf", "kappa": "2.0", "lam": "0.5", "theta": "1.0", "x0": "0.5"}, (0.40, 0.60)),
    ]
    return [
        Op(
            name=f"converge-{name}",
            command="converge",
            config={"model": model, "experiment": experiment},
            path_steps=converge_steps(paths, levels, ref_level),
            check=check_converge(band, levels),
        )
        for name, model, band in models
    ]


def timechange_ops(paths=20_000, level=12):
    model = {**_cir("1.0"), "theta": f"sin:1.0,0.5,{TWO_PI}"}
    # timechange runs at max(levels); ref_level only has to pass the gap rule
    experiment = {"levels": str(level), "ref_level": str(level + 4), "paths": str(paths)}
    return [
        Op(
            name="timechange-cir-sin",
            command="timechange",
            config={"model": model, "experiment": experiment},
            path_steps=timechange_steps(paths, level),
            check=check_fields(verdict="pass"),
        )
    ]


def boundary_ops(moment_paths=2000, moment_ref=12, compare_paths=1000, compare_levels=(8, 10)):
    ops = []
    for nu in (0.25, 0.5, 2.0, 4.0):
        model = _cir(repr(nu / 2.0))
        tag = f"nu{nu:g}"
        ops += [
            Op(f"predict-{tag}", "predict", {"model": model}, 0, check_predict(nu), seeded=False),
            Op(
                f"feller-{tag}",
                "feller",
                {"model": model},
                0,
                check_fields(conclusion="exit-possible" if nu < 1.0 else "no-exit"),
                seeded=False,
            ),
            # no criterion covers ito; its seed-free output is pinned exactly
            Op(f"ito-{tag}", "ito", {"model": model}, 0, lambda out: [], seeded=False),
            Op(
                f"moments-{tag}",
                "moments",
                {
                    "model": model,
                    # moments never reads levels, but resolve_config still
                    # applies the gap rule ref_level >= max(levels) + 4
                    "experiment": {
                        "levels": f"4:{moment_ref - 4}",
                        "ref_level": str(moment_ref),
                        "paths": str(moment_paths),
                    },
                    "condition": {"q": "-1.0"},
                },
                moments_steps(moment_paths, moment_ref),
                # criterion 08: divergent below nu = 1, finite above
                check_fields(divergence_flag="true" if nu < 1.0 else "false"),
            ),
            Op(
                f"compare-{tag}",
                "compare",
                {
                    "model": model,
                    "model_hi": _cir("2.0"),
                    "experiment": {
                        "levels": ",".join(map(str, compare_levels)),
                        "ref_level": str(max(compare_levels) + 4),
                        "paths": str(compare_paths),
                    },
                },
                compare_steps(compare_paths, compare_levels),
                check_compare(compare_levels),
            ),
        ]
    return ops


WORKLOADS = {
    "converge": converge_ops,
    "timechange": timechange_ops,
    "boundary": boundary_ops,
}

# Small versions of each workload, run once before timing to load every
# code path (imports, pools, scipy kernels).  Their outputs are not checked
# against the criteria, which need the full sizes.
WARMUP = {
    "converge": lambda: converge_ops(paths=64, levels=(4, 5), ref_level=9),
    "timechange": lambda: timechange_ops(paths=256, level=7),
    "boundary": lambda: boundary_ops(moment_paths=64, moment_ref=8, compare_paths=64, compare_levels=(5, 6)),
}
