"""Experiment configuration files and override merging.

The format is a flat INI file: ``[section]`` headers with ``key = value``
lines, no nesting.  Four sections are recognized (``model``, ``experiment``,
``condition``, ``output``) plus an optional ``model_hi`` block that gives the
second model of a pathwise comparison; it takes the same keys as ``model``
and defaults to a copy of it.

Parameter-valued keys (kappa, lam, theta) accept either a bare number or a
family spec:

    kappa = 1.5
    lam   = const:0.5
    theta = affine:1.0,0.5        # 1.0 + 0.5 t
    kappa = sin:1.0,0.5,6.2832    # 1.0 + 0.5 sin(6.2832 t)

Every number must be finite, except the ``domain`` endpoints of a custom
model, where ``inf`` marks an unbounded side.

``levels`` is an inclusive range ``4:9`` or an explicit list ``4,6,8``.
No level, ``ref_level`` included, may exceed the memory guard ``MAX_LEVEL``
(26).
Custom models name their coefficients from a small builtin registry.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError
from .models import KINDS, CoefficientFn, PrototypeParams, SdeModel, make_prototype
from .montecarlo import BLOCK_PATHS
from .params import AffineParam, ConstantParam, SinusoidalParam
from .schemes import MAX_LEVEL

__all__ = [
    "RunConfig",
    "BUILTIN_COEFFICIENTS",
    "parse_param_spec",
    "parse_levels",
    "load_config",
    "resolve_config",
    "format_resolved",
]


# ---------------------------------------------------------------------------
# builtin coefficient registry for custom models

def _const_fn(v):
    def fn(t, x):
        return np.broadcast_to(np.float64(v), np.broadcast_shapes(np.shape(t), np.shape(x))).copy() \
            if (np.ndim(t) or np.ndim(x)) else float(v)
    return fn


BUILTIN_COEFFICIENTS = {
    "zero": CoefficientFn(_const_fn(0.0)),
    "one": CoefficientFn(_const_fn(1.0)),
    "identity": CoefficientFn(lambda t, x: x + 0.0 * np.asarray(t)),
    "neg_x": CoefficientFn(lambda t, x: -x + 0.0 * np.asarray(t)),
    "x_plus": CoefficientFn(lambda t, x: np.maximum(x, 0.0) + 0.0 * np.asarray(t)),
}


# ---------------------------------------------------------------------------
# value parsers

def parse_param_spec(text: str, where: str):
    """A bare number, or one of const:v | affine:p,q | sin:p,q,omega, with
    every number finite."""
    text = text.strip()
    try:
        family, parts = "const", [float(text)]
    except ValueError:
        if ":" not in text:
            raise ConfigError(f"{where}: cannot parse {text!r} as a parameter spec")
        family, _, body = text.partition(":")
        family = family.strip().lower()
        try:
            parts = [float(p) for p in body.split(",")]
        except ValueError:
            raise ConfigError(f"{where}: cannot parse {text!r}: non-numeric arguments")
    if not all(math.isfinite(p) for p in parts):
        raise ConfigError(f"{where}: {text!r} is not finite")
    try:
        if family in ("const", "constant") and len(parts) == 1:
            return ConstantParam(parts[0])
        if family == "affine" and len(parts) == 2:
            return AffineParam(parts[0], parts[1])
        if family in ("sin", "sinusoidal") and len(parts) == 3:
            return SinusoidalParam(parts[0], parts[1], parts[2])
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}")
    raise ConfigError(
        f"{where}: unknown parameter spec {text!r} "
        "(expected a number, const:v, affine:p,q or sin:p,q,omega)"
    )


def parse_levels(text: str, where: str) -> tuple[int, ...]:
    text = text.strip()
    try:
        if ":" in text:
            lo_s, _, hi_s = text.partition(":")
            lo, hi = int(lo_s), int(hi_s)
            if hi < lo:
                raise ConfigError(f"{where}: empty level range {text!r}")
            return tuple(range(lo, hi + 1))
        return tuple(sorted(set(int(p) for p in text.split(","))))
    except ValueError:
        raise ConfigError(f"{where}: cannot parse {text!r} as levels (use a:b or a comma list)")


def _get_float(sec, section, key, default=None):
    if key not in sec:
        if default is None:
            raise ConfigError(f"[{section}] {key}: required key is missing")
        return default
    try:
        value = float(sec[key])
    except ValueError:
        raise ConfigError(f"[{section}] {key}: cannot parse {sec[key]!r} as a number")
    if not math.isfinite(value):
        raise ConfigError(f"[{section}] {key}: {sec[key]!r} is not finite")
    return value


def _get_int(sec, section, key, default=None):
    if key not in sec:
        if default is None:
            raise ConfigError(f"[{section}] {key}: required key is missing")
        return default
    try:
        return int(sec[key])
    except ValueError:
        raise ConfigError(f"[{section}] {key}: cannot parse {sec[key]!r} as an integer")


_MODEL_KEYS = {"kind", "kappa", "lam", "theta", "x0", "gamma", "horizon", "drift", "sigma", "domain"}
_EXPERIMENT_KEYS = {"levels", "ref_level", "paths", "seed", "on_explosion"}
_CONDITION_KEYS = {"s", "q", "cap", "growth_factor", "tolerance", "significance"}
_OUTPUT_KEYS = {"out", "plot"}
_SECTION_KEYS = {
    "model": _MODEL_KEYS,
    "model_hi": _MODEL_KEYS,
    "experiment": _EXPERIMENT_KEYS,
    "condition": _CONDITION_KEYS,
    "output": _OUTPUT_KEYS,
}
# keys earlier versions accepted, and why they are gone
_REMOVED_KEYS = {
    ("experiment", "batch_size"): f"paths are summed in fixed blocks of {BLOCK_PATHS}",
    ("condition", "epsilon"): "no command read it",
}


@dataclass(frozen=True)
class RunConfig:
    """Everything a subcommand needs, fully typed and validated."""

    kind: str
    model: SdeModel
    prototype: Optional[PrototypeParams]
    model_hi: Optional[SdeModel]
    horizon: float
    levels: tuple[int, ...]
    ref_level: int
    paths: int
    seed: int
    on_explosion: str
    q: Optional[float]
    cap: Optional[float]
    growth_factor: float
    tolerance: float
    significance: float
    out: Optional[str]
    plot: Optional[str]


def load_config(path: Optional[str]) -> dict:
    """Read an INI file into {section: {key: raw string}}; path=None gives
    an empty config (defaults only)."""
    raw: dict[str, dict[str, str]] = {}
    if path is None:
        return raw
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}")
    except configparser.Error as exc:
        raise ConfigError(f"config file {path!r}: {exc}")
    for section in parser.sections():
        if section not in _SECTION_KEYS:
            raise ConfigError(f"[{section}]: unknown section (expected model, model_hi, experiment, condition, output)")
        raw[section] = {}
        for key, value in parser.items(section):
            if (section, key) in _REMOVED_KEYS:
                raise ConfigError(f"[{section}] {key}: this key was removed ({_REMOVED_KEYS[section, key]})")
            if key not in _SECTION_KEYS[section]:
                raise ConfigError(f"[{section}] {key}: unknown key")
            raw[section][key] = value
    return raw


def apply_overrides(raw: dict, **overrides) -> dict:
    """Merge CLI override flags into the raw config (strings).

    Recognized: paths, seed, levels, ref_level, out.
    """
    out = {s: dict(kv) for s, kv in raw.items()}
    mapping = {
        "paths": ("experiment", "paths"),
        "seed": ("experiment", "seed"),
        "levels": ("experiment", "levels"),
        "ref_level": ("experiment", "ref_level"),
        "out": ("output", "out"),
    }
    for name, value in overrides.items():
        if value is None:
            continue
        section, key = mapping[name]
        out.setdefault(section, {})[key] = str(value)
    return out


def _resolve_model(raw: dict, section: str):
    """Build (kind, SdeModel, PrototypeParams|None) from a model block."""
    sec = raw.get(section, {})
    if section == "model_hi" and not sec:
        return None
    kind = sec.get("kind", "cir").strip().lower()
    horizon = _get_float(sec, section, "horizon", 1.0)
    if horizon <= 0.0:
        raise ConfigError(f"[{section}] horizon: must be positive")
    if kind in KINDS:
        kappa = parse_param_spec(sec.get("kappa", "1.0"), f"[{section}] kappa")
        lam = parse_param_spec(sec.get("lam", "1.0"), f"[{section}] lam")
        theta = parse_param_spec(sec.get("theta", "1.0"), f"[{section}] theta")
        default_x0 = 0.5 if kind == "wf" else 1.0
        x0 = _get_float(sec, section, "x0", default_x0)
        gamma = _get_float(sec, section, "gamma", 0.0) or None
        try:
            params = PrototypeParams(
                kind=kind, kappa=kappa, lam=lam, theta=theta, x0=x0, gamma=gamma, horizon=horizon
            )
            model = make_prototype(params)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"[{section}]: {exc}")
        return kind, model, params, horizon
    if kind == "custom":
        for key in ("drift", "sigma"):
            if key not in sec:
                raise ConfigError(f"[{section}] {key}: required for a custom model")
            if sec[key].strip() not in BUILTIN_COEFFICIENTS:
                known = ", ".join(sorted(BUILTIN_COEFFICIENTS))
                raise ConfigError(
                    f"[{section}] {key}: unknown coefficient {sec[key].strip()!r} (builtins: {known})"
                )
        gamma = _get_float(sec, section, "gamma", 0.5)
        x0 = _get_float(sec, section, "x0", 1.0)
        domain = None
        if "domain" in sec:
            parts = sec["domain"].split(",")
            if len(parts) != 2:
                raise ConfigError(f"[{section}] domain: expected 'lo,hi'")
            try:
                domain = (float(parts[0]), float(parts[1]))
            except ValueError:
                raise ConfigError(f"[{section}] domain: cannot parse {sec['domain']!r}")
        try:
            model = SdeModel(
                drift=BUILTIN_COEFFICIENTS[sec["drift"].strip()],
                base_sigma=BUILTIN_COEFFICIENTS[sec["sigma"].strip()],
                gamma=gamma,
                x0=x0,
                domain=domain,
                name=f"custom-{sec['drift'].strip()}-{sec['sigma'].strip()}",
            )
        except ValueError as exc:
            raise ConfigError(f"[{section}]: {exc}")
        return kind, model, None, horizon
    raise ConfigError(f"[{section}] kind: unknown kind {kind!r} (expected {', '.join(KINDS)} or custom)")


def resolve_config(raw: dict) -> RunConfig:
    """Validate the raw config and build every object the subcommands use."""
    kind, model, prototype, horizon = _resolve_model(raw, "model")
    hi = _resolve_model(raw, "model_hi")
    model_hi = hi[1] if hi is not None else None

    sec = raw.get("experiment", {})
    levels = parse_levels(sec.get("levels", "4:9"), "[experiment] levels")
    if not levels or levels[0] < 0:
        raise ConfigError("[experiment] levels: must be nonnegative and nonempty")
    if levels[-1] > MAX_LEVEL:
        raise ConfigError(f"[experiment] levels: level {levels[-1]} exceeds the memory guard {MAX_LEVEL}")
    ref_level = _get_int(sec, "experiment", "ref_level", 13)
    if ref_level > MAX_LEVEL:
        raise ConfigError(f"[experiment] ref_level: {ref_level} exceeds the memory guard {MAX_LEVEL}")
    paths = _get_int(sec, "experiment", "paths", 10000)
    if paths < 1:
        raise ConfigError("[experiment] paths: must be at least 1")
    seed = _get_int(sec, "experiment", "seed", 0)
    on_explosion = sec.get("on_explosion", "abort").strip().lower()
    if on_explosion not in ("abort", "drop"):
        raise ConfigError("[experiment] on_explosion: must be 'abort' or 'drop'")

    sec = raw.get("condition", {})
    q = _get_float(sec, "condition", "q", math.nan)
    if math.isnan(q):  # derived from s when s is given
        q = 2.0 * (model.gamma + _get_float(sec, "condition", "s", math.nan) - 1.0)
    q = None if math.isnan(q) else q
    if q is not None and q > 0.0:
        raise ConfigError("[condition] q: must be nonpositive")
    cap = None
    if "cap" in sec and sec["cap"].strip().lower() not in ("auto", ""):
        cap = _get_float(sec, "condition", "cap")
        if cap <= 0.0:
            raise ConfigError("[condition] cap: must be positive (or 'auto')")
    growth_factor = _get_float(sec, "condition", "growth_factor", 1.2)
    if growth_factor <= 1.0:
        raise ConfigError("[condition] growth_factor: must exceed 1")
    tolerance = _get_float(sec, "condition", "tolerance", 1e-3)
    if tolerance <= 0.0:
        raise ConfigError("[condition] tolerance: must be positive")
    significance = _get_float(sec, "condition", "significance", 1e-3)
    if not 0.0 < significance < 1.0:
        raise ConfigError("[condition] significance: must lie in (0, 1)")

    sec = raw.get("output", {})
    out = sec.get("out") or None
    plot = sec.get("plot") or None

    return RunConfig(
        kind=kind,
        model=model,
        prototype=prototype,
        model_hi=model_hi,
        horizon=horizon,
        levels=levels,
        ref_level=ref_level,
        paths=paths,
        seed=seed,
        on_explosion=on_explosion,
        q=q,
        cap=cap,
        growth_factor=growth_factor,
        tolerance=tolerance,
        significance=significance,
        out=out,
        plot=plot,
    )


def format_resolved(raw: dict) -> str:
    """Render the merged raw config with defaults filled in, for --dry-run."""
    cfg = resolve_config(raw)  # validates; raises ConfigError on problems
    lines = []
    filled = {s: dict(kv) for s, kv in raw.items()}
    filled.setdefault("model", {}).setdefault("kind", cfg.kind)
    filled["model"].setdefault("horizon", repr(cfg.horizon))
    exp = filled.setdefault("experiment", {})
    exp.setdefault("levels", ",".join(str(l) for l in cfg.levels))
    exp.setdefault("ref_level", str(cfg.ref_level))
    exp.setdefault("paths", str(cfg.paths))
    exp.setdefault("seed", str(cfg.seed))
    exp.setdefault("on_explosion", cfg.on_explosion)
    for section in ("model", "model_hi", "experiment", "condition", "output"):
        if section not in filled:
            continue
        lines.append(f"[{section}]")
        for key in sorted(filled[section]):
            lines.append(f"{key} = {filled[section][key]}")
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"
