"""Experiment configuration files and override merging.

The format is a flat INI file: ``[section]`` headers with ``key = value``
lines, no nesting.  Four sections are recognized (``model``, ``experiment``,
``condition``, ``output``) plus an optional ``model_hi`` block that gives the
second model of a pathwise comparison; it takes the keys of ``model`` but
``horizon`` and defaults to a copy of it.  Each section's keys and their
defaults are declared once, in the key table below; a key its section (or
its model kind) does not read is an error, never ignored.

Parameter-valued keys (kappa, lam, theta) accept either a bare number or a
family spec:

    kappa = 1.5
    lam   = const:0.5
    theta = affine:1.0,0.5        # 1.0 + 0.5 t
    kappa = sin:1.0,0.5,6.2832    # 1.0 + 0.5 sin(6.2832 t)

Every number must be finite, except the ``domain`` endpoints of a custom
model, where ``inf`` marks an unbounded side.

``levels`` is an inclusive range ``4:9`` or an explicit list ``4,6,8``.
Custom models name their coefficients from a small builtin registry.

Every value a library function checks is checked here by that same
function: the horizon by the model's, each level and ``ref_level`` by the
grid's, the run and condition keys by the estimators' rules, a model block
by the model's hypotheses (models._check_state).  Its refusal becomes a
config error naming the section and the key.  These rules bind every run;
those of one subcommand alone are cli._RULES.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass, fields
from functools import partial
from typing import Optional

import numpy as np

from .errors import ConfigError
from .models import KINDS, CoefficientFn, PrototypeParams, SdeModel, _check_horizon, _positive_part, make_prototype
from .montecarlo import BLOCK_PATHS, _check
from .params import FAMILIES, ConstantParam
from .schemes import _check_grid

__all__ = [
    "RunConfig",
    "BUILTIN_COEFFICIENTS",
    "parse_param_spec",
    "parse_levels",
    "parse_number",
    "load_config",
    "resolve_config",
    "format_resolved",
]


# ---------------------------------------------------------------------------
# builtin coefficient registry for custom models

# module-level functions, bound by partial, so a custom model pickles

def _const(v, t, x):
    return np.broadcast_to(np.float64(v), np.broadcast_shapes(np.shape(t), np.shape(x))).copy() \
        if (np.ndim(t) or np.ndim(x)) else float(v)


def _identity(t, x):
    return x + 0.0 * np.asarray(t)


def _neg_x(t, x):
    return -x + 0.0 * np.asarray(t)


def _x_plus(t, x):
    return _positive_part(x) + 0.0 * np.asarray(t)


BUILTIN_COEFFICIENTS = {
    "zero": CoefficientFn(partial(_const, 0.0)),
    "one": CoefficientFn(partial(_const, 1.0)),
    "identity": CoefficientFn(_identity),
    "neg_x": CoefficientFn(_neg_x),
    "x_plus": CoefficientFn(_x_plus),
}


# ---------------------------------------------------------------------------
# value parsers

def parse_param_spec(text: str, where: str):
    """A bare number, or a params.FAMILIES spec const:v | affine:p,q | sin:p,q,omega, every number finite."""
    text = text.strip()
    try:
        family, parts = ConstantParam, [float(text)]
    except ValueError:
        if ":" not in text:
            raise ConfigError(f"{where}: cannot parse {text!r} as a parameter spec")
        name, _, body = text.partition(":")
        family = FAMILIES.get(name.strip().lower())
        try:
            parts = [float(p) for p in body.split(",")]
        except ValueError:
            raise ConfigError(f"{where}: cannot parse {text!r}: non-numeric arguments")
    if not all(math.isfinite(p) for p in parts):
        raise ConfigError(f"{where}: {text!r} is not finite")
    if family is not None and len(parts) == len(fields(family)):
        return family(*parts)
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


def parse_number(text: str, where: str, integer: bool = False):
    """A finite float, or an int when integer is set: the one reader of
    every numeric key, override flag and HE_WORKERS."""
    try:
        value = int(text) if integer else float(text)
    except ValueError:
        raise ConfigError(f"{where}: cannot parse {text!r} as {'an integer' if integer else 'a number'}")
    if not math.isfinite(value):
        raise ConfigError(f"{where}: {text!r} is not finite")
    return value


_integer = partial(parse_number, integer=True)


def _optional_number(text, where):
    return parse_number(text, where) if text.strip() else None


def _word(text, where):
    return text.strip().lower()


def _path(text, where):
    """A file to write, in a directory that exists; empty for none."""
    if text and os.path.isdir(text):
        raise ConfigError(f"{where}: {text!r} is a directory")
    if text and not os.path.isdir(os.path.dirname(text) or "."):
        raise ConfigError(f"{where}: the directory of {text!r} does not exist")
    return text or None


def _cap(text, where):
    return None if text.strip().lower() in ("auto", "") else parse_number(text, where)


def _coefficient(text, where):
    name = text.strip()
    if name not in BUILTIN_COEFFICIENTS:
        known = ", ".join(sorted(BUILTIN_COEFFICIENTS))
        raise ConfigError(f"{where}: unknown coefficient {name!r} (builtins: {known})")
    return name


def _domain(text, where):
    """'lo,hi', where an endpoint may be infinite; empty for none."""
    if not text.strip():
        return None
    try:
        lo, hi = (float(part) for part in text.split(","))
    except ValueError:
        raise ConfigError(f"{where}: cannot parse {text!r} as 'lo,hi'")
    return lo, hi


# ---------------------------------------------------------------------------
# the key table
#
# Each section lists the keys it reads as key: (default, parser), the default
# as INI text and None for a required key.  A model section reads "kind" and
# then the keys of that kind in KIND_KEYS; only [model] reads "horizon", on
# which both models of a pair run.  A key its section does not read is a
# config error.  OVERRIDES names the section of each key a CLI flag
# (--paths, --seed, --levels, --ref-level, --out) overrides.

KEYS = {
    "model": {"kind": ("cir", _word), "horizon": ("1.0", parse_number)},
    "model_hi": {"kind": ("cir", _word)},
    "experiment": {
        "levels": ("4:9", parse_levels),
        "ref_level": ("13", _integer),
        "paths": ("10000", _integer),
        "seed": ("0", _integer),
        "on_explosion": ("abort", _word),
    },
    "condition": {
        "s": ("", _optional_number),  # q = 2 (gamma + s - 1) when q is unset
        "q": ("", _optional_number),
        "cap": ("auto", _cap),
        "growth_factor": ("1.2", parse_number),
        "tolerance": ("0.001", parse_number),
        "significance": ("0.001", parse_number),
    },
    "output": {"out": ("", _path), "plot": ("", _path)},
}
_PARAM_KEYS = {key: ("1.0", parse_param_spec) for key in ("kappa", "lam", "theta")}
# a prototype kind's x0 and gamma default to its KINDS entry, and a gamma of None is required
KIND_KEYS = {
    **{name: {**_PARAM_KEYS, "x0": (str(k.x0), parse_number), "gamma": (k.gamma and str(k.gamma), parse_number)}
       for name, k in KINDS.items()},
    "custom": {
        "drift": (None, _coefficient),
        "sigma": (None, _coefficient),
        "gamma": ("0.5", parse_number),
        "x0": ("1.0", parse_number),
        "domain": ("", _domain),
    },
}
OVERRIDES = {
    "paths": "experiment", "seed": "experiment", "levels": "experiment", "ref_level": "experiment", "out": "output"
}
# keys earlier versions accepted, and why they are gone
_REMOVED_KEYS = {
    ("experiment", "batch_size"): f"paths are summed in fixed blocks of {BLOCK_PATHS}",
    ("condition", "epsilon"): "no command read it",
}


def _read(raw: dict, section: str) -> dict:
    """key: (text, parser) for every key section reads, defaults filling the gaps."""
    keys, given, reader = KEYS[section], raw.get(section, {}), "this section"
    if "kind" in keys:
        kind = _word(given.get("kind", keys["kind"][0]), f"[{section}] kind")
        if kind not in KIND_KEYS:
            raise ConfigError(f"[{section}] kind: unknown kind {kind!r} (expected {', '.join(KIND_KEYS)})")
        keys, reader = {**keys, **KIND_KEYS[kind]}, f"a {kind} model in this section"
    for key in given:
        if (section, key) in _REMOVED_KEYS:
            raise ConfigError(f"[{section}] {key}: this key was removed ({_REMOVED_KEYS[section, key]})")
        if key not in keys:
            raise ConfigError(f"[{section}] {key}: unknown key ({reader} reads {', '.join(keys)})")
    read = {key: (given.get(key, default), parse) for key, (default, parse) in keys.items()}
    for key, (text, _) in read.items():
        if text is None:
            raise ConfigError(f"[{section}] {key}: required key is missing")
    return read


def _values(raw: dict, section: str) -> dict:
    """Every key section reads, parsed."""
    return {key: parse(text, f"[{section}] {key}") for key, (text, parse) in _read(raw, section).items()}


@dataclass(frozen=True)
class RunConfig:
    """Everything a subcommand needs, fully typed and validated."""

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
        if section not in KEYS:
            raise ConfigError(f"[{section}]: unknown section (expected {', '.join(KEYS)})")
        raw[section] = dict(parser.items(section))
        _read(raw, section)  # rejects a key the section does not read
    return raw


def apply_overrides(raw: dict, **overrides) -> dict:
    """Merge CLI override flags, keyed as in OVERRIDES, into the raw config
    as strings."""
    out = {s: dict(kv) for s, kv in raw.items()}
    for key, value in overrides.items():
        if value is not None:
            out.setdefault(OVERRIDES[key], {})[key] = str(value)
    return out


def _model(section: str, v: dict, horizon: float):
    """Build (SdeModel, PrototypeParams|None) from a model block's values."""
    try:
        if v["kind"] not in KINDS:
            return SdeModel(
                drift=BUILTIN_COEFFICIENTS[v["drift"]],
                base_sigma=BUILTIN_COEFFICIENTS[v["sigma"]],
                gamma=v["gamma"],
                x0=v["x0"],
                domain=v["domain"],
                name=f"custom-{v['drift']}-{v['sigma']}",
            ), None
        # a prototype kind's keys are PrototypeParams' fields, and both models run on [model]'s horizon
        params = PrototypeParams(**{**v, "horizon": horizon})
        return make_prototype(params), params
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"[{section}]: {exc}")


def _checked(where: str, check, *args, **kwargs) -> None:
    """Call a library check.  Its ValueError, which starts with the name of
    the argument, becomes a ConfigError naming where instead."""
    try:
        check(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where}: {str(exc).partition(' ')[2]}") from None


def resolve_config(raw: dict) -> RunConfig:
    """Validate the raw config and build every object the subcommands use."""
    m = _values(raw, "model")
    horizon = m["horizon"]
    _checked("[model] horizon", _check_horizon, horizon)
    model, prototype = _model("model", m, horizon)
    model_hi = _model("model_hi", _values(raw, "model_hi"), horizon)[0] if raw.get("model_hi") else None

    e = _values(raw, "experiment")
    for level in e["levels"]:
        _checked("[experiment] levels", _check_grid, level, horizon)
    _checked("[experiment] ref_level", _check_grid, e["ref_level"], horizon)
    for key in ("paths", "on_explosion"):
        _checked(f"[experiment] {key}", _check, **{key: e[key]})

    c = _values(raw, "condition")
    s = c.pop("s")
    if c["q"] is None and s is not None:
        c["q"] = 2.0 * (model.gamma + s - 1.0)
    for key in ("q", "cap", "growth_factor", "tolerance", "significance"):
        if c[key] is not None:
            _checked(f"[condition] {key}", _check, **{key: c[key]})

    # the remaining keys of these three sections are RunConfig's own fields
    return RunConfig(
        model=model, prototype=prototype, model_hi=model_hi, horizon=horizon,
        **e, **c, **_values(raw, "output"),
    )


def format_resolved(raw: dict) -> str:
    """Render every key the run reads, with the text of the value it uses,
    for --dry-run, after resolve_config has checked the values."""
    lines = []
    for section in KEYS:
        if section == "model_hi" and not raw.get(section):
            continue
        lines.append(f"[{section}]")
        lines += [f"{key} = {text}".rstrip() for key, (text, _) in sorted(_read(raw, section).items())]
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"
