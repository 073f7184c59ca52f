import numpy as np
import pytest

from powersde.config import (
    BUILTIN_COEFFICIENTS,
    apply_overrides,
    format_resolved,
    load_config,
    parse_levels,
    parse_param_spec,
    resolve_config,
)
from powersde.errors import ConfigError
from powersde.models import KINDS
from powersde.montecarlo import estimate_strong_error
from powersde.params import AffineParam, ConstantParam, SinusoidalParam


class TestParamSpec:
    def test_bare_number(self):
        p = parse_param_spec("2.5", "here")
        assert isinstance(p, ConstantParam)
        assert p(0.0) == 2.5

    def test_const_family(self):
        assert parse_param_spec("const:3", "here") == ConstantParam(3.0)

    def test_affine_family(self):
        assert parse_param_spec("affine:1.0,0.5", "here") == AffineParam(1.0, 0.5)

    def test_sin_family(self):
        p = parse_param_spec("sin:1.0,0.5,6.28", "here")
        assert p == SinusoidalParam(1.0, 0.5, 6.28)

    @pytest.mark.parametrize("text", ["abc", "affine:1", "sin:1,2", "poly:1,2,3", "const:x"])
    def test_malformed_specs_name_the_location(self, text):
        with pytest.raises(ConfigError, match="spot"):
            parse_param_spec(text, "spot")

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "const:nan", "affine:1,inf", "sin:1,0.5,-inf"])
    def test_non_finite_numbers_name_the_location(self, text):
        with pytest.raises(ConfigError, match="spot: .* is not finite"):
            parse_param_spec(text, "spot")


class TestLevels:
    def test_range(self):
        assert parse_levels("4:7", "x") == (4, 5, 6, 7)

    def test_comma_list(self):
        assert parse_levels("8,4,6", "x") == (4, 6, 8)

    def test_single(self):
        assert parse_levels("5", "x") == (5,)

    @pytest.mark.parametrize("text", ["7:4", "a:b", "1,two"])
    def test_malformed(self, text):
        with pytest.raises(ConfigError):
            parse_levels(text, "x")


def write_ini(tmp_path, text):
    path = tmp_path / "run.ini"
    path.write_text(text)
    return str(path)


class TestLoadAndResolve:
    def test_defaults_alone_give_a_cir_experiment(self):
        cfg = resolve_config({})
        assert cfg.prototype.kind == "cir"
        assert cfg.levels == (4, 5, 6, 7, 8, 9)
        assert cfg.ref_level == 13
        assert cfg.paths == 10000
        assert cfg.model.gamma == 0.5
        assert cfg.prototype is not None
        assert cfg.model_hi is None

    def test_file_round_trip(self, tmp_path):
        path = write_ini(
            tmp_path,
            """
[model]
kind = wf
kappa = 2.0
lam = 0.5
x0 = 0.5

[experiment]
levels = 5:7
ref_level = 11
paths = 128
seed = 9
""",
        )
        cfg = resolve_config(load_config(path))
        assert cfg.prototype.kind == "wf"
        assert cfg.levels == (5, 6, 7)
        assert cfg.seed == 9
        assert cfg.model.name == "wf"

    def test_unknown_section_rejected(self, tmp_path):
        path = write_ini(tmp_path, "[experiments]\npaths = 3\n")
        with pytest.raises(ConfigError, match="experiments"):
            load_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = write_ini(tmp_path, "[experiment]\npath = 3\n")
        with pytest.raises(ConfigError, match="path"):
            load_config(path)

    def test_missing_file_rejected(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/run.ini")

    @pytest.mark.parametrize("section,key", [("experiment", "batch_size"), ("condition", "epsilon")])
    def test_removed_keys_say_so(self, tmp_path, section, key):
        path = write_ini(tmp_path, f"[{section}]\n{key} = 1\n")
        with pytest.raises(ConfigError, match=f"{key}: this key was removed"):
            load_config(path)

    def test_gap_rule_names_itself(self):
        # only converge reads both levels and ref_level, so the config resolves
        # and estimate_strong_error, which converge calls, enforces the rule
        cfg = resolve_config({"experiment": {"levels": "4:9", "ref_level": "10"}})
        assert (cfg.levels[-1], cfg.ref_level) == (9, 10)
        with pytest.raises(ValueError, match="gap rule"):
            estimate_strong_error(cfg.model, cfg.horizon, cfg.levels, cfg.ref_level, cfg.paths, cfg.seed)

    def test_override_merging(self):
        raw = {"experiment": {"seed": "1", "paths": "10"}}
        merged = apply_overrides(raw, seed=42, levels="3:5", out="x.csv", paths=None, ref_level=None)
        cfg = resolve_config(merged)
        assert cfg.seed == 42
        assert cfg.paths == 10
        assert cfg.levels == (3, 4, 5)
        assert cfg.out == "x.csv"

    def test_sinusoidal_theta_parses(self, tmp_path):
        path = write_ini(
            tmp_path,
            "[model]\nkind = cir\ntheta = sin:1.0,0.5,6.283185307179586\n",
        )
        cfg = resolve_config(load_config(path))
        assert isinstance(cfg.prototype.theta, SinusoidalParam)

    def test_q_derived_from_s(self):
        raw = {"condition": {"s": "0.25"}}
        cfg = resolve_config(raw)
        assert cfg.q == pytest.approx(-0.5)

    def test_explicit_q_wins(self):
        raw = {"condition": {"s": "0.25", "q": "-1.0"}}
        assert resolve_config(raw).q == -1.0

    def test_positive_q_rejected(self):
        with pytest.raises(ConfigError, match="q"):
            resolve_config({"condition": {"q": "0.5"}})

    def test_zero_tolerance_is_accepted(self):
        # comparison_check takes 0 too: every negative gap is a violation
        assert resolve_config({"condition": {"tolerance": "0"}}).tolerance == 0.0
        with pytest.raises(ConfigError, match=r"\[condition\] tolerance: must be nonnegative"):
            resolve_config({"condition": {"tolerance": "-1e-9"}})

    @pytest.mark.parametrize(
        "section,given,key",
        [
            ("model", {"kind": "custom", "drift": "zero", "sigma": "one", "theta": "2"}, "theta"),
            ("model", {"kind": "wf", "drift": "zero"}, "drift"),
            ("model_hi", {"kind": "ckls", "gamma": "0.75", "horizon": "2"}, "horizon"),
        ],
        ids=["custom-theta", "wf-drift", "model_hi-horizon"],
    )
    def test_a_key_the_model_kind_does_not_read_is_rejected(self, section, given, key):
        with pytest.raises(ConfigError, match=rf"^\[{section}\] {key}: unknown key \(a {given['kind']} model"):
            resolve_config({section: given})

    def test_cap_auto_and_numeric(self):
        assert resolve_config({"condition": {"cap": "auto"}}).cap is None
        assert resolve_config({"condition": {"cap": "100"}}).cap == 100.0
        with pytest.raises(ConfigError):
            resolve_config({"condition": {"cap": "-1"}})

    @pytest.mark.parametrize(
        "section,key,value",
        [
            ("model", "horizon", "nan"),
            ("model", "horizon", "inf"),
            ("model", "kappa", "inf"),
            ("model", "theta", "nan"),
            ("condition", "q", "nan"),
            ("condition", "cap", "inf"),
            ("condition", "growth_factor", "inf"),
            ("condition", "tolerance", "inf"),
        ],
    )
    def test_non_finite_numbers_name_the_key(self, section, key, value):
        with pytest.raises(ConfigError, match=rf"\[{section}\] {key}: '{value}' is not finite"):
            resolve_config({section: {key: value}})

    def test_domain_endpoints_may_be_infinite(self):
        raw = {"model": {"kind": "custom", "drift": "neg_x", "sigma": "one", "domain": "-inf,inf"}}
        assert resolve_config(raw).model.domain == (-float("inf"), float("inf"))

    def test_bad_model_parameters_become_config_errors(self):
        raw = {"model": {"kind": "wf", "x0": "1.5"}}
        with pytest.raises(ConfigError, match="model"):
            resolve_config(raw)
        raw = {"model": {"kind": "ckls"}}  # gamma missing
        with pytest.raises(ConfigError):
            resolve_config(raw)

    @pytest.mark.parametrize("section", ["model", "model_hi"])
    @pytest.mark.parametrize(
        "kind,gamma,message",
        [
            ("cir", "0", "cir has gamma fixed at 1/2"),
            ("wf", "0", "wf has gamma fixed at 1/2"),
            ("cir", "0.75", "cir has gamma fixed at 1/2"),
            ("ckls", "0", "ckls requires gamma in (1/2, 1)"),
        ],
    )
    def test_a_gamma_the_kind_does_not_allow_is_refused(self, section, kind, gamma, message):
        # gamma = 0 is a value like any other, never read as unset
        with pytest.raises(ConfigError) as exc_info:
            resolve_config({section: {"kind": kind, "gamma": gamma}})
        assert str(exc_info.value) == f"[{section}]: {message}"


class TestCustomModels:
    def test_builtin_registry_names(self):
        assert {"zero", "one", "identity", "neg_x", "x_plus"} <= set(BUILTIN_COEFFICIENTS)

    def test_custom_model_resolves(self):
        raw = {"model": {"kind": "custom", "drift": "neg_x", "sigma": "zero", "x0": "1.0"}}
        cfg = resolve_config(raw)
        assert cfg.prototype is None
        assert cfg.model.drift(0.0, 2.0) == -2.0
        assert cfg.model.base_sigma(0.0, 2.0) == 0.0

    def test_unknown_coefficient_lists_builtins(self):
        raw = {"model": {"kind": "custom", "drift": "cubic", "sigma": "one"}}
        with pytest.raises(ConfigError, match="neg_x"):
            resolve_config(raw)

    def test_custom_requires_both_coefficients(self):
        raw = {"model": {"kind": "custom", "drift": "zero"}}
        with pytest.raises(ConfigError, match="sigma"):
            resolve_config(raw)


class TestModelHi:
    def test_second_block_resolves(self):
        raw = {
            "model": {"kind": "cir", "lam": "0.25"},
            "model_hi": {"kind": "cir", "lam": "1.0"},
        }
        cfg = resolve_config(raw)
        assert cfg.model_hi is not None
        assert cfg.model_hi.drift(0.0, 0.0) == pytest.approx(1.0)
        assert cfg.model.drift(0.0, 0.0) == pytest.approx(0.25)


def test_format_resolved_shows_filled_defaults():
    text = format_resolved({})
    assert "[experiment]" in text
    assert "ref_level = 13" in text
    assert "paths = 10000" in text


# Every default the resolver fills in, pinned per kind and per model section.
@pytest.mark.parametrize("section", ["model", "model_hi"])
@pytest.mark.parametrize(
    "kind,x0,gamma", [("cir", 1.0, 0.5), ("wf", 0.5, 0.5), ("ckls", 1.0, 0.75), ("custom", 1.0, 0.5)]
)
def test_model_defaults_are_pinned(section, kind, x0, gamma):
    given = {"kind": kind}
    if kind == "ckls":  # the one kind without a default gamma
        given["gamma"] = "0.75"
    if kind == "custom":
        given.update(drift="neg_x", sigma="one")
    cfg = resolve_config({section: given})
    model = cfg.model if section == "model" else cfg.model_hi
    assert (model.x0, model.gamma, cfg.horizon) == (x0, gamma, 1.0)
    xs = np.array([0.25, 0.5, 0.75])
    if kind == "custom":
        assert model.domain is None
        assert list(model.drift(0.5, xs)) == list(-xs)
        assert list(model.base_sigma(0.5, xs)) == [1.0, 1.0, 1.0]
        return
    # kappa = lam = theta = 1: drift 1 - x and sigma the kind's bare shape
    assert list(model.drift(0.5, xs)) == list(1.0 - xs)
    assert list(model.base_sigma(0.5, xs)) == list(KINDS[kind].shape(xs))
    if section == "model":
        p = cfg.prototype
        assert (p.kappa, p.lam, p.theta, p.x0, p.gamma, p.horizon) == (
            ConstantParam(1.0), ConstantParam(1.0), ConstantParam(1.0), x0, gamma, 1.0
        )


def test_experiment_condition_and_output_defaults_are_pinned():
    cfg = resolve_config({})
    assert (cfg.levels, cfg.ref_level, cfg.paths, cfg.seed, cfg.on_explosion) == (
        (4, 5, 6, 7, 8, 9), 13, 10000, 0, "abort"
    )
    # neither q nor s is set, so there is no q
    assert (cfg.q, cfg.cap, cfg.growth_factor, cfg.tolerance, cfg.significance) == (None, None, 1.2, 1e-3, 1e-3)
    assert (cfg.out, cfg.plot) == (None, None)
