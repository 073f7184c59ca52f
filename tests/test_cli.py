"""End-to-end checks of the command line surface.

Everything runs in process through cli.main so exit codes and output
files can be asserted without spawning subprocesses.  Workloads are
kept tiny; statistical quality is covered elsewhere.
"""

import ast
import errno
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from powersde import cli, montecarlo
from powersde.config import BUILTIN_COEFFICIENTS
from powersde.criteria import predict_rate
from powersde.models import CoefficientFn
from powersde.montecarlo import comparison_check, estimate_inverse_moment, estimate_strong_error, timechange_check
from powersde.schemes import EulerGrid


CUSTOM = "[model]\nkind = custom\ndrift = zero\nsigma = one\n"


def run(argv):
    return cli.main(list(argv))


def write_ini(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


SMALL = """
[experiment]
levels = 3:5
ref_level = 9
paths = 64
seed = 7
"""


class TestConverge:
    def test_csv_shape_and_footer(self, tmp_path, capsys):
        cfg = write_ini(tmp_path, SMALL)
        out = tmp_path / "errors.csv"
        assert run(["converge", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "level,N,dt,l1_error,stderr,argmax_k"
        body = [l for l in lines if not l.startswith("#")]
        assert len(body) == 1 + 3
        footer = [l for l in lines if l.startswith("#")]
        assert len(footer) == 1
        assert footer[0].startswith("# lambda_hat=")
        assert "provenance=cir-boundary-rate" in footer[0]
        for row in body[1:]:
            level, n, dt, err, se, k = row.split(",")
            assert int(n) == 2 ** int(level)
            assert float(dt) == pytest.approx(1.0 / int(n))
            assert float(err) > 0
            assert float(se) > 0
            assert 0 <= int(k) <= int(n)
        echoed = capsys.readouterr().out
        assert "lambda_hat=" in echoed

    def test_same_seed_is_byte_identical(self, tmp_path):
        cfg = write_ini(tmp_path, SMALL)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(["converge", "--config", cfg, "--out", str(a)]) == 0
        assert run(["converge", "--config", cfg, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        # three 512-path blocks, so the 2-worker run is split over a pool
        cfg = write_ini(tmp_path, SMALL)
        a, b = tmp_path / "w1.csv", tmp_path / "w2.csv"
        assert run(["converge", "--config", cfg, "--paths", "1200", "--out", str(a), "--workers", "1"]) == 0
        assert run(["converge", "--config", cfg, "--paths", "1200", "--out", str(b), "--workers", "2"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_plot_table(self, tmp_path):
        plot = tmp_path / "slope.csv"
        cfg = write_ini(tmp_path, SMALL + f"\n[output]\nplot = {plot}\n")
        out = tmp_path / "errors.csv"
        assert run(["converge", "--config", cfg, "--out", str(out)]) == 0
        lines = plot.read_text().splitlines()
        assert lines[0] == "log2N,log2err"
        assert len(lines) == 1 + 3
        for row in lines[1:]:
            n, e = row.split(",")
            float(n), float(e)

    def test_gap_rule_exits_3(self, tmp_path, capsys):
        cfg = write_ini(tmp_path, "[experiment]\nlevels = 4:9\nref_level = 10\npaths = 8\n")
        assert run(["converge", "--config", cfg]) == 3
        err = capsys.readouterr().err
        assert "config error" in err
        assert "gap rule" in err

    def test_levels_override(self, tmp_path):
        cfg = write_ini(tmp_path, SMALL)
        out = tmp_path / "o.csv"
        code = run([
            "converge", "--config", cfg, "--levels", "3:4",
            "--ref-level", "8", "--out", str(out),
        ])
        assert code == 0
        body = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert [row.split(",")[0] for row in body[1:]] == ["3", "4"]

    def test_round_trip_precision(self, tmp_path):
        cfg = write_ini(tmp_path, SMALL)
        out = tmp_path / "o.csv"
        run(["converge", "--config", cfg, "--out", str(out)])
        body = [l for l in out.read_text().splitlines() if not l.startswith("#")][1:]
        values = [float(row.split(",")[3]) for row in body]
        rendered = [format(v, ".17g") for v in values]
        assert [float(r) for r in rendered] == values


class TestPredict:
    def test_default_cir_line(self, tmp_path, capsys):
        cfg = write_ini(tmp_path, "")
        assert run(["predict", "--config", cfg]) == 0
        line = capsys.readouterr().out.strip()
        assert line == "mu0=1 s=0 lambda_sup=0.5 provenance=cir-boundary-rate"

    def test_the_rule_hands_its_prediction_on(self, tmp_path, monkeypatch, capsys):
        """The rule's predict_rate call is the run's only one."""
        calls = []

        def counted(params):
            calls.append(params)
            return predict_rate(params)

        monkeypatch.setattr(cli, "predict_rate", counted)
        assert run(["predict", "--config", write_ini(tmp_path, "")]) == 0
        assert len(calls) == 1 and capsys.readouterr().out.startswith("mu0=1 ")

    def test_low_lambda_cir(self, tmp_path, capsys):
        cfg = write_ini(tmp_path, "[model]\nlam = 0.25\n")
        assert run(["predict", "--config", cfg]) == 0
        line = capsys.readouterr().out.strip()
        assert line == "mu0=0.25 s=0.25 lambda_sup=0.25 provenance=cir-boundary-rate"

    def test_wf_reports_both_ratios(self, tmp_path, capsys):
        cfg = write_ini(tmp_path, "[model]\nkind = wf\nkappa = 2.0\nlam = 0.5\nx0 = 0.5\n")
        assert run(["predict", "--config", cfg]) == 0
        line = capsys.readouterr().out.strip()
        assert line.startswith("mu0=1 mu1=1 ")
        assert "provenance=wf-boundary-rate" in line

    def test_zero_mu0_exits_4(self, tmp_path, capsys):
        cfg = write_ini(tmp_path, "[model]\nlam = 0.0\nx0 = 0.5\n")
        assert run(["predict", "--config", cfg]) == 4
        assert "mu0 <= 0" in capsys.readouterr().err

    def test_custom_model_has_no_prediction(self, tmp_path, capsys):
        cfg = write_ini(tmp_path, "[model]\nkind = custom\ndrift = zero\nsigma = one\n")
        assert run(["predict", "--config", cfg]) == 3


class TestMoments:
    def test_q_zero_is_the_horizon(self, tmp_path, capsys):
        cfg = write_ini(tmp_path, "[experiment]\nlevels = 3:4\nref_level = 8\npaths = 32\n[condition]\nq = 0\n")
        out = tmp_path / "m.csv"
        assert run(["moments", "--config", cfg, "--out", str(out)]) == 0
        line = capsys.readouterr().out.strip()
        assert "q=0" in line
        assert "divergence_flag=false" in line
        lines = out.read_text().splitlines()
        assert lines[0] == "q,estimate,stderr,ref_level,cap_hits,divergence_flag"
        rows = [l.split(",") for l in lines[1:]]
        assert [r[3] for r in rows] == ["6", "7", "8"]
        for r in rows:
            assert float(r[1]) == 1.0
            assert r[5] == "false"

    def test_negative_q_runs(self, tmp_path, capsys):
        cfg = write_ini(tmp_path, "[experiment]\nlevels = 3:4\nref_level = 8\npaths = 64\n[condition]\nq = -1\n")
        out = tmp_path / "m.csv"
        assert run(["moments", "--config", cfg, "--out", str(out)]) == 0
        line = capsys.readouterr().out.strip()
        assert "q=-1" in line
        assert "ref_level=8" in line

    def test_reference_gap_rule_is_left_to_converge(self, tmp_path, capsys):
        # moments reads ref_level but not levels, so the default 4:9 is no bar
        cfg = write_ini(tmp_path, "[experiment]\npaths = 32\n[condition]\nq = -1\n")
        out = tmp_path / "m.csv"
        assert run(["moments", "--config", cfg, "--ref-level", "8", "--out", str(out)]) == 0
        assert "ref_level=8" in capsys.readouterr().out


class TestFeller:
    def test_cir_no_exit(self, tmp_path, capsys):
        cfg = write_ini(tmp_path, "[model]\nkappa = 1.0\nlam = 1.0\ntheta = 1.0\n")
        assert run(["feller", "--config", cfg]) == 0
        line = capsys.readouterr().out.strip()
        assert line.startswith("conclusion=no-exit")
        assert "left=divergent" in line

    def test_low_volatility_ratio_exits_possible(self, tmp_path, capsys):
        cfg = write_ini(tmp_path, "[model]\nkappa = 0.25\nlam = 1.0\n")
        assert run(["feller", "--config", cfg]) == 0
        line = capsys.readouterr().out.strip()
        assert line.startswith("conclusion=exit-possible")
        assert "v_left=" in line

    def test_segment_table(self, tmp_path):
        cfg = write_ini(tmp_path, "")
        out = tmp_path / "f.csv"
        assert run(["feller", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "side,segment,v"
        assert any(l.startswith("left,") for l in lines[1:])


class TestIto:
    def test_cir_is_bounded_below(self, tmp_path, capsys):
        cfg = write_ini(tmp_path, "")
        assert run(["ito", "--config", cfg]) == 0
        line = capsys.readouterr().out.strip()
        assert line.startswith("classification=bounded-below")
        assert "s=0 lambda_sup=0.5" in line

    def test_low_lambda_diverges(self, tmp_path, capsys):
        cfg = write_ini(tmp_path, "[model]\nlam = 0.25\n")
        assert run(["ito", "--config", cfg]) == 0
        assert capsys.readouterr().out.startswith("classification=diverging")

    def test_wf_whose_approach_rounds_onto_one_reports(self, tmp_path, capsys):
        cfg = write_ini(tmp_path, "[model]\nkind = wf\nkappa = 8\nlam = 0.5\n")
        assert run(["ito", "--config", cfg]) == 0
        # g is bounded below (kappa lam and kappa (1 - lam) >= theta^2), or the trend cannot tell
        verdict = capsys.readouterr().out.split()[0]
        assert verdict in ("classification=bounded-below", "classification=inconclusive")


class TestTimechange:
    def test_constant_theta_passes(self, tmp_path, capsys):
        cfg = write_ini(
            tmp_path,
            "[experiment]\nlevels = 7\nref_level = 11\npaths = 2000\nseed = 3\n",
        )
        assert run(["timechange", "--config", cfg]) == 0
        line = capsys.readouterr().out.strip()
        assert line.startswith("verdict=pass")
        assert "horizon_image=1" in line

    def test_requires_a_prototype(self, tmp_path, capsys):
        cfg = write_ini(tmp_path, "[model]\nkind = custom\ndrift = zero\nsigma = one\n")
        assert run(["timechange", "--config", cfg]) == 3

    def test_one_path_per_sample_fails(self, capsys):
        """One path per sample gives a zero standard error; the two means
        differ, so the verdict is fail."""
        assert run(["timechange", "--paths", "1", "--workers", "1"]) == 0
        assert capsys.readouterr().out.startswith("verdict=fail z_mean=-inf z_var=0 ")


class TestCompare:
    def test_identical_models_have_no_violations(self, tmp_path, capsys):
        cfg = write_ini(tmp_path, "[experiment]\nlevels = 4,5\nref_level = 9\npaths = 64\n")
        assert run(["compare", "--config", cfg]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("level=4 violations=0 violation_fraction=0")

    def test_ordered_pair(self, tmp_path, capsys):
        cfg = write_ini(
            tmp_path,
            """
[model]
lam = 0.5
[model_hi]
lam = 1.5
[experiment]
levels = 6
ref_level = 10
paths = 256
""",
        )
        assert run(["compare", "--config", cfg]) == 0
        line = capsys.readouterr().out.strip()
        assert "violation_fraction=0" in line

    def test_one_engine_call_and_one_library_pair_check_per_run(self, tmp_path, monkeypatch, capsys):
        """Every level runs in one dispatch, and the pair hypotheses are
        checked twice: by the command's rule and by the library call."""
        calls = {"_check_pair": 0, "_run_batches": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(cli, "_check_pair", counted("_check_pair", cli._check_pair))
        monkeypatch.setattr(montecarlo, "_check_pair", counted("_check_pair", montecarlo._check_pair))
        monkeypatch.setattr(montecarlo, "_run_batches", counted("_run_batches", montecarlo._run_batches))
        cfg = write_ini(tmp_path, "[model]\nlam = 0.5\n[experiment]\nlevels = 4,5\npaths = 64\n")
        assert run(["compare", "--config", cfg, "--workers", "1"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 2
        assert calls == {"_check_pair": 2, "_run_batches": 1}

    def test_misordered_pair_exits_4(self, tmp_path, capsys):
        cfg = write_ini(
            tmp_path,
            "[model]\nlam = 1.5\n[model_hi]\nlam = 0.5\n[experiment]\nlevels = 4\nref_level = 8\npaths = 32\n",
        )
        assert run(["compare", "--config", cfg]) == 4
        assert capsys.readouterr().err.strip() != ""


# Each run rule the library owns: a library call that breaks it, a command
# line that breaks it (argv, INI text) and the name the command line gives it.
ONE_PHRASE = {
    "horizon": (lambda m, p: EulerGrid(m, 0.0, 4), ["predict"], "[model]\nhorizon = 0\n", "[model] horizon"),
    "levels-negative": (
        lambda m, p: comparison_check(m, m, 1.0, (-1,), 16, 3), ["compare"], "[experiment]\nlevels = -1\n",
        "[experiment] levels",
    ),
    "levels-guard": (
        lambda m, p: comparison_check(m, m, 1.0, (30,), 16, 3), ["compare", "--levels", "30"], "", "[experiment] levels"
    ),
    "ref_level-negative": (
        lambda m, p: EulerGrid(m, 1.0, -1), ["predict", "--ref-level", "-1"], "", "[experiment] ref_level"
    ),
    "ref_level-guard": (
        lambda m, p: estimate_inverse_moment(m, -1.0, 1.0, 27, 16, 5), ["predict", "--ref-level", "27"], "",
        "[experiment] ref_level",
    ),
    "paths": (
        lambda m, p: comparison_check(m, m, 1.0, (4,), 0, 3), ["compare", "--paths", "0"], "", "[experiment] paths"
    ),
    "on_explosion": (
        lambda m, p: comparison_check(m, m, 1.0, (4,), 16, 3, on_explosion="ignore"), ["compare"],
        "[experiment]\non_explosion = ignore\n", "[experiment] on_explosion",
    ),
    "q": (
        lambda m, p: estimate_inverse_moment(m, 0.5, 1.0, 4, 16, 5), ["moments"], "[condition]\nq = 0.5\n",
        "[condition] q",
    ),
    "cap": (
        lambda m, p: estimate_inverse_moment(m, -1.0, 1.0, 4, 16, 5, cap=-1.0), ["moments"],
        "[condition]\nq = -1\ncap = -1\n", "[condition] cap",
    ),
    "growth_factor": (
        lambda m, p: estimate_inverse_moment(m, -1.0, 1.0, 4, 16, 5, growth_factor=1.0), ["moments"],
        "[condition]\nq = -1\ngrowth_factor = 1\n", "[condition] growth_factor",
    ),
    "tolerance": (
        lambda m, p: comparison_check(m, m, 1.0, (4,), 16, 3, tolerance=-1.0), ["compare"],
        "[condition]\ntolerance = -1\n", "[condition] tolerance",
    ),
    "significance": (
        lambda m, p: timechange_check(p, 4, 16, 9, significance=1.0), ["timechange"],
        "[condition]\nsignificance = 1\n", "[condition] significance",
    ),
    "workers": (
        lambda m, p: comparison_check(m, m, 1.0, (4,), 16, 3, workers=0), ["compare", "--workers", "0"], "", "--workers"
    ),
    "moments-ref_level": (
        lambda m, p: estimate_inverse_moment(m, -1.0, 1.0, 1, 16, 5), ["moments", "--ref-level", "1"],
        "[condition]\nq = -1\n", "[experiment] ref_level",
    ),
    "gap-rule": (
        lambda m, p: estimate_strong_error(m, 1.0, range(4, 10), 10, 16, 0), ["converge"],
        "[experiment]\nlevels = 4:9\nref_level = 10\n", "[experiment] ref_level",
    ),
}


class TestPlumbing:
    def test_dry_run_prints_resolved_config(self, tmp_path, capsys):
        cfg = write_ini(tmp_path, SMALL)
        assert run(["converge", "--config", cfg, "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "[experiment]" in out
        assert "seed = 7" in out

    def test_unknown_kind_exits_3(self, tmp_path, capsys):
        cfg = write_ini(tmp_path, "[model]\nkind = heston\n")
        assert run(["converge", "--config", cfg]) == 3
        assert "heston" in capsys.readouterr().err

    def test_missing_config_file_exits_3(self, capsys):
        assert run(["converge", "--config", "/no/such/file.ini"]) == 3

    @pytest.mark.parametrize("section,key", [("experiment", "batch_size"), ("condition", "epsilon")])
    def test_removed_key_exits_3(self, tmp_path, capsys, section, key):
        cfg = write_ini(tmp_path, f"[{section}]\n{key} = 64\n")
        assert run(["converge", "--config", cfg]) == 3
        assert f"{key}: this key was removed" in capsys.readouterr().err

    def test_invalid_coefficient_exits_5(self, tmp_path, monkeypatch, capsys):
        nan = CoefficientFn(lambda t, x: np.full(np.shape(x), np.nan))
        monkeypatch.setitem(BUILTIN_COEFFICIENTS, "nan", nan)
        cfg = write_ini(tmp_path, SMALL + "\n[model]\nkind = custom\ndrift = zero\nsigma = nan\n")
        assert run(["converge", "--config", cfg, "--out", str(tmp_path / "e.csv")]) == 5
        assert "invalid coefficient: base sigma returned a non-finite value" in capsys.readouterr().err

    def test_env_worker_fallback(self, tmp_path, monkeypatch):
        cfg = write_ini(tmp_path, SMALL)
        out = tmp_path / "env.csv"
        monkeypatch.setenv("HE_WORKERS", "2")
        assert run(["converge", "--config", cfg, "--out", str(out)]) == 0

    def test_env_worker_garbage_exits_3(self, tmp_path, monkeypatch, capsys):
        cfg = write_ini(tmp_path, SMALL)
        monkeypatch.setenv("HE_WORKERS", "lots")
        assert run(["converge", "--config", cfg]) == 3
        assert "HE_WORKERS" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [c for c in cli._COMMANDS if c != "converge"])
    def test_env_worker_garbage_exits_3_on_every_command(self, tmp_path, monkeypatch, capsys, command):
        # including those that start no pool (predict, feller, ito)
        cfg = write_ini(tmp_path, SMALL + "[condition]\nq = -1\n")
        monkeypatch.setenv("HE_WORKERS", "lots")
        assert run([command, "--config", cfg]) == 3
        assert "HE_WORKERS" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,flag", [("moments", "--ref-level"), ("compare", "--levels"), ("timechange", "--levels")]
    )
    def test_level_above_the_memory_guard_exits_3(self, tmp_path, capsys, command, flag):
        cfg = write_ini(tmp_path, "[condition]\nq = -1\n")
        assert run([command, "--config", cfg, flag, "30"]) == 3
        assert "must lie in [0, 26] (the memory guard), got 30" in capsys.readouterr().err

    @pytest.mark.parametrize("ref_level", ["-1", "27"])
    @pytest.mark.parametrize(
        "argv", [["converge", "--dry-run"], ["timechange", "--dry-run"], ["timechange"]],
        ids=["converge-dry-run", "timechange-dry-run", "timechange"],
    )
    def test_a_ref_level_off_the_grid_range_exits_3(self, tmp_path, capsys, argv, ref_level):
        # a negative ref_level once passed where no gap rule applies
        cfg = write_ini(tmp_path, "[experiment]\nlevels = 4\npaths = 64\n")
        assert run(argv + ["--config", cfg, "--ref-level", ref_level]) == 3
        assert "config error: [experiment] ref_level: " in capsys.readouterr().err

    @pytest.mark.parametrize("rule", ONE_PHRASE, ids=list(ONE_PHRASE))
    def test_the_library_and_the_cli_word_a_refusal_alike(self, tmp_path, capsys, cir_model, cir_params, rule):
        library_call, argv, ini, where = ONE_PHRASE[rule]
        with pytest.raises(ValueError) as exc_info:
            library_call(cir_model, cir_params)
        # the library's message is "<argument name>[:] <phrase>"
        phrase = str(exc_info.value).split(" ", 1)[1]
        assert run(argv + ["--config", write_ini(tmp_path, ini)]) == 3
        assert capsys.readouterr().err == f"config error: {where}: {phrase}\n"

    @pytest.mark.parametrize(
        "command,key,value", [("converge", "horizon", "nan"), ("predict", "kappa", "inf"), ("feller", "theta", "nan")]
    )
    def test_non_finite_model_number_exits_3(self, tmp_path, capsys, command, key, value):
        cfg = write_ini(tmp_path, SMALL + f"[model]\n{key} = {value}\n")
        assert run([command, "--config", cfg]) == 3
        assert f"[model] {key}: '{value}' is not finite" in capsys.readouterr().err

    @pytest.mark.parametrize("ref_level", ["1", "0"])
    def test_moments_ref_level_below_two_exits_3(self, tmp_path, capsys, ref_level):
        cfg = write_ini(tmp_path, "[condition]\nq = -1\n")
        assert run(["moments", "--config", cfg, "--ref-level", ref_level]) == 3
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "ref_level" in err

    @pytest.mark.parametrize("flag,key", [("--paths", "paths"), ("--seed", "seed"), ("--ref-level", "ref_level")])
    def test_malformed_override_flag_exits_3(self, capsys, flag, key):
        # parsed by the same code as the INI key, so the same exit code
        assert run(["predict", flag, "abc"]) == 3
        assert f"[experiment] {key}: cannot parse 'abc' as an integer" in capsys.readouterr().err

    def test_malformed_workers_flag_exits_3(self, tmp_path, capsys):
        cfg = write_ini(tmp_path, SMALL)
        assert run(["converge", "--config", cfg, "--workers", "x"]) == 3
        assert "--workers: cannot parse 'x' as an integer" in capsys.readouterr().err

    def test_malformed_workers_flag_exits_3_under_dry_run(self, capsys):
        assert run(["predict", "--dry-run", "--workers", "x"]) == 3
        assert "--workers: cannot parse 'x' as an integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,ini,code",
        [
            (["converge", "--levels", "4:9", "--ref-level", "10"], "", 3),
            (["moments"], "", 3),
            (["moments", "--ref-level", "1"], "[condition]\nq = -1\n", 3),
            *[([command], CUSTOM, 3) for command in ("predict", "feller", "ito", "timechange")],
            *[([command], "[model]\nkappa = affine:1,0.5\n", 3) for command in ("feller", "ito")],
            (["predict"], "[model]\nlam = -1\n", 4),
            (["compare"], "[model]\nlam = 1.5\n[model_hi]\nlam = 0.5\n", 4),
            (["compare"], "[model]\nx0 = 2\n[model_hi]\nx0 = 1\n", 4),
            (["feller", "--out", "no-such-directory/feller.csv"], "", 3),
            (["converge", "--levels", "3:4", "--ref-level", "8", "--out", "same.csv"], "[output]\nplot = same.csv\n", 3),
        ],
        ids=[
            "converge-gap", "moments-no-q", "moments-ref-level-1", "predict-custom", "feller-custom",
            "ito-custom", "timechange-custom", "feller-affine-kappa", "ito-affine-kappa",
            "predict-negative-lam", "compare-drift-order", "compare-x0-order", "feller-out-missing-directory",
            "converge-plot-is-out",
        ],
    )
    def test_dry_run_refuses_what_the_run_refuses(self, tmp_path, monkeypatch, capsys, argv, ini, code):
        monkeypatch.chdir(tmp_path)  # a run that is not refused writes its tables here
        argv = argv + ["--config", write_ini(tmp_path, ini)]
        assert run(argv) == code
        refused = capsys.readouterr().err
        assert run(argv + ["--dry-run"]) == code
        assert capsys.readouterr() == ("", refused)

    @pytest.mark.parametrize(
        "key,name,why",
        [("out", "missing/errors.csv", "the directory of {} does not exist"), ("plot", ".", "{} is a directory")],
        ids=["out-in-a-missing-directory", "plot-a-directory"],
    )
    def test_an_output_path_that_cannot_be_written_exits_3_before_simulating(
        self, tmp_path, monkeypatch, capsys, key, name, why
    ):
        def simulate(*args, **kwargs):
            raise AssertionError("the run simulated before refusing its output path")

        path = str(tmp_path / name)
        monkeypatch.setattr(cli, "estimate_strong_error", simulate)
        assert run(["converge", "--config", write_ini(tmp_path, f"[output]\n{key} = {path}\n")]) == 3
        assert capsys.readouterr() == ("", f"config error: [output] {key}: {why.format(repr(path))}\n")

    @pytest.mark.parametrize(
        "argv,plot",
        [(["--out", "same.csv"], "same.csv"), ([], "./errors.csv")],
        ids=["out-named-twice", "the-default-out-spelled-otherwise"],
    )
    def test_a_plot_table_that_is_the_error_table_exits_3_and_writes_nothing(
        self, tmp_path, monkeypatch, capsys, argv, plot
    ):
        monkeypatch.chdir(tmp_path)
        cfg = write_ini(tmp_path, SMALL + f"\n[output]\nplot = {plot}\n")
        assert run(["converge", "--config", cfg, *argv]) == 3
        out = argv[1] if argv else "errors.csv"
        assert capsys.readouterr() == (
            "", f"config error: [output] plot: {plot!r} names the same file as the error table {out!r}\n"
        )
        assert os.listdir(tmp_path) == ["run.ini"]

    def test_a_table_the_system_refuses_exits_3_with_no_line_printed(self, tmp_path, capsys):
        # a name past the file system's limit passes config._path and fails at open
        path = str(tmp_path / ("x" * 300 + ".csv"))
        assert run(["feller", "--out", path]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"config error: [output]: cannot write {path!r} (")

    def test_a_write_that_fails_partway_leaves_no_table(self, tmp_path, monkeypatch, capsys):
        class FullDisk:
            def __init__(self, path, mode):
                self.fh = open(path, mode)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                self.fh.write(text[:10])
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        path = tmp_path / "f.csv"
        monkeypatch.setattr(cli, "open", FullDisk, raising=False)
        with pytest.raises(OSError, match="No space left"):
            run(["feller", "--out", str(path)])
        assert not path.exists() and capsys.readouterr() == ("", "")

    @pytest.mark.parametrize("flag, env, where", [("0", None, "--workers"), (None, "-3", "HE_WORKERS")])
    def test_a_worker_count_below_one_exits_3(self, tmp_path, monkeypatch, capsys, flag, env, where):
        cfg = write_ini(tmp_path, SMALL)
        if env is not None:
            monkeypatch.setenv("HE_WORKERS", env)
        argv = ["compare", "--config", cfg, "--out", str(tmp_path / "c.csv")]
        assert run(argv + (["--workers", flag] if flag is not None else [])) == 3
        assert f"{where}: must be at least 1, got {flag or env}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "ini,where",
        [
            ("[model]\nkind = custom\ndrift = zero\nsigma = one\nkappa = 2\n", "[model] kappa"),
            ("[model]\nkind = cir\ndomain = 0,1\n", "[model] domain"),
            ("[model_hi]\nhorizon = 50\n", "[model_hi] horizon"),
        ],
        ids=["custom-kappa", "cir-domain", "model_hi-horizon"],
    )
    def test_a_key_its_section_does_not_read_exits_3(self, tmp_path, capsys, ini, where):
        cfg = write_ini(tmp_path, ini)
        assert run(["predict", "--config", cfg]) == 3
        assert f"config error: {where}: unknown key" in capsys.readouterr().err

    def test_dry_run_prints_every_value_the_run_uses(self, tmp_path, capsys):
        cfg = write_ini(tmp_path, "[model]\nkind = wf\n")
        assert run(["converge", "--config", cfg, "--dry-run"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "x0 = 0.5" in lines
        condition = lines[lines.index("[condition]") + 1 : lines.index("[output]") - 1]
        assert condition == [
            "cap = auto", "growth_factor = 1.2", "q =", "s =", "significance = 0.001", "tolerance = 0.001"
        ]

    @pytest.mark.parametrize("module", ["powersde", "powersde.cli"])
    def test_module_entry_points_list_the_subcommands(self, module):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run(
            [sys.executable, "-m", module, "--help"], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
        listed = {line.split()[0] for line in done.stdout.splitlines() if line[:4] == "    " and line[4:5].strip()}
        assert listed == set(cli._COMMANDS) and len(listed) == 7

    def test_a_process_that_ran_the_cli_leaves_no_worker_behind(self, tmp_path):
        """Two converge runs in one process share one pool of two workers,
        and none of them outlives the process."""
        cfg = write_ini(tmp_path, SMALL)
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        script = (
            "import multiprocessing\n"
            "from powersde import cli\n"
            "pids = []\n"
            "for out in ('a.csv', 'b.csv'):\n"
            f"    argv = ['converge', '--config', {cfg!r}, '--paths', '1200', '--out', out, '--workers', '2']\n"
            "    assert cli.main(argv) == 0\n"
            "    pids.append(sorted(p.pid for p in multiprocessing.active_children()))\n"
            "print(pids)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        first, second = ast.literal_eval(done.stdout.splitlines()[-1])
        assert len(first) == 2 and second == first
        for pid in first:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_every_subcommand_has_help(self):
        lines = cli.build_parser().format_help().splitlines()
        for name in cli._COMMANDS:
            (line,) = [l for l in lines if l.split()[:1] == [name]]
            assert len(line.split()) > 1, f"{name} has no help text"


# Every subcommand's exit code, stdout and written files, byte for byte.
# Each case runs with "--out <dir>/out.csv"; "{dir}" in its config is that
# directory, and a file missing from its table must not have been written.
# The long feller segment table is pinned by its sha256.
WF = "[model]\nkind = wf\nkappa = 2.0\nlam = 0.5\nx0 = 0.5\n"
PINNED = {
    "converge-cir-plot": (
        "converge",
        SMALL + "[output]\nplot = {dir}/plot.csv\n",
        "lambda_hat=0.394533778771752 stderr=0.10046466350889892 r2=0.93910621118650617 "
        "predicted_lambda=0.5 provenance=cir-boundary-rate\n",
        {
            "out.csv": "level,N,dt,l1_error,stderr,argmax_k\n"
            "3,8,0.125,0.067424180735795147,0.0055351567018823806,8\n"
            "4,16,0.0625,0.057867054427403239,0.0058930070176217058,16\n"
            "5,32,0.03125,0.03901958756960186,0.0040847302096238061,32\n"
            "# lambda_hat=0.394533778771752 stderr=0.10046466350889892 r2=0.93910621118650617 "
            "predicted_lambda=0.5 provenance=cir-boundary-rate\n",
            "plot.csv": "log2N,log2err\n3,-3.8905901032446781\n4,-4.1111139804537062\n5,-4.6796576607881821\n",
        },
    ),
    "converge-custom": (
        "converge",
        SMALL + "[model]\nkind = custom\ndrift = neg_x\nsigma = x_plus\ngamma = 0.75\n",
        "lambda_hat=0.50746868715691384 stderr=0.014390235803158206 r2=0.99919653263787545 "
        "predicted_lambda=none provenance=none\n",
        {
            "out.csv": "level,N,dt,l1_error,stderr,argmax_k\n"
            "3,8,0.125,0.083762611313051752,0.0090514263868223966,3\n"
            "4,16,0.0625,0.059950107956604104,0.0058944555211257344,6\n"
            "5,32,0.03125,0.041449912174974159,0.0044476396767030449,14\n"
            "# lambda_hat=0.50746868715691384 stderr=0.014390235803158206 r2=0.99919653263787545 "
            "predicted_lambda=none provenance=none\n",
        },
    ),
    "predict-wf": (
        "predict",
        WF,
        "mu0=1 mu1=1 s=0 lambda_sup=0.5 provenance=wf-boundary-rate\n",
        {},
    ),
    "moments": (
        "moments",
        "[experiment]\nref_level = 8\npaths = 64\nseed = 5\n[condition]\nq = -1\n",
        "q=-1 divergence_flag=false ref_level=8\n",
        {
            "out.csv": "q,estimate,stderr,ref_level,cap_hits,divergence_flag\n"
            "-1,1.5739136432200977,0.12849696813536665,6,0,false\n"
            "-1,1.5362624618645204,0.11609960899414336,7,0,false\n"
            "-1,1.5195940314035696,0.11304760077925813,8,0,false\n",
        },
    ),
    "feller-cir-exit": (
        "feller",
        "[model]\nkappa = 0.25\nlam = 1.0\n",
        "conclusion=exit-possible left=finite right=divergent v_left=3.6370049880093562 v_right=none\n",
        {"out.csv": "sha256:ed9f9e99cef66a417bdf6a7a57aa560a86c7fbcb2764543f3ebac5751971c32b"},
    ),
    "ito-wf": (
        "ito",
        WF,
        "classification=bounded-below inf_estimate=-1.0000000000000002 left_trend=bounded "
        "right_trend=bounded s=0 lambda_sup=0.5\n",
        {
            "out.csv": "classification,inf_estimate,left_trend,right_trend\n"
            "bounded-below,-1.0000000000000002,bounded,bounded\n",
        },
    ),
    "timechange-sin": (
        "timechange",
        "[model]\ntheta = sin:1,0.5,6.283185307179586\n[experiment]\nlevels = 6\npaths = 600\nseed = 3\n",
        "verdict=pass z_mean=-1.9832205356122579 z_var=-2.1840797101151623 "
        "threshold=3.2905267314919255 horizon_image=1.1249999999999991\n",
        {
            "out.csv": "verdict,z_mean,z_var,threshold,horizon_image,"
            "mean_original,mean_changed,var_original,var_changed\n"
            "pass,-1.9832205356122579,-2.1840797101151623,3.2905267314919255,1.1249999999999991,"
            "0.93473942472738014,0.99918425564734659,0.26882931343749283,0.36472726695514468\n",
        },
    ),
    "compare-ordered": (
        "compare",
        "[model]\nlam = 0.5\n[model_hi]\nlam = 1.5\n[experiment]\nlevels = 4,5\npaths = 64\nseed = 11\n",
        "level=4 violations=0 violation_fraction=0 max_violation=0 tolerance=0.001\n"
        "level=5 violations=0 violation_fraction=0 max_violation=0 tolerance=0.001\n",
        {
            "out.csv": "level,paths,n_violating,violation_fraction,max_violation,tolerance\n"
            "4,64,0,0,0,0.001\n5,64,0,0,0,0.001\n",
        },
    ),
}


@pytest.mark.parametrize("case", list(PINNED))
def test_output_bytes_are_pinned(tmp_path, capsys, case):
    command, ini, stdout, files = PINNED[case]
    cfg = write_ini(tmp_path, ini.format(dir=tmp_path))
    assert run([command, "--config", cfg, "--out", str(tmp_path / "out.csv"), "--workers", "1"]) == 0
    assert capsys.readouterr().out == stdout
    written = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.name != "run.ini"}
    assert sorted(written) == sorted(files)
    for name, want in files.items():
        if want.startswith("sha256:"):
            assert hashlib.sha256(written[name]).hexdigest() == want[len("sha256:"):]
        else:
            assert written[name].decode() == want
