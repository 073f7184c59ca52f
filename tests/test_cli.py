"""End-to-end checks of the command line surface.

Everything runs in process through cli.main so exit codes and output
files can be asserted without spawning subprocesses.  Workloads are
kept tiny; statistical quality is covered elsewhere.
"""

import ast
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from powersde import cli
from powersde.config import BUILTIN_COEFFICIENTS
from powersde.models import CoefficientFn


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

    def test_misordered_pair_exits_4(self, tmp_path, capsys):
        cfg = write_ini(
            tmp_path,
            "[model]\nlam = 1.5\n[model_hi]\nlam = 0.5\n[experiment]\nlevels = 4\nref_level = 8\npaths = 32\n",
        )
        assert run(["compare", "--config", cfg]) == 4
        assert capsys.readouterr().err.strip() != ""


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
        assert "exceeds the memory guard 26" in capsys.readouterr().err

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
            "-1,1.4072459884650617,0.086451659153829213,6,0,false\n"
            "-1,1.4105395448746969,0.086536707685149455,7,0,false\n"
            "-1,1.4130710305852143,0.087325682616225878,8,0,false\n",
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
        "verdict=pass z_mean=-1.3510832883159021 z_var=-0.8143619247357472 "
        "threshold=3.2905267314919255 horizon_image=1.1249999999999991\n",
        {
            "out.csv": "verdict,z_mean,z_var,threshold,horizon_image,"
            "mean_original,mean_changed,var_original,var_changed\n"
            "pass,-1.3510832883159021,-0.8143619247357472,3.2905267314919255,1.1249999999999991,"
            "0.97203104346961477,1.0186839715284832,0.33955339421675068,0.3758398239707208\n",
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
