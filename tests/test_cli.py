"""End-to-end checks of the command line surface.

Everything runs in process through cli.main so exit codes and output
files can be asserted without spawning subprocesses.  Workloads are
kept tiny; statistical quality is covered elsewhere.
"""

import numpy as np
import pytest

from powersde import cli
from powersde.config import BUILTIN_COEFFICIENTS
from powersde.models import CoefficientFn, CoefficientMeta


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
        cfg = write_ini(tmp_path, SMALL)
        a, b = tmp_path / "w1.csv", tmp_path / "w2.csv"
        assert run(["converge", "--config", cfg, "--out", str(a), "--workers", "1"]) == 0
        assert run(["converge", "--config", cfg, "--out", str(b), "--workers", "2"]) == 0
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
        nan = CoefficientFn(lambda t, x: np.full(np.shape(x), np.nan), CoefficientMeta(), "nan")
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
