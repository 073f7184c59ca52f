"""Self-test of the benchmark's own code.

    python3 -m pytest perfbench -q
"""

import copy
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import outputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import Op, boundary_ops, converge_steps, ini_text  # noqa: E402


def make_span(id, name, start, end, parent=None, leaf_s=0.0):
    s = spans.Span(id, name, start, parent)
    s.end = end
    s.leaf_s = leaf_s
    return s


def test_self_time_subtracts_direct_children_and_leaves():
    synthetic = [
        make_span(0, "montecarlo.est", 0.0, 10.0),
        make_span(1, "brownian.sample", 1.0, 4.0, parent=0, leaf_s=0.5),
        make_span(2, "schemes.euler", 5.0, 9.0, parent=0, leaf_s=1.0),
        make_span(3, "criteria.x", 6.0, 7.5, parent=2),
        make_span(4, "cli.main", 11.0, 12.0),
    ]
    assert spans.self_times(synthetic) == pytest.approx([3.0, 2.5, 1.5, 1.5, 1.0])
    assert spans.within(synthetic, {"montecarlo.est"}) == [True, True, True, True, False]
    assert spans.within(synthetic, {"schemes.euler"}) == [False, False, True, True, False]


def test_coarsen_bytes_from_shape():
    # 16 values: read 16 write 8, then read 8 write 4; float64
    assert spans.coarsen_bytes((2, 8), 2) == 8 * (16 + 8) + 8 * (8 + 4)
    assert spans.coarsen_bytes((3, 4), 0) == 0


def test_path_steps_of_a_small_config():
    assert converge_steps(3, (2, 3), 7) == 3 * (128 + 4 + 8)


@pytest.fixture
def session(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    cli = run.load_cli()
    s = run.Session(cli, "boundary", 5)
    yield s
    s.close()


def test_traced_counts_match_the_computed_ones(session):
    levels, ref, paths = (2, 3), 7, 3
    op = Op("tiny", "converge", {"model": {"kind": "cir"}, "experiment": {
        "levels": "2:3", "ref_level": str(ref), "paths": str(paths)}},
        converge_steps(paths, levels, ref), lambda out: [])
    _, plain, error = session.run(op, 1)
    assert error is None
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        _, traced, error = session.run(op, 1)
    assert error is None and traced == plain
    assert not tracer.missing
    euler = [s for s in tracer.spans if s.name == "schemes.euler"]
    assert sum(s.attrs["path_steps"] for s in euler) == op.path_steps
    assert [s.attrs["ref"] for s in euler] == [True, False, False]
    coarsen = [s.attrs["bytes"] for s in tracer.spans if s.name == "brownian.coarsen"]
    assert coarsen == [spans.coarsen_bytes((paths, 1 << ref), ref - l) for l in levels]
    metrics = spans.layer_metrics(tracer, tracer)
    assert metrics["schemes.path_steps"][0] == op.path_steps
    assert metrics["models.coef_calls"][0] == 2 * sum(s.attrs["steps"] for s in euler)
    # instrumentation is gone again
    import powersde.montecarlo

    assert powersde.montecarlo.euler_batch.__module__ == "powersde.schemes"


def test_perturbed_output_is_a_failed_operation(session):
    op = next(o for o in boundary_ops() if o.name == "predict-nu2")
    _, result, error = session.run(op, 1)
    assert error is None
    assert op.check(result) == []

    pinned = copy.deepcopy(result)
    pinned["stdout"][0].pop("provenance")  # a field added after pinning is ignored
    session.pins = {op.name: {"*": pinned}}
    session.verify(op, result, None)
    assert session.failures == []

    pinned["stdout"][0]["lambda_sup"] = "0.50000000000000011"
    session.verify(op, result, None)
    assert session.failures and "lambda_sup" in session.failures[-1][1][0]

    session.pins, session.failures = {}, []
    changed = copy.deepcopy(result)
    changed["stdout"][0]["mu0"] = "1.0000000000000002"
    session.verify(op, changed, None)
    assert session.failures[-1][1] == ["output differs from this run's first pass"]


def test_semantic_check_flags_a_wrong_conclusion():
    feller = next(o for o in boundary_ops() if o.name == "feller-nu0.25")
    out = outputs.parse("conclusion=no-exit left=divergent right=divergent\n", None)
    assert feller.check(out) and not feller.check(outputs.parse("conclusion=exit-possible\n", None))


def test_parse_by_field_name():
    out = outputs.parse(
        "lambda_hat=0.5 stderr=0.01\n",
        "level,N,dt\n4,16,0.0625\n5,32,0.03125\n# lambda_hat=0.5 stderr=0.01\n",
    )
    assert out["stdout"] == [{"lambda_hat": "0.5", "stderr": "0.01"}]
    assert out["csv"][1] == {"level": "5", "N": "32", "dt": "0.03125"}
    assert out["footer"] == [{"lambda_hat": "0.5", "stderr": "0.01"}]
    assert outputs.mismatches({"csv": [{"N": "16"}]}, out) == ["csv: 2 records, pinned 1"]


def test_seed_reaches_the_program_only_through_the_config():
    text = ini_text({"model": {"kind": "cir"}}, 17)
    assert text == "[model]\nkind = cir\n[experiment]\nseed = 17\n"


def test_a_vanished_target_is_reported_missing(session, monkeypatch):
    monkeypatch.setattr(spans, "_SPANS", spans._SPANS + [("powersde.montecarlo", "gone", "montecarlo.gone")])
    op = next(o for o in boundary_ops() if o.name == "ito-nu2")
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        _, result, error = session.run(op, 1)
    assert error is None and result["stdout"]
    assert tracer.missing == ["powersde.montecarlo.gone"]
    assert spans.layer_metrics(tracer, tracer)["trace.missing_targets"] == (1, "count")
