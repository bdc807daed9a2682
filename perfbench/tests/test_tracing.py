"""Traced runs: deterministic counts, the predicted layers, absent functions."""

import json

import pytest

from perfbench import tracing
from perfbench.worker import Runner
from qeei import qdet, qmatrix
from qeei.quat import Quaternion

# each listed function and the workload on which it is predicted to matter
PREDICTED = {
    "eigen.symmetric_eig": "spectrum-mixed",
    "eigen.right_eigenvalues": "spectrum-mixed",
    "eigen.eigenvector_from_qadj": "eigvec-n7",
    "eigen.eei_report": "verify-n4",
    "eigen.verify_outer_product": "verify-n4",
    "qdet.row_expansion": "eigvec-n7",
    "qdet.qadj": "eigvec-n7",
    "qdet.det": "verify-n4",
    "qmatrix.real_lift": "verify-n4",
    "qmatrix.matmul": "verify-n4",
    "qmatrix.natural_submatrix": "eigvec-n7",
    "qmatrix.validate_hermitian": "verify-n4",
    "qmatrix.from_components": "verify-n4",
    "qmatrix.minor": "verify-n4",
    "cli.load_matrix_file": "verify-n4",
    "cli.emit": "verify-n4",
    "cli.main": "verify-n4",
}
COUNT_SUFFIXES = ("calls_per_op", "distinct_ratio", "perm_terms_per_op")


def traced_cycle(workload, seed, tmp_path):
    runner = Runner(workload, seed, tmp_path)
    runner.setup()
    tracer = tracing.Tracer()
    with tracer.installed():
        runner.traced_loop(0.0, tracer)
    assert runner.failed == 0, runner.problems
    return tracer


@pytest.fixture(scope="module")
def traces(tmp_path_factory):
    return {w: traced_cycle(w, 5, tmp_path_factory.mktemp(w))
            for w in ("spectrum-mixed", "eigvec-n7", "verify-n4")}


def counts(tracer):
    return {k: v for k, v in tracer.metrics().items() if k.endswith(COUNT_SUFFIXES)}


def test_listed_functions_match_predictions():
    assert set(PREDICTED) == {f"{m}.{f}" for m, f, _ in tracing.LAYERS}


@pytest.mark.parametrize("workload", ["spectrum-mixed", "verify-n4"])
def test_two_traced_runs_give_identical_counts(workload, traces, tmp_path):
    assert counts(traced_cycle(workload, 5, tmp_path)) == counts(traces[workload])


def test_counts_do_not_depend_on_seed(traces, tmp_path):
    assert counts(traced_cycle("eigvec-n7", 6, tmp_path)) == counts(traces["eigvec-n7"])


@pytest.mark.parametrize("name", sorted(PREDICTED))
def test_each_function_is_called_where_predicted(name, traces):
    assert traces[PREDICTED[name]].layer_times()[name][0] >= 1


def test_quaternion_products_are_counted(traces):
    assert traces["eigvec-n7"].metrics()["quat.mul.calls_per_op"] > 0
    assert traces["eigvec-n7"].metrics()["qdet.perm_terms_per_op"] == 49 * 720


def test_workloads_separate_the_layers(traces):
    spectrum = traces["spectrum-mixed"].metrics()
    assert all(spectrum[f"qdet.{fn}.calls_per_op"] == 0
               for fn in ("row_expansion", "qadj", "det"))
    spectrum_times = traces["spectrum-mixed"].layer_times()
    assert spectrum_times["eigen.symmetric_eig"][2] > 0.5 * spectrum_times["op"][1]

    eigvec_times = traces["eigvec-n7"].layer_times()
    assert eigvec_times["qdet.row_expansion"][2] > 0.5 * eigvec_times["op"][1]

    verify = traces["verify-n4"].metrics()
    assert verify["eigen.symmetric_eig.distinct_ratio"] < 0.5
    assert verify["qdet.qadj.distinct_ratio"] < 0.5


def test_self_time_excludes_children(traces):
    times = traces["verify-n4"].layer_times()
    _, total, self_s = times["cli.main"]
    assert 0 < self_s < total
    assert times["op"][2] >= 0


def test_uninstall_restores_originals():
    original_det, original_mul = qdet.det, Quaternion.__mul__
    original_sub = qmatrix.natural_submatrix
    tracer = tracing.Tracer()
    with tracer.installed():
        assert qdet.det is not original_det
        # qdet binds natural_submatrix in its own namespace; both are wrapped
        assert qdet.natural_submatrix is qmatrix.natural_submatrix
        assert qdet.natural_submatrix.__wrapped__ is original_sub
    assert qdet.det is original_det and Quaternion.__mul__ is original_mul
    assert qdet.natural_submatrix is original_sub


def test_absent_function_is_reported_not_fatal(monkeypatch, tmp_path):
    monkeypatch.delattr(qdet, "det")
    runner = Runner("spectrum-mixed", 1, tmp_path)
    runner.setup()
    tracer = tracing.Tracer()
    with tracer.installed():
        runner.traced_loop(0.0, tracer)
    assert "qdet.det" in tracer.absent
    assert tracer.metrics()["qdet.det.calls_per_op"] == 0


def test_spans_dump(traces, tmp_path):
    path = tmp_path / "spans.json"
    traces["verify-n4"].dump(path, workload="verify-n4")
    doc = json.loads(path.read_text())
    assert doc["fields"] == ["name", "start_s", "end_s", "parent", "op"]
    assert len(doc["spans"]) == len(traces["verify-n4"].spans)
