"""Tests of the benchmark itself, on a small instance set.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from lrsdcut import crf, generate  # noqa: E402

# The metric names of the benchmark's specification, with their units.
NAMED = {
    "solve_s": "s", "setup_s": "s", "meanfield_s": "s", "energy": "energy",
    "lower_bound": "energy", "gap_rel": "ratio", "excess_vs_meanfield": "energy",
    "peak_rss_mb": "MB", "failed_frac": "ratio",
    "kernels.landmarks_s": "s", "kernels.nystrom_s": "s",
    "kernels.matvec_calls": "count", "kernels.matvec_s": "s",
    "crf.lifted_energy_calls": "count", "crf.lifted_energy_s": "s",
    "eig.psd_calls": "count", "eig.psd_ms_p50": "ms", "eig.psd_ms_p90": "ms",
    "eig.lanczos_calls": "count", "eig.requested_k_sum": "count",
    "eig.cap_hits": "count", "eig.arpack_self_s": "s",
    "eig.rank_found_mean": "count", "eig.truncated_calls": "count",
    "eig.stalls": "count", "sdp.c_matvec_calls": "count", "sdp.c_matvec_s": "s",
    "sdp.c_matvec_self_s": "s", "sdp.shift_s": "s", "sdp.gradient_s": "s",
    "sdp.dual_evals": "count", "sdp.iterations": "count",
    "sdp.accepted_ratio": "ratio", "sdp.round_calls": "count", "sdp.round_s": "s",
    "sdp.ascent_self_s": "s", "meanfield.update_calls": "count",
    "meanfield.update_s": "s", "meanfield.free_energy_s": "s", "generate.s": "s",
    "trace.overhead_s": "s",
}
REPEATED_COUNTS = ["eig.lanczos_calls", "sdp.c_matvec_calls", "sdp.dual_evals",
                   "kernels.matvec_calls"]


def _small(scene):
    general = generate.gen_clusters(60, 3, seed=scene)
    general["compatibility"] = workloads.general_mu(scene, 3).tolist()
    return [("clusters80-L2", generate.gen_clusters(80, 2, seed=scene)),
            ("clusters60-L3-mu", general)]


@pytest.fixture
def small_run(monkeypatch, tmp_path):
    monkeypatch.setitem(workloads.SCENES, "small", _small)

    def run(trace, seed=3):
        return harness.run("small", seed, 0.2, trace, 5, tmp_path, ROOT)
    return run


def test_every_named_metric_has_its_unit():
    reported = {**harness.END_TO_END, **harness.PER_LAYER}
    for name, unit in NAMED.items():
        assert reported.get(name) == unit, name
    assert set(harness.END_TO_END_UNGATED) <= set(harness.PER_LAYER)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.SCENES)
    assert run.WORKLOADS == tuple(workloads.SCENES)


def test_untraced_run_reports_end_to_end_metrics(small_run):
    record = small_run(trace=0)
    assert not record["failures"]
    assert {n: m["unit"] for n, m in record["metrics"].items()} == harness.END_TO_END
    assert all(m["value"] > 0 for m in record["metrics"].values())


def test_traced_run_restores_originals_and_repeats_counts(small_run):
    before = tracing.originals()
    first = small_run(trace=1)
    assert all(a is b for a, b in zip(tracing.originals(), before))
    second = small_run(trace=1)
    assert not first["failures"] and not second["failures"]
    assert {n: m["unit"] for n, m in first["metrics"].items()} == harness.PER_LAYER
    for name in REPEATED_COUNTS:
        assert first["metrics"][name]["value"] > 0
        assert first["metrics"][name] == second["metrics"][name], name


def test_traced_wrappers_are_removed_after_a_raise():
    before = tracing.originals()
    with pytest.raises(RuntimeError):
        with tracing.traced(tracing.Tracer()):
            assert tracing.originals()[0] is not before[0]
            raise RuntimeError("stop")
    assert all(a is b for a, b in zip(tracing.originals(), before))


def test_permutation_preserves_energies():
    problem = crf.build_problem(generate.gen_clusters(30, 3, seed=2))
    perm = np.random.default_rng(0).permutation(30)
    moved = workloads.permuted(problem, perm)
    labels = np.arange(30) % 3
    assert crf.energy(moved, labels) == pytest.approx(
        crf.energy(problem, labels[np.argsort(perm)]),
        rel=1e-12)


def test_fails_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "multilabel",
         "--seconds", "1"], cwd=tmp_path, capture_output=True, text=True,
        timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
