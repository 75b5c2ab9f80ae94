"""Command-line front end: generation round trips, solving, exit codes."""

import csv
import json
import subprocess
import sys

import numpy as np
import pytest

from lrsdcut.cli import main
from lrsdcut.crf import load_instance


def run_cli(*argv):
    proc = subprocess.run([sys.executable, "-m", "lrsdcut", *argv],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


class TestGen:
    def test_random_generation_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            out.mkdir()
            code = main(["gen", "--kind", "random", "--n", "8", "--labels",
                         "2", "--seed", "7", str(out / "inst.json")])
            assert code == 0
        assert (a / "inst.json").read_bytes() == (b / "inst.json").read_bytes()
        factor = "random-n8-l2-s7.factor.lrkf"
        assert (a / factor).read_bytes() == (b / factor).read_bytes()

    def test_zero_noise_clusters_recover_planted_labels(self, tmp_path):
        from lrsdcut.oracle import brute_force_map
        out = tmp_path / "clusters.json"
        code = main(["gen", "--kind", "clusters", "--n", "10", "--labels",
                     "2", "--seed", "3", "--noise", "0.0",
                     "--nystrom-landmarks", "10", "--nystrom-rank", "10",
                     str(out)])
        assert code == 0
        problem, instance, _ = load_instance(out)
        labels, _ = brute_force_map(problem)
        np.testing.assert_array_equal(labels, instance["planted_labels"])

    def test_negative_seed_exits_two(self, tmp_path):
        out = tmp_path / "inst.json"
        assert main(["gen", "--kind", "random", "--n", "8", "--seed", "-1",
                     str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("flags", ["unset", "set"])
    @pytest.mark.parametrize("kind", ["clusters", "random", "grid"])
    def test_file_matches_generator_called_directly(self, tmp_path, kind,
                                                    flags):
        # unset flags must take the generator's family defaults (N exceeds
        # the default landmark count, so a drifted one shows), and set ones,
        # --noise 0 included, must reach it under their keywords; random
        # reads only --weight, and only grid reads the spacing (a flag that
        # the kind does not read exits 2, see below)
        from lrsdcut import generate
        given = {"noise": 0.0, "weight": 0.7, "theta_pos": 2.5,
                 "theta_color": 0.3, "landmarks": 9, "rank": 6,
                 "spacing_x": 0.5, "spacing_y": 2.0}
        argv = ["gen", "--kind", kind, "--labels", "3", "--seed", "4"]
        argv += (["--grid-w", "8", "--grid-h", "7"] if kind == "grid"
                 else ["--n", "50"])
        read = {"clusters": list(given)[:6], "random": ["weight"],
                "grid": list(given)}[kind]
        if flags == "set":
            flag = {"landmarks": "nystrom_landmarks", "rank": "nystrom_rank"}
            for key in read:
                argv += ["--" + flag.get(key, key).replace("_", "-"),
                         "0" if key == "noise" else str(given[key])]
        out = tmp_path / "inst.json"
        assert main(argv + [str(out)]) == 0
        kwargs = {key: given[key] for key in read} if flags == "set" else {}
        if kind == "clusters":
            expected = generate.gen_clusters(50, 3, 4, **kwargs)
        elif kind == "random":
            expected, _ = generate.gen_random(50, 3, 4, **kwargs)
        else:
            expected = generate.gen_grid(8, 7, 3, 4, **kwargs)
        assert out.read_text() == json.dumps(expected)

    @pytest.mark.parametrize("kind", ["clusters", "random", "grid"])
    def test_unset_sizes_give_n_100_or_a_20x20_grid(self, tmp_path, kind):
        from lrsdcut import generate
        out = tmp_path / "inst.json"
        assert main(["gen", "--kind", kind, "--seed", "2", str(out)]) == 0
        if kind == "clusters":
            expected = generate.gen_clusters(100, 2, 2)
        elif kind == "random":
            expected, _ = generate.gen_random(100, 2, 2)
        else:
            expected = generate.gen_grid(20, 20, 2, 2)
        assert out.read_text() == json.dumps(expected)

    @pytest.mark.parametrize("argv, message", [
        (["--kind", "random", "--noise", "0"],
         "--kind random does not read --noise"),
        (["--kind", "clusters", "--spacing-x", "0.5"],
         "--kind clusters does not read --spacing-x"),
        (["--kind", "grid", "--n", "5"], "--kind grid does not read --n"),
        (["--kind", "clusters", "--grid-w", "3"],
         "--kind clusters does not read --grid-w"),
        (["--kind", "random", "--grid-h", "3"],
         "--kind random does not read --grid-h"),
        (["--kind", "random", "--nystrom-rank", "6", "--theta-pos", "2"],
         "--kind random does not read --nystrom-rank, --theta-pos"),
        (["--kind", "clusters", "--labels", "1"], "n_labels must be >= 2"),
        (["--kind", "random", "--n", "0"], "n must be >= 1"),
        (["--kind", "grid", "--grid-w", "0"], "width must be >= 1"),
        (["--kind", "random", "--weight", "-1"],
         "kernel weight must be non-negative"),
        (["--kind", "clusters", "--nystrom-rank", "0"], "rank must be >= 1"),
    ], ids=["unread-noise", "unread-spacing", "unread-n", "unread-grid-w",
            "unread-grid-h", "unread-nystrom-rank", "one-label", "no-variables",
            "empty-grid", "negative-weight", "nystrom-rank-zero"])
    def test_rejected_input_exits_two_and_writes_nothing(self, tmp_path,
                                                         capsys, argv,
                                                         message):
        # flags the kind ignores, named as typed, and values that solve
        # would refuse to load
        out = tmp_path / "out" / "inst.json"
        assert main(["gen", *argv, "--seed", "1", str(out)]) == 2
        assert not (tmp_path / "out").exists()
        assert capsys.readouterr().err.startswith(f"error: {message}")

    def test_grid_is_loadable_by_all_solvers(self, tmp_path):
        out = tmp_path / "grid.json"
        assert main(["gen", "--kind", "grid", "--grid-w", "20", "--grid-h",
                     "20", "--labels", "2", "--seed", "5", str(out)]) == 0
        problem, instance, _ = load_instance(out)
        assert problem.n_vars == 400
        assert instance["n_vars"] == 400
        assert main(["solve", "--method", "meanfield", "--restarts", "1",
                     str(out)]) == 0


class TestSolve:
    @pytest.fixture
    def instance(self, tmp_path):
        path = tmp_path / "inst.json"
        assert main(["gen", "--kind", "random", "--n", "8", "--labels", "2",
                     "--seed", "11", str(path)]) == 0
        return path

    def test_all_methods_agree_on_instance_hash(self, instance, tmp_path):
        reports = {}
        for method in ("lrsdcut", "meanfield", "brute"):
            out = tmp_path / f"{method}.json"
            code = main(["solve", "--method", method, "--out", str(out),
                         str(instance)])
            assert code == 0
            reports[method] = json.loads(out.read_text())
        hashes = {r["instance_sha256"] for r in reports.values()}
        assert len(hashes) == 1
        assert all("params" in r for r in reports.values())
        # the sandwich also holds across methods on this tiny instance
        assert reports["lrsdcut"]["lower_bound"] <= \
            reports["brute"]["best_energy"] + 1e-9
        assert reports["brute"]["best_energy"] <= \
            reports["lrsdcut"]["best_energy"] + 1e-9
        assert reports["brute"]["best_energy"] <= \
            reports["meanfield"]["best_energy"] + 1e-9

    def test_brute_refuses_oversized_instance(self, tmp_path):
        path = tmp_path / "big.json"
        assert main(["gen", "--kind", "random", "--n", "25", "--labels", "2",
                     "--seed", "1", str(path)]) == 0
        assert main(["solve", "--method", "brute", str(path)]) == 3

    def test_malformed_instance_exits_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert main(["solve", "--method", "lrsdcut", str(bad)]) == 2
        assert main(["solve", "--method", "lrsdcut",
                     str(tmp_path / "missing.json")]) == 2

    @pytest.mark.parametrize("edit", [
        lambda inst: inst.update(image_blocks=[0, 5]),
        lambda inst: inst["kernels"][0].update(
            thetas=[-t for t in inst["kernels"][0]["thetas"]]),
        lambda inst: inst["kernels"][0]["nystrom"].update(rank=10000),
        lambda inst: inst["kernels"][0].update(weight=-1),
        lambda inst: inst["kernels"][0]["nystrom"].pop("rank"),
    ], ids=["image-blocks", "negative-thetas", "nystrom-rank", "weight",
            "nystrom-key"])
    def test_rejected_kernel_entry_exits_two(self, tmp_path, edit):
        path = tmp_path / "clusters.json"
        assert main(["gen", "--kind", "clusters", "--n", "30", "--seed", "1",
                     str(path)]) == 0
        inst = json.loads(path.read_text())
        edit(inst)
        path.write_text(json.dumps(inst))
        assert main(["solve", "--method", "lrsdcut", str(path)]) == 2

    @pytest.mark.parametrize("flag, value", [
        pytest.param(flag, value, id=flag)
        for flag, value in [("--gamma", "0"), ("--kmax", "0"),
                            ("--rank-init", "0"), ("--samples", "0"),
                            ("--seed", "-1")]])
    def test_nonpositive_solver_flag_exits_two(self, instance, flag, value):
        assert main(["solve", "--method", "lrsdcut", flag, value,
                     str(instance)]) == 2

    @pytest.mark.parametrize("method", ["meanfield", "brute"])
    def test_negative_seed_exits_two_for_every_method(self, instance, method):
        assert main(["solve", "--method", method, "--seed", "-1",
                     str(instance)]) == 2

    def test_report_json_keeps_each_methods_shape(self, instance, tmp_path):
        # mean field and brute force write SolveReport.to_dict(), in the
        # key order and with the values their hand-built dicts had
        from lrsdcut.meanfield import mf_solve
        from lrsdcut.oracle import brute_force_map
        problem, _, _ = load_instance(instance)
        mf = mf_solve(problem, restarts=5, seed=0)
        labels, value = brute_force_map(problem)
        expected = {
            "meanfield": {
                "method": "meanfield", "best_energy": mf.energy,
                "lower_bound": None, "labels": mf.labels.tolist(),
                "trajectory": [
                    {"iter": i, "dual": None, "rounded_energy": None,
                     "free_energy": float(f), "rank": None,
                     "truncated": False, "ms": None}
                    for i, f in enumerate(mf.free_energies)],
                "warnings": [], "restart_energies": mf.restart_energies},
            "brute": {
                "method": "brute", "best_energy": value, "lower_bound": value,
                "labels": labels.tolist(), "trajectory": [], "warnings": []},
        }
        for method, fields in expected.items():
            out = tmp_path / f"{method}.json"
            assert main(["solve", "--method", method, "--out", str(out),
                         str(instance)]) == 0
            report = json.loads(out.read_text())
            assert list(report) == list(fields) + [
                "wall_time_s", "instance", "instance_sha256", "params"]
            assert {key: report[key] for key in fields} == fields

    def test_zero_meanfield_restarts_exits_two(self, instance):
        assert main(["solve", "--method", "meanfield", "--restarts", "0",
                     str(instance)]) == 2

    def test_subprocess_entry_point(self, instance):
        code, stdout, _ = run_cli("solve", "--method", "lrsdcut",
                                  str(instance))
        assert code == 0
        assert "energy=" in stdout and "lower_bound=" in stdout


class TestBench:
    def test_single_instance_single_row(self, tmp_path):
        inst = tmp_path / "one.json"
        assert main(["gen", "--kind", "random", "--n", "30", "--labels", "2",
                     "--seed", "2", str(inst)]) == 0
        out = tmp_path / "bench.csv"
        assert main(["bench", "--kmax", "3", "--out", str(out),
                     str(inst)]) == 0
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 1
        assert rows[0]["ratio"] == ""

    def test_two_sizes_get_ratio_column(self, tmp_path):
        small = tmp_path / "small.json"
        large = tmp_path / "large.json"
        assert main(["gen", "--kind", "grid", "--grid-w", "10", "--grid-h",
                     "10", "--labels", "2", "--seed", "3", str(small)]) == 0
        assert main(["gen", "--kind", "grid", "--grid-w", "20", "--grid-h",
                     "10", "--labels", "2", "--seed", "3", str(large)]) == 0
        out = tmp_path / "bench.csv"
        assert main(["bench", "--kmax", "3", "--out", str(out), str(small),
                     str(large)]) == 0
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 2
        assert float(rows[1]["ratio"]) > 0


    def test_nonpositive_kmax_exits_two(self, tmp_path):
        inst = tmp_path / "one.json"
        assert main(["gen", "--kind", "random", "--n", "8", "--labels", "2",
                     "--seed", "2", str(inst)]) == 0
        assert main(["bench", "--kmax", "0", str(inst)]) == 2

    def test_unset_flags_take_solve_params_defaults(self, tmp_path,
                                                    monkeypatch, capsys):
        from lrsdcut import sdp
        seen = []
        solve = sdp.lr_sdcut_solve

        def recording(problem, params=None, **overrides):
            seen.append(params)
            return solve(problem, params, **overrides)

        monkeypatch.setattr(sdp, "lr_sdcut_solve", recording)
        inst = tmp_path / "one.json"
        assert main(["gen", "--kind", "random", "--n", "8", "--labels", "2",
                     "--seed", "2", str(inst)]) == 0
        assert main(["bench", str(inst)]) == 0
        assert main(["bench", "--kmax", "3", "--seed", "4", str(inst)]) == 0
        assert seen == [sdp.SolveParams(), sdp.SolveParams(k_max=3, seed=4)]


class TestCompare:
    def test_table_and_csv(self, tmp_path, capsys):
        paths = []
        for seed in range(3):
            path = tmp_path / f"inst{seed}.json"
            assert main(["gen", "--kind", "clusters", "--n", "40", "--labels",
                         "2", "--seed", str(seed), "--nystrom-landmarks",
                         "20", "--nystrom-rank", "15", str(path)]) == 0
            paths.append(str(path))
        out = tmp_path / "compare.csv"
        assert main(["compare", "--restarts", "2", "--out", str(out),
                     *paths]) == 0
        stdout = capsys.readouterr().out
        assert "median lrsdcut=" in stdout
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 3
        assert all(float(r["lrsdcut_energy"]) <= float(r["meanfield_energy"])
                   + 1e-6 for r in rows)


class TestThreadCap:
    def test_env_var_sets_blas_limits(self, instance_env=None):
        code, stdout, _ = subprocess_run_with_env()
        assert code == 0
        assert stdout.strip() == "1"


def subprocess_run_with_env():
    import os
    env = dict(os.environ, LRSDCUT_THREADS="1")
    env.pop("OMP_NUM_THREADS", None)
    probe = ("from lrsdcut.cli import _apply_thread_cap; _apply_thread_cap();"
             "import os; print(os.environ['OMP_NUM_THREADS'])")
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr
