"""Measurement loop, correctness checks and metrics of the benchmark.

A run builds a workload's instances (timed as set-up), checks two tiny
instances against brute force, then measures closed-loop rounds in one
process: each round solves every instance once with ``lr_sdcut_solve``,
timing a fixed calibration computation after each solve, and then runs
``mf_solve`` passes.  Every result is checked.  A traced run
first measures untraced rounds for half its time, then traced rounds whose
spans give the per-layer metrics.
"""

import contextlib
import json
import os
import resource
import statistics
import time
import traceback
from pathlib import Path

import numpy as np
import scipy
from scipy.sparse.linalg import LinearOperator, eigsh

import lrsdcut
from lrsdcut import crf, oracle
from lrsdcut.meanfield import mf_solve
from lrsdcut.sdp import lr_sdcut_solve

import tracing
import workloads

SOLVER_SEED = 1
MF_RESTARTS = 5
# set-up is repeated at least SETUP_REPEATS times and for SETUP_SECONDS
SETUP_REPEATS = 5
SETUP_SECONDS = 2.0
TRACED_SETUP_REPEATS = 3
# each round runs mean-field passes until they took this share of its solve
# pass; each untraced solve is followed by calibration calls for CAL_SHARE of it
MF_SHARE = 0.1
CAL_SHARE = 0.2
REL_TOL = 1e-9

# Metrics the untraced run reports (BENCHMARK.json "end_to_end") ...
END_TO_END = {
    "solve_rel": "ratio",
    "setup_s": "s",
    "gap": "energy",
    "peak_rss_mb": "MB",
}
# ... the other end-to-end figures, printed but not gated: host contention
# moves raw times (solve_s) by up to 1.5x between runs, mean field's random
# restarts depend on the seed (meanfield_s), and the others can be zero or
# negative, or (gap_rel) move the wrong way when the energy improves.
END_TO_END_UNGATED = {
    "solve_s": "s",
    "meanfield_s": "s",
    "energy": "energy",
    "lower_bound": "energy",
    "gap_rel": "ratio",
    "excess_vs_meanfield": "energy",
    "failed_frac": "ratio",
}
# Metrics the traced run reports (BENCHMARK.json "per_layer").
PER_LAYER = {
    "generate.s": "s",
    "kernels.landmarks_s": "s",
    "kernels.nystrom_s": "s",
    "kernels.matvec_calls": "count",
    "kernels.matvec_s": "s",
    "crf.lifted_energy_calls": "count",
    "crf.lifted_energy_s": "s",
    "eig.psd_calls": "count",
    "eig.psd_ms_p50": "ms",
    "eig.psd_ms_p90": "ms",
    "eig.lanczos_calls": "count",
    "eig.requested_k_sum": "count",
    "eig.cap_hits": "count",
    "eig.arpack_self_s": "s",
    "eig.rank_found_mean": "count",
    "eig.truncated_calls": "count",
    "eig.stalls": "count",
    "sdp.c_matvec_calls": "count",
    "sdp.c_matvec_s": "s",
    "sdp.c_matvec_self_s": "s",
    "sdp.shift_s": "s",
    "sdp.gradient_s": "s",
    "sdp.dual_evals": "count",
    "sdp.iterations": "count",
    "sdp.accepted_ratio": "ratio",
    "sdp.round_calls": "count",
    "sdp.round_s": "s",
    "sdp.ascent_self_s": "s",
    "meanfield.update_calls": "count",
    "meanfield.update_s": "s",
    "meanfield.free_energy_s": "s",
    "trace.solve_s": "s",
    "trace.overhead_s": "s",
    **END_TO_END_UNGATED,
}
# Per-layer counts that must repeat exactly between traced rounds.
COUNTS = [name for name, unit in PER_LAYER.items()
          if unit == "count" and name != "eig.rank_found_mean"]


class Calibration:
    """A fixed computation that does not use lrsdcut: ARPACK through a
    Python matvec callback on low-rank-plus-diagonal operators of sizes
    2,000 and 10,000, a miniature of the solver's eigen layer.

    On a virtual machine sharing its host, the host's load can change the
    speed by up to 1.5x for minutes at a time.  A solve pass divided by the
    calibration time of the same round (``solve_rel``) cancels most of that;
    a change to lrsdcut moves only the numerator.
    """

    SIZES = (2000, 10000)

    def __init__(self):
        rng = np.random.default_rng(0)
        self.operators = []
        for n in self.SIZES:
            phi = rng.standard_normal((n, 20))
            diag = rng.standard_normal(n)
            op = LinearOperator((n, n), dtype=np.float64,
                                matvec=lambda d, phi=phi, diag=diag:
                                phi @ (phi.T @ d) - diag * d)
            self.operators.append((op, np.ones(n)))

    def once(self):
        start = time.perf_counter()
        for op, v0 in self.operators:
            eigsh(op, k=10, which="LA", v0=v0, ncv=30, tol=1e-10)
        return time.perf_counter() - start

    def calls(self, seconds):
        """Seconds of each call, calling until they add up to ``seconds``."""
        times = [self.once()]
        while sum(times) < seconds:
            times.append(self.once())
        return times


class Checks:
    """Counts attempted solves and checks and keeps every failure."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def call(self, fn, what):
        """Run one solve; a raise counts as a failed attempt and yields None."""
        self.attempted += 1
        try:
            return fn()
        except Exception:
            self.failures.append(f"{what} raised: {traceback.format_exc()}")
            return None

    @property
    def failed(self):
        return len(self.failures)


def _near(a, b):
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def check_solve(checks, name, problem, report, reference):
    """Energy, bound and warning checks of one lrsdcut report, and that it
    repeats the first report of the same instance bit for bit."""
    if report is None:
        return
    value = crf.energy(problem, report.labels)
    checks.check(_near(report.best_energy, value),
                 f"{name}: best_energy {report.best_energy!r} != energy of "
                 f"its labels {value!r}")
    bound = report.lower_bound
    checks.check(bound is not None and bound <= report.best_energy
                 + REL_TOL * max(1.0, abs(report.best_energy)),
                 f"{name}: lower bound {bound!r} invalid against "
                 f"best_energy {report.best_energy!r}")
    bad = [w for w in report.warnings if "stall" in w or "truncated" in w]
    checks.check(not bad, f"{name}: warnings {bad}")
    key = (report.best_energy, report.lower_bound)
    checks.check(reference.setdefault(name, key) == key,
                 f"{name}: result {key} differs from the first {reference[name]}")


def check_meanfield(checks, name, problem, result, reference):
    if result is None:
        return
    value = crf.energy(problem, result.labels)
    checks.check(_near(result.energy, value),
                 f"{name}: mean-field energy {result.energy!r} != energy of its "
                 f"labels {value!r}")
    checks.check(reference.setdefault(name, result.energy) == result.energy,
                 f"{name}: mean-field energy {result.energy!r} differs from the "
                 f"first {reference[name]!r}")


def check_tiny(checks, seed):
    """Sandwich ``lower_bound <= brute-force optimum <= best_energy``."""
    for name, problem in workloads.tiny_problems(seed):
        report = checks.call(lambda: lr_sdcut_solve(problem, seed=SOLVER_SEED),
                             f"{name}: lr_sdcut_solve")
        check_solve(checks, name, problem, report, {})
        _, optimum = oracle.brute_force_map(problem)
        if report is None or report.lower_bound is None:
            continue
        slack = REL_TOL * max(1.0, abs(optimum))
        checks.check(report.lower_bound <= optimum + slack
                     and optimum <= report.best_energy + slack,
                     f"{name}: sandwich {report.lower_bound!r} <= {optimum!r} "
                     f"<= {report.best_energy!r} fails")


def timed_setups(workload, scene, seed, repeats, seconds=0.0, tracer=None):
    """Build the workload at least ``repeats`` times and until the builds
    took ``seconds``; returns (times, problems)."""
    times = []
    while len(times) < repeats or sum(times) < seconds:
        with _span(tracer, "setup", f"setup{len(times)}/build"):
            start = time.perf_counter()
            problems = workloads.build(workload, scene, seed)
            times.append(time.perf_counter() - start)
    return times, problems


def _span(tracer, name, solve):
    return tracer.span(name, solve) if tracer else contextlib.nullcontext()


def solve_pass(checks, problems, tag, tracer, calibration=None):
    """Solve every instance; returns (seconds, mean calibration call, reports).

    With a calibration, calls of it follow each solve for ``CAL_SHARE`` of
    its time, so they sample the machine's speed across the pass.
    """
    reports, cal_times = [], []
    solve_s = 0.0
    for name, problem in problems:
        with _span(tracer, "sdp.solve", f"{tag}/lrsdcut/{name}"):
            start = time.perf_counter()
            reports.append(checks.call(
                lambda: lr_sdcut_solve(problem, seed=SOLVER_SEED),
                f"{name}: lr_sdcut_solve"))
            took = time.perf_counter() - start
        solve_s += took
        if calibration is not None:
            cal_times += calibration.calls(CAL_SHARE * took)
    cal_s = sum(cal_times) / len(cal_times) if cal_times else None
    return solve_s, cal_s, reports


def meanfield_pass(checks, problems, tag, tracer):
    results = []
    start = time.perf_counter()
    for name, problem in problems:
        with _span(tracer, "meanfield.solve", f"{tag}/meanfield/{name}"):
            results.append(checks.call(
                lambda: mf_solve(problem, restarts=MF_RESTARTS, seed=SOLVER_SEED),
                f"{name}: mf_solve"))
    return time.perf_counter() - start, results


def run_rounds(checks, problems, seconds, references, tracer=None, first=0):
    """Closed-loop rounds until the next one would end past ``seconds``.

    A round is one lrsdcut pass over the instances (calibrated when
    untraced), then mean-field passes: one when traced, else until they
    took ``MF_SHARE`` of the solve pass.
    """
    rounds = []
    calibration = Calibration() if tracer is None else None
    deadline = time.perf_counter() + seconds
    while True:
        started = time.perf_counter()
        tag = f"r{first + len(rounds)}"
        solve_s, cal_s, reports = solve_pass(checks, problems, tag, tracer,
                                             calibration)
        mf_times = []
        while True:
            mf_s, mf_results = meanfield_pass(checks, problems, tag, tracer)
            mf_times.append(mf_s)
            with _span(tracer, "checks", f"{tag}/checks"):
                for (name, problem), result in zip(problems, mf_results):
                    check_meanfield(checks, name, problem, result, references["mf"])
            if tracer is not None or sum(mf_times) >= MF_SHARE * solve_s:
                break
        with _span(tracer, "checks", f"{tag}/checks"):
            for (name, problem), report in zip(problems, reports):
                check_solve(checks, name, problem, report, references["sdp"])
        rounds.append({"tag": tag, "solve_s": solve_s, "cal_s": cal_s,
                       "meanfield_s": mf_times,
                       "reports": reports, "mf_results": mf_results})
        now = time.perf_counter()
        if now + (now - started) > deadline:
            return rounds


def quality(rounds):
    """Energy figures of the first round (every round repeats them)."""
    reports, mf_results = rounds[0]["reports"], rounds[0]["mf_results"]
    energy = bound = gap = excess = 0.0
    gap_rel = []
    for report, mf in zip(reports, mf_results):
        if report is None or report.lower_bound is None or mf is None:
            continue
        energy += report.best_energy
        bound += report.lower_bound
        gap += report.best_energy - report.lower_bound
        gap_rel.append((report.best_energy - report.lower_bound)
                       / max(abs(report.best_energy), 1.0))
        excess += report.best_energy - mf.energy
    return {"energy": energy, "lower_bound": bound, "gap": gap,
            "gap_rel": statistics.median(gap_rel) if gap_rel else 0.0,
            "excess_vs_meanfield": excess}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(setup_times, rounds):
    return {
        "solve_rel": statistics.median(r["solve_s"] / r["cal_s"] for r in rounds),
        "solve_s": statistics.median(r["solve_s"] for r in rounds),
        "setup_s": statistics.median(setup_times),
        "meanfield_s": statistics.median(t for r in rounds for t in r["meanfield_s"]),
        **quality(rounds),
        "peak_rss_mb": peak_rss_mb(),
    }


def _groups(spans):
    """Spans keyed by the first two parts of their solve id (``r3/lrsdcut``)."""
    out = {}
    for s in spans:
        out.setdefault("/".join(s.solve.split("/")[:2]), []).append(s)
    return out


def round_layers(solve, mf, reports):
    """Per-layer metrics of one traced round from its span summaries."""
    evals = sum(r.extras["dual_evals"] for r in reports if r is not None)
    steps = sum(len(r.trajectory) - 1 for r in reports if r is not None)
    trials = evals - sum(1 for r in reports if r is not None)
    km = "kernels.matvec"
    return {
        "kernels.matvec_calls": solve["calls"][km] + mf["calls"][km],
        "kernels.matvec_s": solve["total"][km] + mf["total"][km],
        "crf.lifted_energy_calls": solve["calls"]["crf.lifted_energy"],
        "crf.lifted_energy_s": solve["total"]["crf.lifted_energy"],
        "eig.psd_calls": solve["calls"]["eig.psd"],
        "eig.psd_ms_p50": float(np.percentile(solve["psd_ms"], 50)),
        "eig.psd_ms_p90": float(np.percentile(solve["psd_ms"], 90)),
        "eig.lanczos_calls": solve["calls"]["eig.lanczos"],
        "eig.requested_k_sum": solve["requested_k"],
        "eig.cap_hits": solve["cap_hits"],
        "eig.arpack_self_s": solve["self"]["eig.lanczos"],
        "eig.rank_found_mean": float(np.mean(solve["ranks"])) if solve["ranks"] else 0.0,
        "eig.truncated_calls": solve["truncated"],
        "eig.stalls": solve["stalls"],
        "sdp.c_matvec_calls": solve["calls"]["sdp.c_matvec"],
        "sdp.c_matvec_s": solve["total"]["sdp.c_matvec"],
        "sdp.c_matvec_self_s": solve["self"]["sdp.c_matvec"],
        "sdp.shift_s": solve["total"]["sdp.shift"],
        "sdp.gradient_s": solve["total"]["sdp.gradient"],
        "sdp.dual_evals": evals,
        "sdp.iterations": steps,
        "sdp.accepted_ratio": steps / trials if trials else 1.0,
        "sdp.round_calls": solve["calls"]["sdp.round"],
        "sdp.round_s": solve["total"]["sdp.round"],
        "sdp.ascent_self_s": solve["total"]["sdp.solve"] - sum(
            solve["total"][n] for n in ("eig.psd", "sdp.gradient", "sdp.round",
                                        "sdp.shift")),
        "meanfield.update_calls": mf["calls"]["meanfield.update"],
        "meanfield.update_s": mf["total"]["meanfield.update"],
        "meanfield.free_energy_s": mf["total"]["meanfield.free_energy"],
    }


def per_layer(tracer, traced_rounds, untraced_solve_s, checks):
    """Per-layer metrics: counts of the first traced round (checked to
    repeat in every other), times as medians over traced rounds."""
    groups = _groups(tracer.spans)
    setups = [tracing.summarize(spans) for key, spans in groups.items()
              if key.startswith("setup")]
    rounds = []
    for r in traced_rounds:
        solve = tracing.summarize(groups[f"{r['tag']}/lrsdcut"])
        mf = tracing.summarize(groups[f"{r['tag']}/meanfield"])
        layers = round_layers(solve, mf, r["reports"])
        checks.check(layers["sdp.dual_evals"] == layers["eig.psd_calls"],
                     f"{r['tag']}: {layers['sdp.dual_evals']} dual evaluations "
                     f"but {layers['eig.psd_calls']} positive-part calls")
        rounds.append(layers)
    out = {}
    for name in rounds[0]:
        values = [layers[name] for layers in rounds]
        if name in COUNTS:
            checks.check(len(set(values)) == 1,
                         f"traced count {name} differs between rounds: {values}")
            out[name] = values[0]
        else:
            out[name] = statistics.median(values)
    for name, span in (("generate.s", "generate"),
                       ("kernels.landmarks_s", "kernels.landmarks"),
                       ("kernels.nystrom_s", "kernels.nystrom")):
        out[name] = statistics.median(s["total"][span] for s in setups)
    traced_solve_s = statistics.median(r["solve_s"] for r in traced_rounds)
    out["trace.solve_s"] = traced_solve_s
    out["trace.overhead_s"] = traced_solve_s - untraced_solve_s
    return out


def git_sha(root):
    """Commit of a git checkout, read from its files (None elsewhere)."""
    git = root / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def provenance(root):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    src = root / "src" / "lrsdcut"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "git_sha": git_sha(root),
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in sorted(src.glob("*.py"))),
    }


def run(workload, seed, seconds, trace, scene, out_dir, root):
    """One benchmark run; returns the result record (see ``main``)."""
    checks = Checks()
    setup_times, problems = timed_setups(workload, scene, seed, SETUP_REPEATS,
                                         SETUP_SECONDS)
    check_tiny(checks, seed)
    references = {"sdp": {}, "mf": {}}
    window = seconds / 2 if trace else seconds
    rounds = run_rounds(checks, problems, window, references)
    e2e = end_to_end(setup_times, rounds)
    record = {
        "workload": workload, "seed": seed, "scene": scene, "seconds": seconds,
        "trace": trace, "provenance": provenance(root),
        "instances": [{"name": name, "n_vars": p.n_vars, "n_labels": p.n_labels}
                      for name, p in problems],
        "solve_passes": len(rounds),
        "meanfield_passes": sum(len(r["meanfield_s"]) for r in rounds),
        "solve_pass_s": [r["solve_s"] for r in rounds],
        "calibration_s": [r["cal_s"] for r in rounds],
        "results": [
            {"name": name,
             "best_energy": None if rep is None else rep.best_energy,
             "lower_bound": None if rep is None else rep.lower_bound,
             "dual_evals": None if rep is None else rep.extras["dual_evals"],
             "meanfield_energy": None if mf is None else mf.energy}
            for (name, _), rep, mf in zip(problems, rounds[0]["reports"],
                                          rounds[0]["mf_results"])],
    }
    if trace:
        tracer = tracing.Tracer()
        with tracing.traced(tracer):
            timed_setups(workload, scene, seed, TRACED_SETUP_REPEATS,
                         tracer=tracer)
            traced_rounds = run_rounds(checks, problems, seconds - window,
                                       references, tracer, first=len(rounds))
        layers = per_layer(tracer, traced_rounds, e2e["solve_s"], checks)
        spans_path = out_dir / f"spans-{workload}.jsonl"
        tracer.dump(spans_path)
        record["spans"] = spans_path.name
        record["traced_passes"] = len(traced_rounds)
    e2e["failed_frac"] = checks.failed / checks.attempted
    if trace:
        metrics = {**layers, **{k: e2e[k] for k in END_TO_END_UNGATED}}
        units = PER_LAYER
    else:
        metrics = {k: e2e[k] for k in END_TO_END}
        units = END_TO_END
    record["end_to_end"] = e2e
    record["attempted"] = checks.attempted
    record["failures"] = checks.failures
    record["metrics"] = {name: {"value": float(metrics[name]), "unit": unit}
                         for name, unit in units.items()}
    return record


def main(args, root):
    """Run, print every metric by name and unit, save the record, and end
    with the one-line JSON result."""
    if not Path(lrsdcut.__file__).resolve().is_relative_to(root / "src"):
        raise SystemExit(f"error: lrsdcut imported from {lrsdcut.__file__}, "
                         f"not from {root / 'src'}")
    out_dir = root / "perfbench" / "out"
    out_dir.mkdir(exist_ok=True)
    record = run(args.workload, args.seed, args.seconds, args.trace, args.scene,
                 out_dir, root)
    e2e = record["end_to_end"]
    units = {**END_TO_END, **END_TO_END_UNGATED}
    print(f"# {args.workload} seed={args.seed} scene={args.scene} "
          f"solve passes={record['solve_passes']} "
          f"mean-field passes={record['meanfield_passes']}")
    for name, unit in units.items():
        print(f"{name} {e2e[name]:.6g} {unit}")
    if args.trace:
        for name, metric in record["metrics"].items():
            if name not in units:
                print(f"{name} {metric['value']:.6g} {metric['unit']}")
    for failure in record["failures"]:
        print(f"FAILED {failure}")
    path = out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": not record["failures"],
                      "attempted": record["attempted"],
                      "failed": len(record["failures"]),
                      "metrics": record["metrics"]}))
    return 0
