"""Command-line front end: instance generation, solving, benchmarking.

Subcommands: ``gen``, ``solve``, ``bench``, ``compare``.  Exit codes:
0 success (warnings allowed), 2 malformed instance or usage error,
3 solver error.  The environment variable ``LRSDCUT_THREADS`` caps
internal (BLAS) parallelism; 0 or unset leaves the libraries' defaults.

Every emitted report embeds the sha256 of the instance file and the full
parameter set, so results are replayable from the report alone.
"""

import argparse
import contextlib
import csv
import json
import os
import statistics
import sys
import time

EXIT_OK = 0
EXIT_INPUT = 2  # malformed instance or usage error
EXIT_SOLVER = 3

# solver flag -> SolveParams field; an unset flag keeps the SolveParams
# default, and reports list the values under the flag names
_PARAM_FIELDS = {"gamma": "gamma", "kmax": "k_max", "rank_init": "rank_init",
                 "tau": "tau", "seed": "seed", "samples": "n_samples"}

# the gen flags each kind reads, under the generator's keywords: an unset size
# takes _GEN_SIZES, any other unset one the generator's family default, and a
# flag the kind does not read exits 2
_GAUSSIAN_FLAGS = ("noise", "weight", "theta_pos", "theta_color", "landmarks",
                   "rank")
_GEN_FLAGS = {"clusters": ("n",) + _GAUSSIAN_FLAGS, "random": ("n", "weight"),
              "grid": ("width", "height") + _GAUSSIAN_FLAGS
              + ("spacing_x", "spacing_y")}
_GEN_SIZES = {"n": 100, "width": 20, "height": 20}

MF_RESTARTS = 5  # mean-field restarts of solve and compare


class UsageError(Exception):
    """A flag value the solver rejects."""


def _apply_thread_cap():
    # Must run before numpy/scipy load their BLAS backends.
    raw = os.environ.get("LRSDCUT_THREADS", "").strip()
    if not raw:
        return
    try:
        cap = int(raw)
    except ValueError:
        print(f"warning: ignoring non-integer LRSDCUT_THREADS={raw!r}",
              file=sys.stderr)
        return
    if cap <= 0:  # 0 = auto
        return
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(var, str(cap))


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="lrsdcut",
        description="MAP inference on fully-connected pairwise CRFs")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic instance file")
    gen.add_argument("--kind", choices=["clusters", "random", "grid"],
                     required=True)
    gen.add_argument("--n", type=int,
                     help="number of variables (clusters/random; default 100)")
    gen.add_argument("--labels", type=int, default=2)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--grid-w", type=int, dest="width",
                     help="grid width (default 20)")
    gen.add_argument("--grid-h", type=int, dest="height",
                     help="grid height (default 20)")
    gen.add_argument("--spacing-x", type=float)
    gen.add_argument("--spacing-y", type=float)
    gen.add_argument("--noise", type=float)
    gen.add_argument("--weight", type=float,
                     help="pairwise kernel weight (family default if omitted)")
    gen.add_argument("--theta-pos", type=float)
    gen.add_argument("--theta-color", type=float)
    gen.add_argument("--nystrom-landmarks", type=int, dest="landmarks")
    gen.add_argument("--nystrom-rank", type=int, dest="rank")
    gen.add_argument("out", help="output instance JSON path")
    # each flag as typed, by dest, for cmd_gen (argparse's action list is private)
    gen.set_defaults(flags={action.dest: action.option_strings[0]
                            for action in gen._actions if action.option_strings})

    solve = sub.add_parser("solve", help="solve an instance")
    solve.add_argument("--method", choices=["lrsdcut", "meanfield", "brute"],
                       required=True)
    solve.add_argument("--gamma", type=float)
    solve.add_argument("--kmax", type=int)
    solve.add_argument("--rank-init", type=int)
    solve.add_argument("--tau", type=float)
    solve.add_argument("--seed", type=int)
    solve.add_argument("--restarts", type=int, default=MF_RESTARTS,
                       help="mean-field restarts")
    solve.add_argument("--samples", type=int,
                       help="Gaussian rounding samples per iteration "
                       "(general compatibility only)")
    solve.add_argument("--out", help="write the report JSON here")
    solve.add_argument("instance")

    bench = sub.add_parser("bench", help="per-iteration timing CSV")
    bench.add_argument("--kmax", type=int)
    bench.add_argument("--seed", type=int)
    bench.add_argument("--out", help="write CSV here instead of stdout")
    bench.add_argument("instances", nargs="+")

    compare = sub.add_parser("compare",
                             help="run lrsdcut and meanfield side by side")
    compare.add_argument("--seed", type=int)
    compare.add_argument("--restarts", type=int, default=MF_RESTARTS)
    compare.add_argument("--out", help="write CSV here as well")
    compare.add_argument("instances", nargs="+")
    return parser


def _solve_params(args):
    """SolveParams from the solver flags given, or UsageError; a
    ``--restarts`` below 1 is a UsageError too."""
    from .sdp import SolveParams

    if getattr(args, "restarts", 1) < 1:
        raise UsageError(f"restarts must be >= 1, got {args.restarts}")
    try:
        return SolveParams(**{field: getattr(args, flag)
                              for flag, field in _PARAM_FIELDS.items()
                              if getattr(args, flag, None) is not None})
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _run_method(method, problem, params, restarts):
    """Runs one method and returns its :class:`SolveReport` as a dict."""
    from . import meanfield, oracle, sdp

    started = time.perf_counter()
    if method == "lrsdcut":
        report = sdp.lr_sdcut_solve(problem, params)
    elif method == "meanfield":
        result = meanfield.mf_solve(problem, restarts=restarts,
                                    seed=params.seed)
        report = sdp.SolveReport(
            "meanfield", result.energy, None, result.labels,
            trajectory=[{"iter": i, "dual": None, "rounded_energy": None,
                         "free_energy": float(f), "rank": None,
                         "truncated": False, "ms": None}
                        for i, f in enumerate(result.free_energies)],
            extras={"restart_energies": result.restart_energies})
    elif method == "brute":
        labels, value = oracle.brute_force_map(problem)
        report = sdp.SolveReport("brute", value, value, labels)
    else:
        raise ValueError(f"unknown method {method!r}")
    out = report.to_dict()
    out["wall_time_s"] = time.perf_counter() - started
    return out


def _write_csv(rows, path):
    """Writes dict rows, keyed alike, as CSV to ``path`` (stdout if None)."""
    with (open(path, "w", newline="", encoding="utf-8") if path
          else contextlib.nullcontext(sys.stdout)) as sink:
        writer = csv.DictWriter(sink, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def cmd_gen(args):
    from . import generate, kernels

    given = {key: getattr(args, key) for flags in _GEN_FLAGS.values()
             for key in flags if getattr(args, key) is not None}
    unread = sorted(args.flags[k] for k in given if k not in _GEN_FLAGS[args.kind])
    if unread:
        raise UsageError(f"--kind {args.kind} does not read {', '.join(unread)}")
    kwargs = {key: size for key, size in _GEN_SIZES.items()
              if key in _GEN_FLAGS[args.kind]} | given
    try:  # the generator rejects a value that would give an unloadable instance
        made = getattr(generate, f"gen_{args.kind}")(
            n_labels=args.labels, seed=args.seed, **kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    instance, artifacts = made if args.kind == "random" else (made, {})

    out_dir = os.path.dirname(os.path.abspath(args.out))
    os.makedirs(out_dir, exist_ok=True)
    for name, factor in artifacts.items():
        kernels.save_factor(os.path.join(out_dir, name), factor)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(instance, fh)
    print(f"wrote {args.kind} instance with N={instance['n_vars']} "
          f"L={instance['n_labels']} to {args.out}")
    return EXIT_OK


def cmd_solve(args):
    from .crf import load_instance

    params = _solve_params(args)
    problem, _, digest = load_instance(args.instance)
    report = _run_method(args.method, problem, params, args.restarts)
    report["instance"] = args.instance
    report["instance_sha256"] = digest
    report["params"] = {flag: getattr(params, field)
                        for flag, field in _PARAM_FIELDS.items()}
    report["params"]["restarts"] = args.restarts

    bound = report.get("lower_bound")
    bound_text = "n/a" if bound is None else f"{bound:.6f}"
    print(f"method={report['method']} energy={report['best_energy']:.6f} "
          f"lower_bound={bound_text} time={report['wall_time_s']:.3f}s")
    for warning in report.get("warnings", []):
        print(f"warning: {warning}", file=sys.stderr)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
    return EXIT_OK


def cmd_bench(args):
    from .crf import load_instance
    from .sdp import lr_sdcut_solve

    params = _solve_params(args)
    rows = []
    for path in args.instances:
        problem, _, digest = load_instance(path)
        report = lr_sdcut_solve(problem, params)
        times = [rec.ms for rec in report.trajectory]
        rows.append({
            "instance": path,
            "instance_sha256": digest,
            "n_vars": problem.n_vars,
            "method": "lrsdcut",
            "iterations": len(times),
            "median_iter_ms": statistics.median(times),
        })
    for i, row in enumerate(rows):
        prev = rows[i - 1]["median_iter_ms"] if i else None
        row["ratio"] = ("" if not prev
                        else f"{row['median_iter_ms'] / prev:.3f}")
    _write_csv(rows, args.out)
    return EXIT_OK


def cmd_compare(args):
    from .crf import load_instance

    params = _solve_params(args)
    rows = []
    for path in args.instances:
        problem, _, digest = load_instance(path)
        sd = _run_method("lrsdcut", problem, params, args.restarts)
        mf = _run_method("meanfield", problem, params, args.restarts)
        rows.append({
            "instance": path,
            "instance_sha256": digest,
            "n_vars": problem.n_vars,
            "lrsdcut_energy": sd["best_energy"],
            "lrsdcut_bound": sd["lower_bound"],
            "meanfield_energy": mf["best_energy"],
            "gap": sd["best_energy"] - mf["best_energy"],
        })

    header = (f"{'instance':<32} {'N':>6} {'lrsdcut':>14} {'bound':>14} "
              f"{'meanfield':>14} {'gap':>12}")
    print(header)
    print("-" * len(header))
    for row in rows:
        bound = row["lrsdcut_bound"]
        bound_text = "n/a" if bound is None else f"{bound:14.6f}"
        print(f"{os.path.basename(row['instance']):<32} {row['n_vars']:>6} "
              f"{row['lrsdcut_energy']:>14.6f} {bound_text:>14} "
              f"{row['meanfield_energy']:>14.6f} {row['gap']:>12.6f}")
    med_sd = statistics.median(r["lrsdcut_energy"] for r in rows)
    med_mf = statistics.median(r["meanfield_energy"] for r in rows)
    print(f"median lrsdcut={med_sd:.6f} meanfield={med_mf:.6f}")

    if args.out:
        _write_csv(rows, args.out)
    return EXIT_OK


def main(argv=None):
    _apply_thread_cap()
    args = _build_parser().parse_args(argv)
    from .crf import InstanceFormatError

    try:
        if args.command == "gen":
            return cmd_gen(args)
        if args.command == "solve":
            return cmd_solve(args)
        if args.command == "bench":
            return cmd_bench(args)
        return cmd_compare(args)
    except InstanceFormatError as exc:
        print(f"error: malformed instance: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (UsageError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # solver-side failures
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
