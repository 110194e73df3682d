"""sparseratio benchmark: seeded solve workloads, end-to-end and per-layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload robust_cs_ratio --seed 0 \\
        --seconds 30 --trace 0

The harness imports ``sparseratio`` from ``src/`` of the checkout, solves a
panel of seeded instances through ``cli.run_pipeline`` in this one process,
checks every solution, and prints one line per metric followed, as its last
line, by a JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` solves the same
panel untraced and then again under ``tracer.Tracer``, requires the two
passes to agree bitwise on every rec_err and iteration count, and reports
the per-layer metrics and the tracing overhead. A traced ``--seed 0`` run
also checks the seed-0 counts the workload records from the reference
profile. Each run writes its record, per-instance fingerprints included, to
``.bench_out/`` in the checkout; a traced run also writes its spans there.
"""

import os

# BLAS reads its thread count when numpy is first imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import RESIDUAL_FROM_X, Tracer, layer_totals  # noqa: E402
from workloads import NOISELESS, WORKLOADS, NoiselessInstance, gate  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"

END_TO_END_UNITS = {
    "iter_ms_p50": "ms",
    "seed_wall_s_p50": "s",
    "seeds_per_s": "1/s",
    "solve_s_p50": "s",
    "setup_s": "s",
    "rec_err_p50": "1",
    "peak_rss_mb": "MiB",
}
# the metrics BENCHMARK.json bounds; the rest depend on which instances a
# seed draws more than any allowed bound, so they are printed only
END_TO_END_GATED = ("iter_ms_p50", "setup_s", "peak_rss_mb")


def load_package():
    src = ROOT / "src"
    if not (src / "sparseratio" / "__init__.py").is_file():
        sys.exit(f"run.py: no sparseratio sources under {src}")
    sys.path.insert(0, str(src))
    import sparseratio
    from sparseratio import cli, drivers, instances, models, subsolvers  # noqa: F401
    if Path(sparseratio.__file__).resolve().parent != (src / "sparseratio").resolve():
        sys.exit(f"run.py: imported sparseratio from {sparseratio.__file__}, "
                 f"not from {src}")
    return sparseratio


def environment():
    import numpy
    import scipy
    deps = numpy.show_config(mode="dicts")["Build Dependencies"]
    caches = {}
    for index in range(4):
        base = Path(f"/sys/devices/system/cpu/cpu0/cache/index{index}")
        try:
            level = (base / "level").read_text().strip()
            kind = (base / "type").read_text().strip()
            size = (base / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": deps.get("blas"),
        "lapack": deps.get("lapack"),
        "thread_env": {var: os.environ[var] for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "caches_per_core": caches,
        "git_commit": git_commit(),
    }


def git_commit():
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def solve_instance(pkg, workload, inst_seed, tracer=None):
    """Generate one instance, run its pipeline, gate the solution.

    Returns a row of numbers only: neither the instance nor the result is
    kept, so memory holds one instance at a time.
    """
    cfg = pkg.drivers.SolverConfig(**workload.config)
    if tracer is not None:
        tracer.run_id = f"{workload.name}/{inst_seed}"
    setup_span = tracer.span("bench.setup") if tracer else contextlib.nullcontext()
    t0 = time.perf_counter()
    with setup_span:
        if workload.spec["family"] == NOISELESS:
            inst = NoiselessInstance(workload.spec, inst_seed, pkg.instances,
                                     pkg.models)
        else:
            inst = pkg.instances.generate(
                pkg.instances.GenSpec(seed=inst_seed, **workload.spec))
    t1 = time.perf_counter()
    try:
        pres = pkg.cli.run_pipeline(inst.model, workload.pipeline, cfg,
                                    workload.warm_tol)
        error = None
    except (pkg.drivers.InfeasibleStartError, pkg.drivers.InnerLoopError,
            pkg.subsolvers.SubsolverError) as exc:
        pres, error = None, f"{type(exc).__name__}: {exc}"
    t2 = time.perf_counter()
    row = {"seed": inst_seed, "t_gen": t1 - t0, "t_solve": t2 - t1,
           "m": inst.model.A.m, "n": inst.model.A.n}
    if pres is None:
        row.update(status="raised", iterations=None, warm_iterations=None,
                   rec_err=None, rec_err_hex=None, problems=[error],
                   accepted_steps=0, doublings=0, t_warm=0.0, t_main=0.0,
                   iter_s=[])
        return row
    err = pkg.instances.rec_err(pres.x_final, inst.x_orig)
    traces = [tr for tr in (pres.warm_trace, pres.main_trace) if tr is not None]
    mba_traces = [tr for tr in traces if tr.q_vals]
    row.update(status=pres.status, iterations=pres.iterations,
               warm_iterations=pres.warm_iterations, rec_err=err,
               rec_err_hex=err.hex(),
               problems=gate(workload, inst.model, inst.x_orig, pres, pkg),
               accepted_steps=sum(len(tr.step_norm) for tr in mba_traces),
               doublings=sum(sum(tr.inner_doublings) for tr in mba_traces),
               t_warm=pres.t_warm, t_main=pres.t_main,
               iter_s=[t for tr in traces for t in tr.wall_time])
    return row


def run_pass(pkg, workload, seeds, tracer=None):
    t0 = time.perf_counter()
    rows = [solve_instance(pkg, workload, s, tracer) for s in seeds]
    return rows, time.perf_counter() - t0


def fingerprint(row):
    return (row["status"], row["iterations"], row["warm_iterations"],
            row["rec_err_hex"])


def merge_passes(passes):
    """One row per instance from several passes over the panel.

    On a shared machine the processor's speed swings by up to 2x for
    seconds at a time. The fastest pass is the figure those swings touch
    least, and since a rerun repeats every outer iteration bitwise, each
    iteration is also taken at its fastest pass: ``t_iter`` sums those
    per-iteration minima, so a fast phase of a fraction of a second counts.
    A rerun that is not bitwise identical is a problem.
    """
    merged = []
    for rows in zip(*passes):
        row = {key: value for key, value in rows[0].items() if key != "iter_s"}
        row["t_gen_passes"] = [r["t_gen"] for r in rows]
        row["t_solve_passes"] = [r["t_solve"] for r in rows]
        row["t_gen"] = min(row["t_gen_passes"])
        row["t_solve"] = min(row["t_solve_passes"])
        row["t_iter"] = sum(map(min, zip(*(r["iter_s"] for r in rows))))
        if any(fingerprint(r) != fingerprint(rows[0]) for r in rows):
            row["problems"] = row["problems"] + ["rerun not bitwise identical"]
        merged.append(row)
    return merged


def end_to_end(rows):
    walls = [r["t_gen"] + r["t_solve"] for r in rows]
    per_iter = [r["t_iter"] / r["iterations"] for r in rows if r["iterations"]]
    errs = [r["rec_err"] for r in rows if r["rec_err"] is not None]
    return {
        "iter_ms_p50": 1e3 * statistics.median(per_iter)
        if per_iter else None,
        "seed_wall_s_p50": statistics.median(walls),
        "seeds_per_s": len(rows) / sum(walls),
        "solve_s_p50": statistics.median(r["t_solve"] for r in rows),
        "setup_s": statistics.median(r["t_gen"] for r in rows),
        "rec_err_p50": statistics.median(errs) if errs else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(workload, tracer, rows, untraced_wall, traced_wall):
    """Per-layer metrics of a traced pass.

    Matvec counts and bytes are computed from call counts and the matrix
    shape (m * n * 8 bytes per product), not measured.
    """
    tot = layer_totals(tracer.spans)

    def get(name, key):
        return tot.get(name, {}).get(key, 0)

    evals = {}
    for (_, name), count in tracer.evals.items():
        evals[name] = evals.get(name, 0) + count

    product_bytes = rows[0]["m"] * rows[0]["n"] * 8
    accepted = sum(r["accepted_steps"] for r in rows)
    prox_calls = get("subsolvers.prox_l1_ball", "calls")
    prox_ok = prox_calls - get("subsolvers.prox_l1_ball", "failures")
    at_per_subgrad = int(workload.spec["family"] == "robust_cs")
    matvec_at = (get("models.grad_p1", "calls")
                 + at_per_subgrad * get("models.subgrad_p2", "calls"))
    matvec_a = (tracer.calls["cli.run_mba"] + prox_ok
                + tracer.calls["cli.run_algorithm1"]
                + sum(tracer.calls[site] for site in RESIDUAL_FROM_X))
    setup_s = get("bench.setup", "s")
    solve_s = get("cli.run_pipeline", "s")
    out = {
        "instances.generate.calls": get("instances.generate", "calls"),
        "instances.generate.self_s": get("instances.generate", "self_s"),
        "models.SensingMatrix.calls": get("models.SensingMatrix", "calls"),
        "models.SensingMatrix.s": get("models.SensingMatrix", "s"),
    }
    for hook in ("q", "grad_p1", "subgrad_p2"):
        out[f"models.{hook}.calls"] = get(f"models.{hook}", "calls")
        out[f"models.{hook}.s"] = get(f"models.{hook}", "s")
    out |= {
        "models.matvec_AT.count": matvec_at,
        "models.matvec_AT.bytes_computed": matvec_at * product_bytes,
        "subsolvers.prox_l1_ball.calls": prox_calls,
        "subsolvers.prox_l1_ball.s": get("subsolvers.prox_l1_ball", "s"),
        "subsolvers.prox_l1_ball.failures":
            get("subsolvers.prox_l1_ball", "failures"),
        "subsolvers.prox_l1_ball.evals": evals.get("subsolvers.prox_l1_ball", 0),
        "subsolvers.prox_l1_ball.evals_per_call":
            evals.get("subsolvers.prox_l1_ball", 0) / prox_calls
            if prox_calls else 0.0,
        "subsolvers.BallProxProblem.calls":
            get("subsolvers.BallProxProblem", "calls"),
        "subsolvers.BallProxProblem.s": get("subsolvers.BallProxProblem", "s"),
        "subsolvers.prox_l1_affine.calls":
            get("subsolvers.prox_l1_affine", "calls"),
        "subsolvers.prox_l1_affine.s": get("subsolvers.prox_l1_affine", "s"),
        "subsolvers.prox_l1_affine.failures":
            get("subsolvers.prox_l1_affine", "failures"),
        # one soft_threshold per splitting iteration
        "subsolvers.prox_l1_affine.admm_iters":
            evals.get("subsolvers.prox_l1_affine", 0),
        "subsolvers.least_norm_solution.calls":
            get("subsolvers.least_norm_solution", "calls"),
        "subsolvers.least_norm_solution.s":
            get("subsolvers.least_norm_solution", "s"),
        "drivers.run_mba.self_s": get("drivers.run_mba", "self_s"),
        "drivers.run_algorithm1.self_s": get("drivers.run_algorithm1", "self_s"),
        "drivers.outer_iters": sum(r["iterations"] or 0 for r in rows),
        "drivers.doublings": sum(r["doublings"] for r in rows),
        "drivers.prox_accept_ratio": accepted / prox_calls if prox_calls else 0.0,
        "drivers.matvec_A.count": matvec_a,
        "drivers.matvec_A.bytes_computed": matvec_a * product_bytes,
        "drivers.feasible_start.calls": get("drivers.feasible_start", "calls"),
        "drivers.feasible_start.s": get("drivers.feasible_start", "s"),
        "drivers.criticality_residual.calls":
            get("drivers.criticality_residual", "calls"),
        "drivers.criticality_residual.s":
            get("drivers.criticality_residual", "s"),
        "cli.run_pipeline.s": solve_s,
        "cli.warm_s": sum(r["t_warm"] for r in rows),
        "cli.main_s": sum(r["t_main"] for r in rows),
        "bench.setup.s": setup_s,
        "share.prox_l1_ball_of_solve":
            get("subsolvers.prox_l1_ball", "s") / solve_s,
        "share.prox_l1_affine_of_solve":
            get("subsolvers.prox_l1_affine", "s") / solve_s,
        "share.SensingMatrix_of_setup":
            get("models.SensingMatrix", "s") / setup_s,
        "trace.spans": len(tracer.spans),
        "trace.overhead_s": traced_wall - untraced_wall,
    }
    return out


def seed0_check(workload, tracer, rows):
    """Counts of the traced seed-0 instance against the reference profile."""
    if workload.seed0 is None or rows[0]["seed"] != 0:
        return None
    run = f"{workload.name}/0"
    prox = sum(1 for s in tracer.spans
               if s[5] == run and s[2] == "subsolvers.prox_l1_ball")
    evals = tracer.evals[(run, "subsolvers.prox_l1_ball")]
    seen = {"iterations": rows[0]["iterations"], "prox_calls": prox,
            "evals_per_call": round(evals / prox, 1) if prox else None}
    return {"expected": workload.seed0,
            "seen": {key: seen[key] for key in workload.seed0},
            "ok": all(seen[key] == want
                      for key, want in workload.seed0.items())}


def print_rows(rows):
    for r in rows:
        verdict = "ok" if not r["problems"] else "FAIL " + "; ".join(r["problems"])
        print(f"  seed {r['seed']}: status={r['status']} iters={r['iterations']} "
              f"(warm {r['warm_iterations']}) rec_err={r['rec_err']!r} "
              f"gen={r['t_gen']:.4f}s solve={r['t_solve']:.4f}s {verdict}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    pkg = load_package()
    workload = WORKLOADS[args.workload]
    seeds = workload.instance_seeds(args.seed)
    n_passes = workload.passes(args.seconds)
    env = environment()
    print(f"workload {workload.name}: {workload.why}")
    print(f"  pipeline={workload.pipeline} config={workload.config} "
          f"warm_tol={workload.warm_tol} spec={workload.spec} "
          f"instances={len(seeds)} (seeds {seeds[0]}..{seeds[-1]}), "
          + ("one untraced and one traced pass" if args.trace
             else f"{n_passes} passes, fastest kept"))
    print(f"environment: {json.dumps(env)}")

    if args.trace == 0:
        passes = [run_pass(pkg, workload, seeds)[0] for _ in range(n_passes)]
        rows = merge_passes(passes)
    else:
        rows, wall = run_pass(pkg, workload, seeds)
        for row in rows:
            del row["iter_s"]
    print_rows(rows)
    failed = sum(1 for r in rows if r["problems"])
    record = {"workload": workload.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "environment": env,
              "instances": rows}
    correct = failed == 0
    print(f"correctness gate: {len(rows) - failed}/{len(rows)} instances pass; "
          f"failure_rate = {failed / len(rows)!r}")

    if args.trace == 0:
        record["all_metrics"] = end_to_end(rows)
        for name, value in record["all_metrics"].items():
            print(f"  {name} = {value!r} {END_TO_END_UNITS[name]}")
        metrics = {name: record["all_metrics"][name]
                   for name in END_TO_END_GATED}
        units = END_TO_END_UNITS
    else:
        with Tracer(pkg) as tracer:
            traced_rows, traced_wall = run_pass(pkg, workload, seeds, tracer)
        for row in traced_rows:
            del row["iter_s"]
        mismatched = [a["seed"] for a, b in zip(rows, traced_rows)
                      if fingerprint(a) != fingerprint(b)]
        print(f"transparency: traced and untraced passes agree bitwise on "
              f"{len(rows) - len(mismatched)}/{len(rows)} instances"
              + (f"; DIFFER on seeds {mismatched}" if mismatched else ""))
        correct = correct and not mismatched
        metrics = per_layer(workload, tracer, traced_rows, wall, traced_wall)
        units = {name: _layer_unit(name) for name in metrics}
        for name, value in metrics.items():
            print(f"  {name} = {value!r} {units[name]}")
        check = seed0_check(workload, tracer, traced_rows)
        if check is not None:
            print(f"seed-0 profile cross-check: expected {check['expected']}, "
                  f"seen {check['seen']}: {'ok' if check['ok'] else 'FAIL'}")
            correct = correct and check["ok"]
        record |= {"traced_instances": traced_rows, "seed0_check": check,
                   "transparency_mismatches": mismatched}
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write_jsonl(OUT_DIR / f"{workload.name}-seed{args.seed}-spans.jsonl")

    record["metrics"] = metrics
    record["correct"] = correct
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(json.dumps({
        "correct": correct,
        "attempted": len(rows),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def _layer_unit(name):
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith("bytes_computed"):
        return "B"
    if name.startswith("share.") or name.endswith(("_ratio", "_per_call")):
        return "1"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
