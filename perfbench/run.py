"""nmfkit performance benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload termdoc-m-fixed --seed 1 --seconds 20 --trace 0

Load model: closed loop, one client. One process runs one job at a time;
the BLAS thread count is capped at nproc before numpy is imported.

A run sets up the seeded inputs several times (setup_s is their median),
takes tracemalloc peaks in one untimed pass, then repeats timed passes over
the workload's jobs for --seconds. With --trace 1, every second pass is
traced: spans are recorded around the nmfkit names listed in layers.py and
the per-layer metrics are reported instead of the end-to-end ones. The
output checks run in both modes; the last stdout line is the JSON result.
In that line `failed` counts jobs whose output a check rejected; jobs that
raise a typed NmfError are counted apart (`raised`) and scored in error_rel.
Details (inputs, environment, per-job outcomes, spans) go to .perfbench-out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
OUT = ROOT / ".perfbench-out"

MIN_SETUPS, MAX_SETUPS, SETUP_BUDGET_S = 3, 25, 2.0
MIN_PASSES = 2


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def cap_blas_threads(threads: int) -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def environment(threads: int) -> dict:
    import numpy
    import scipy

    def blas(module) -> str:
        try:
            return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError):
            return "unknown"

    return {
        "nproc": nproc(),
        "blas_threads": threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas(numpy),
        "openblas_scipy": blas(scipy),
        "git_commit": git_commit(),
    }


def fresh_dir(parent: Path, name: str) -> Path:
    """A new directory for one set-up or pass.

    Rewriting a file whose previous contents are still being written back
    stalls on the kernel's writeback, so no run overwrites its own files.
    """
    path = parent / name
    path.mkdir()
    return path


def median_of(dicts: list[dict], name: str) -> float:
    return statistics.median(d[name] for d in dicts)


def e2e_pass_metrics(outcomes, wall: float, algorithms) -> dict[str, float]:
    ok = [o for o in outcomes if o.ok]
    m = {
        "solves_per_s": len(ok) / wall,
        "iter_ms": statistics.fmean(1000.0 * o.solve_elapsed_s / o.iterations for o in ok),
        "init_s": sum(o.init_s for o in outcomes),
        "error_rel": statistics.fmean(o.error_rel for o in outcomes),
    }
    for alg in algorithms:
        walls = [o.wall_s for o in ok if o.algorithm == alg]
        if walls:
            m[f"factorize_s.{alg}"] = statistics.fmean(walls)
    return m


def run_checks(passes, inputs, setup_digests, algorithms) -> tuple[list[dict], set[str]]:
    """The output checks, and the keys of the jobs whose output a check rejected."""
    outcomes = [o for p in passes for o in p["outcomes"]]
    ok = [o for o in outcomes if o.ok]
    checks = []

    def check(name, passed, detail=""):
        checks.append({"check": name, "passed": bool(passed), "detail": detail})

    check("setup is deterministic", len(setup_digests) == 1, f"{len(setup_digests)} distinct inputs")
    bad = sorted({o.key for o in ok if not o.factors_ok})
    check("successful factors are finite and nonnegative", not bad, ", ".join(bad))
    # any exception other than NmfError has already aborted the run
    failed = sorted({(o.key, o.error) for o in outcomes if not o.ok})
    check("failures are typed NmfErrors", all(e for _, e in failed), f"{len(failed)} failing jobs")
    finals: dict[str, set] = {}
    for o in outcomes:
        finals.setdefault(o.key, set()).add((o.error, None if o.objective_sq is None else o.objective_sq.hex()))
    drift = sorted(key for key, seen in finals.items() if len(seen) != 1)
    check("final objective bit-identical across passes", not drift, ", ".join(drift))
    zero_err = {name: mat.zero_error for name, mat in inputs.matrices.items()}
    job_matrix = {job.key: job.matrix for p in passes for job in p["jobs"]}
    out_of_range = sorted(
        {o.key for o in ok if not -0.05 <= o.error_rel <= zero_err[job_matrix[o.key]]}
    )
    check("Error(t) between -0.05 and the zero factorization's", not out_of_range, ", ".join(out_of_range))
    missing = [a for a in algorithms if not any(o.algorithm == a for o in ok)]
    check("every algorithm has a successful job", not missing, ", ".join(missing))
    return checks, set(bad) | set(drift) | set(out_of_range)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True, help="nonnegative workload seed")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    threads = nproc()
    cap_blas_threads(threads)
    if not (SRC / "nmfkit" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"error: needs {SRC / 'nmfkit'} and {SPEC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads(SPEC.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    import layers
    import nmfkit

    if Path(nmfkit.__file__).resolve().parent != SRC / "nmfkit":
        print(f"error: imported nmfkit from {nmfkit.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    work_dir = OUT / f"work-{tag}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        report = run(args, wl, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    report["environment"] = environment(threads)
    report["layer_moves"] = layers.MOVES
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = report["metrics"]
    if set(metrics) != {m["name"] for m in wanted}:
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json")
    (OUT / f"{tag}.json").write_text(json.dumps(report, indent=1, default=str) + "\n")

    env = report["environment"]
    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  commit {env['git_commit']}")
    print("environment " + "  ".join(f"{k}={v}" for k, v in env.items() if k != "git_commit"))
    for name, info in report["inputs"]["matrices"].items():
        print(f"input {name}: {info['m']} x {info['n']}, nnz {info['nnz']}, "
              f"density {info['density']:.4%}, k {report['inputs']['k']}")
    print(f"passes {len(report['passes'])}, jobs attempted {report['attempted']}, "
          f"raised NmfError {report['raised']}, rejected by a check {report['failed']}")
    for c in report["checks"]:
        print(f"check {'PASS' if c['passed'] else 'FAIL'}: {c['check']} {c['detail']}".rstrip())
    for m in wanted:
        print(f"{m['name']} = {metrics[m['name']]:.6g} {m['unit']}")
    if args.trace:
        share = report["passes"][-1]["acls_share"]
        print("ACLS self time by span, share of job wall time: "
              + ", ".join(f"{name} {v:.1%}" for name, v in sorted(share.items(), key=lambda kv: -kv[1])))
    print(f"details in {OUT / (tag + '.json')}")
    correct = all(c["passed"] for c in report["checks"])
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0 if correct else 1


def run(args, wl, work_dir: Path) -> dict:
    import io

    import layers
    import workloads
    from spans import SpanRecorder

    probe = workloads.Probe()
    recorder = SpanRecorder()
    digests, setup_times, setup_layers = set(), [], {}
    inputs = None
    while len(setup_times) < MIN_SETUPS or (
        sum(setup_times) < SETUP_BUDGET_S and len(setup_times) < MAX_SETUPS
    ):
        inputs = None
        gc.collect()
        t0 = perf_counter()
        inputs = wl.setup(args.seed, fresh_dir(work_dir, f"setup{len(setup_times)}"))
        setup_times.append(perf_counter() - t0)
        digests.add(inputs.digest())
        if args.trace:
            break
    if args.trace:
        inputs = None
        gc.collect()
        lo = len(recorder.spans)
        with recorder.patched(layers.patches()):
            inputs = wl.setup(args.seed, fresh_dir(work_dir, "setup-traced"))
        digests.add(inputs.digest())
        setup_layers = layers.setup_metrics(recorder.spans, lo, len(recorder.spans), inputs.tokens)

    jobs = wl.jobs(args.seed)
    gc.collect()
    init_peak, solve_peak = workloads.memory_pass(jobs, inputs)

    sink = io.StringIO()
    passes = []
    t_start = perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        kinds = [p["traced"] for p in passes]
        enough = kinds.count(False) >= MIN_PASSES and (not args.trace or kinds.count(True) >= MIN_PASSES)
        if enough and perf_counter() - t_start >= args.seconds and not traced:
            break
        gc.collect()
        lo = len(recorder.spans)
        outcomes = []
        pass_dir = fresh_dir(work_dir, f"pass{len(passes)}")
        t0 = perf_counter()
        if traced:
            with recorder.patched(layers.patches()):
                for job in jobs:
                    recorder.job = f"p{len(passes)}/{job.key}"
                    outcomes.append(workloads.run_job(job, inputs, probe, pass_dir, sink))
            recorder.job = None
        else:
            for job in jobs:
                outcomes.append(workloads.run_job(job, inputs, probe, pass_dir, sink))
        wall = perf_counter() - t0
        p = {"traced": traced, "wall_s": wall, "jobs": jobs, "outcomes": outcomes,
             "e2e": e2e_pass_metrics(outcomes, wall, workloads.ALGORITHMS)}
        if traced:
            p["layers"], p["acls_share"] = layers.pass_metrics(recorder.spans, lo, len(recorder.spans), outcomes)
        passes.append(p)

    untraced = [p for p in passes if not p["traced"]]
    traced_passes = [p for p in passes if p["traced"]]
    metrics = {}
    if args.trace:
        for name in traced_passes[0]["layers"]:
            metrics[name] = median_of([p["layers"] for p in traced_passes], name)
        metrics["linalg.svd.busy_s"] += setup_layers.pop("linalg.svd.busy_s")
        metrics.update(setup_layers)
        for s in layers.STRATEGY_NAMES:
            metrics[f"initializers.peak_mib.{s}"] = init_peak.get(s, 0.0)
        sps = median_of([p["e2e"] for p in untraced], "solves_per_s")
        metrics["trace.overhead_frac"] = 1.0 - median_of([p["e2e"] for p in traced_passes], "solves_per_s") / sps
        recorder.write_jsonl(OUT / f"{wl.name}-seed{args.seed}-spans.jsonl")
    else:
        for name in untraced[0]["e2e"]:
            metrics[name] = median_of([p["e2e"] for p in untraced], name)
        metrics["setup_s"] = statistics.median(setup_times)
        metrics["init_peak_mib"] = max(init_peak.values())
        metrics["solve_peak_mib"] = solve_peak

    checks, rejected = run_checks(passes, inputs, digests, workloads.ALGORITHMS)
    if args.trace and wl.name == "termdoc-m-fixed":
        cov = metrics["trace.coverage.acls"]
        checks.append({"check": "ACLS span self times cover the job's wall time within 5%",
                       "passed": 0.95 <= cov <= 1.0 + 1e-9, "detail": f"{cov:.4f}"})
    all_outcomes = [o for p in passes for o in p["outcomes"]]
    return {
        "workload": wl.name,
        "inputs": workloads.describe(inputs, wl, args.seed),
        "setup_s": setup_times,
        "peak_mib": {"init": init_peak, "solve": solve_peak},
        "checks": checks,
        "attempted": len(all_outcomes),
        # A typed NmfError is the program's own answer to an ill-posed solve, the
        # same for a job in every pass; it is counted in `raised`, scored in
        # error_rel and reported per type by the traced run. `failed` counts the
        # jobs whose output a check rejected.
        "raised": sum(not o.ok for o in all_outcomes),
        "failed": sum(o.key in rejected for o in all_outcomes),
        "metrics": metrics,
        "passes": [
            {"traced": p["traced"], "wall_s": p["wall_s"], "e2e": p["e2e"],
             "layers": p.get("layers"), "acls_share": p.get("acls_share")}
            for p in passes
        ],
        "jobs": [vars(o) for o in passes[0]["outcomes"]],
    }


if __name__ == "__main__":
    sys.exit(main())
