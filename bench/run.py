"""Benchmark of the fls clustering pipeline, end to end and layer by layer.

Run one workload:

    python3 bench/run.py --workload large-n --seed 0 --seconds 15 --trace 0

or every workload, each in its own process, untraced then traced:

    python3 bench/run.py --workload all --seed 0 --seconds 15

One process is one closed-loop caller: it sets up the workload, discards
a warm-up call, then repeats the workload's unit in whole rounds (a
round makes every call of the workload once) until ``--seconds`` have
passed.  With ``--trace 0`` it prints the end-to-end metrics; with
``--trace 1`` each unit is followed by a traced stage-by-stage replay and
it prints the per-layer metrics.  The last line of stdout is a JSON
object with the keys correct, attempted, failed and metrics.  A failed
output check makes ``correct`` false and the exit code 1.  Spans and a
record of each result go to ``.bench_out/`` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

WORKLOADS = ("subspace-ref", "large-n", "kmeans-landmarks")
SETUP_REPS = 3
CHILD_TIMEOUT_S = 900
MIB = 2**20

END_TO_END = {
    "cluster_s": "s",
    "points_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "rate": "fraction",
}

PER_LAYER = {
    "landmarks.flats_s": "s",
    "landmarks.flat_calls": "count",
    "landmarks.scales": "count",
    "landmarks.neighborhood_rows": "count",
    "landmarks.select_s": "s",
    "landmarks.sigma_s": "s",
    "kernels.embed_s": "s",
    "kernels.embed_peak_mb": "MiB",
    "kernels.embed_mb": "MiB",
    "cluster.spectral_embed_s": "s",
    "cluster.spectral_embed_peak_mb": "MiB",
    "linalg.kmeans_s": "s",
    "linalg.kmeans_inertia": "sq-dist",
    "datagen.load_csv_s": "s",
    "datagen.gen_s": "s",
    "datagen.save_csv_s": "s",
    "cli.overhead_s": "s",
    "trace.overhead_frac": "ratio",
    "failed_frac": "fraction",
    "rate_min": "fraction",
}

# per-layer time metric -> span name it sums within a unit
LAYER_SPANS = {
    "landmarks.flats_s": "landmarks.flats",
    "landmarks.select_s": "landmarks.select_landmarks",
    "landmarks.sigma_s": "landmarks.default_sigma",
    "kernels.embed_s": "kernels.embed",
    "cluster.spectral_embed_s": "cluster.spectral_embed",
    "linalg.kmeans_s": "linalg.kmeans",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--size",
        choices=("full", "smoke"),
        default="full",
        help="smoke runs a tiny version of each workload, for the benchmark's tests",
    )
    return p.parse_args(argv)


def pin_blas_threads() -> int:
    """Cap every BLAS pool at the CPUs this process may use; must precede numpy."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(nproc)
    return nproc


def environment(nproc: int, workload) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        blas_version = "unknown"
    return {
        "nproc": nproc,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "n": workload.n,
        "D": workload.n_features,
        "calls": len(workload.calls),
        "calls_per_unit": len(workload.unit_calls(0)),
    }


def measure(args, workload, tracer):
    """Set up, then run units until the deadline.

    Set-up repetition r generates the inputs of unit r (so every dataset of
    a cli workload, whose CSV it writes), then makes a discarded warm-up
    unit at smoke size.  Units run in whole rounds, at least one, so every
    run, traced or not, makes each call equally often.
    Returns (setup_walls, units, problems).
    """
    import numpy as np
    import workloads
    from spans import Tracer

    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        os.mkdir(os.path.join(workdir, "warm"))
        runner = workloads.Runner(workload, workdir, tracer)
        warm = workloads.Runner(
            workloads.make(args.workload, "smoke", args.seed),
            os.path.join(workdir, "warm"),
            Tracer(),
        )
        problems, setup_walls = [], []
        for r in range(max(SETUP_REPS, workload.round_units)):
            tracer.unit = f"setup{r}"
            start = time.perf_counter()
            runner.setup(r)
            warm.setup(0)
            warm_raw = warm.run_unit(0)
            setup_walls.append(time.perf_counter() - start)
            problems += [p for o in warm.check_unit(0, warm_raw) for p in o.problems]

        units = []
        deadline = time.perf_counter() + args.seconds
        while True:
            i = len(units)
            tracer.unit = None
            start = time.perf_counter()
            raw = runner.run_unit(i)
            unit = {"wall": time.perf_counter() - start, "outcomes": runner.check_unit(i, raw)}
            if args.trace:
                tracer.unit = f"unit{i}"
                start = time.perf_counter()
                unit["traced"] = runner.replay_unit(i)
                unit["traced_wall"] = time.perf_counter() - start
                for j, (plain, (replayed, _)) in enumerate(zip(unit["outcomes"], unit["traced"])):
                    if plain.labels is not None and replayed.labels is not None:
                        if not np.array_equal(plain.labels, replayed.labels):
                            replayed.problems.append(
                                f"call {j}: traced replay labels differ from untraced"
                            )
            units.append(unit)
            if len(units) % workload.round_units == 0 and time.perf_counter() >= deadline:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return setup_walls, units, problems


def first_rates(workload, units) -> dict:
    """Each call's rate, once: repeats of a call give the same labels."""
    rates = {}
    for k, u in enumerate(units):
        for i, o in zip(workload.unit_calls(k), u["outcomes"]):
            if o.rate is not None:
                rates.setdefault(i, o.rate)
    return rates


def end_to_end(workload, units, setup_walls, import_s, call_rates):
    walls = [u["wall"] for u in units]
    rates = list(call_rates.values())
    cluster_s = statistics.median(walls)
    metrics = {
        "cluster_s": cluster_s,
        "points_per_s": workload.n / cluster_s,
        "setup_s": import_s + statistics.median(setup_walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MIB,
        "rate": statistics.fmean(rates) if rates else 0.0,
    }
    samples = {"cluster_s": len(walls), "points_per_s": len(walls), "setup_s": len(setup_walls)}
    return metrics, samples


def per_layer(units, spans, n_setup, call_rates, failed_frac):
    from spans import unit_peak_bytes, unit_totals

    med = statistics.median
    unit_ids = [f"unit{i}" for i in range(len(units))]
    totals = [unit_totals(spans, uid) for uid in unit_ids]
    setup_totals = [unit_totals(spans, f"setup{r}") for r in range(n_setup)]

    def peak_mb(name):
        return med([unit_peak_bytes(spans, uid, name) for uid in unit_ids]) / MIB

    metrics = {name: med([t.get(span, 0.0) for t in totals]) for name, span in LAYER_SPANS.items()}
    counts = [c for _, c in units[0]["traced"] if c]
    metrics.update(
        {
            "landmarks.flat_calls": sum(c["flat_calls"] for c in counts),
            "landmarks.scales": max((c["scales"] for c in counts), default=0),
            "landmarks.neighborhood_rows": sum(c["neighborhood_rows"] for c in counts),
            "kernels.embed_mb": sum(c["embed_bytes"] for c in counts) / MIB,
            "linalg.kmeans_inertia": sum(c["inertia"] for c in counts),
            "kernels.embed_peak_mb": peak_mb("kernels.embed"),
            "cluster.spectral_embed_peak_mb": peak_mb("cluster.spectral_embed"),
            "datagen.gen_s": med([t["datagen.gen_synthetic"] for t in setup_totals]),
            "datagen.save_csv_s": med([t.get("datagen.save_csv", 0.0) for t in setup_totals]),
            "datagen.load_csv_s": med([t.get("datagen.load_csv", 0.0) for t in totals]),
            # the untraced entry-point wall minus the stage times the program
            # reported for that same call, minus the traced CSV read
            "cli.overhead_s": med(
                [
                    u["wall"]
                    - sum(o.stage_s for o in u["outcomes"])
                    - t.get("datagen.load_csv", 0.0)
                    for u, t in zip(units, totals)
                ]
            ),
            "trace.overhead_frac": med([u["traced_wall"] / u["wall"] for u in units]),
            "failed_frac": failed_frac,
            # every call of the workload: a run makes whole rounds
            "rate_min": min(call_rates.values(), default=0.0),
        }
    )
    return metrics, {name: len(units) for name in LAYER_SPANS}


def run_workload(args) -> int:
    t0 = time.perf_counter()
    nproc = pin_blas_threads()
    sys.path.insert(0, str(SRC))
    try:
        import fls
        import workloads
        from spans import Tracer, self_times
    except ImportError as exc:
        print(f"error: cannot import fls from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(fls.__file__).resolve().parent.parent != SRC.resolve():
        print(f"error: fls imported from {fls.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t0

    workload = workloads.make(args.workload, args.size, args.seed)
    tracer = Tracer(origin=t0)
    setup_walls, units, problems = measure(args, workload, tracer)

    outcomes = [o for u in units for o in u["outcomes"]]
    if args.trace:
        outcomes += [o for u in units for o, _ in u["traced"]]
    attempted = len(outcomes)
    failed = sum(1 for o in outcomes if o.problems)
    problems += [p for o in outcomes for p in o.problems]
    call_rates = first_rates(workload, units)
    if args.trace:
        metrics, samples = per_layer(
            units, tracer.spans, len(setup_walls), call_rates, failed / attempted
        )
        declared = PER_LAYER
    else:
        metrics, samples = end_to_end(workload, units, setup_walls, import_s, call_rates)
        declared = END_TO_END

    env = environment(nproc, workload)
    tag = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "size": args.size,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "import_s": import_s,
        "setup_walls_s": setup_walls,
        "unit_walls_s": [u["wall"] for u in units],
        "metrics": metrics,
        "samples": samples,
        "attempted": attempted,
        "failed": failed,
        "call_rates": call_rates,
        "problems": problems,
    }
    if args.trace:
        record["traced_unit_walls_s"] = [u["traced_wall"] for u in units]
        traced = [s for s in tracer.spans if s["unit"] and s["unit"].startswith("unit")]
        record["self_s_per_unit"] = {
            k: v / len(units) for k, v in sorted(self_times(traced).items())
        }
        (OUT_DIR / "spans").mkdir(exist_ok=True)
        tracer.write(OUT_DIR / "spans" / f"{tag}.jsonl")
    (OUT_DIR / "results").mkdir(exist_ok=True)
    with open(OUT_DIR / "results" / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)

    print(f"# {args.workload} ({args.size}) seed={args.seed} trace={args.trace}")
    print("# environment " + json.dumps(env, sort_keys=True))
    print(f"# calls attempted {attempted}, failed {failed}")
    for name, value in metrics.items():
        n = samples.get(name)
        print(f"{name:<32} {value:>16.6g} {declared[name]:<9}" + (f" n={n}" if n else ""))
    if args.trace:
        print("# self time per unit (s)")
        for name, value in record["self_s_per_unit"].items():
            print(f"#   {name:<30} {value:>12.6f}")
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": declared[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(trace),
                "--size", args.size,
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
            lines = proc.stdout.splitlines()
            sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
            sys.stderr.write(proc.stderr)
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                print(f"error: {name} trace={trace} printed no result", file=sys.stderr)
                correct = False
                continue
            correct = correct and result["correct"] and proc.returncode == 0
            attempted += result["attempted"]
            failed += result["failed"]
            metrics.update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    # a terminated run still removes its work directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
