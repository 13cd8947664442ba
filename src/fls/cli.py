"""Command line interface: gen / cluster / bench / verify.

Every command takes --seed (env FLS_SEED) and is reproducible
byte-for-byte for identical flags and seed, except for wall-clock values,
which are isolated under "timings" keys.  --threads (env FLS_THREADS)
caps the BLAS worker pools; it is applied through environment variables
before numpy loads, which is why this module and the package __init__
import the numerical modules lazily.  A JSON --config file may supply any
option by its long-flag name (underscores for dashes); explicit flags
override it, unknown keys are rejected.

Exit codes: 0 success, 2 usage or configuration error, 3 runtime or
pipeline failure (the message names the failing stage).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

MISSING = argparse.SUPPRESS


class UsageError(Exception):
    pass


def _set_threads_env(argv):
    value = os.environ.get("FLS_THREADS")
    it = iter(range(len(argv)))
    for i in it:
        arg = argv[i]
        if arg == "--threads" and i + 1 < len(argv):
            value = argv[i + 1]
        elif arg.startswith("--threads="):
            value = arg.split("=", 1)[1]
    if value is None:
        return
    try:
        n = int(value)
        if n < 1:
            raise ValueError
    except ValueError:
        raise UsageError(f"--threads expects a positive integer, got {value!r}")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(n)


def _int_list(value):
    if isinstance(value, (list, tuple)):
        return tuple(int(v) for v in value)
    try:
        return tuple(int(f) for f in str(value).split(","))
    except ValueError:
        raise UsageError(f"expected comma-separated integers, got {value!r}")


def _float_list(value):
    if isinstance(value, (list, tuple)):
        return tuple(float(v) for v in value)
    try:
        return tuple(float(f) for f in str(value).split(","))
    except ValueError:
        raise UsageError(f"expected comma-separated numbers, got {value!r}")


def _sigma_value(value):
    if value is None or value == "auto":
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        raise UsageError(f"--sigma expects a number or 'auto', got {value!r}")


def _default_seed():
    env = os.environ.get("FLS_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        raise UsageError(f"FLS_SEED must be an integer, got {env!r}")


# dest -> default, per command; also the set of legal --config keys
_OPTION_DEFAULTS = {
    "gen": {
        "dims": None,
        "ambient": None,
        "pts": 250,
        "noise": 0.05,
        "outliers": 0.0,
        "seed": None,
        "out": None,
    },
    "cluster": {
        "in_path": None,
        "k": None,
        "d": None,
        "landmarks": 100,
        "method": "random",
        "sigma": "auto",
        "neighbors": None,
        "scales": None,
        "linear": False,
        "drop_first": False,
        "normalize_sphere": False,
        "svd": "gram",
        "restarts": 1,
        "seed": None,
        "out": None,
        "embedding_csv": None,
    },
    "bench": {
        "suite": "synthetic5",
        "trials": 10,
        "landmarks": 100,
        "method": "kmeans",
        "flat_dim": None,
        "sigma": 0.3,
        "restarts": 3,
        "drop_first": True,
        "normalize_sphere": True,
        "linear": True,
        "svd": "gram",
        "seed": None,
        "format": "table",
        "out": None,
        "per_trial": None,
    },
    "verify-kernel": {
        "family": "rff",
        "sigma": 1.0,
        "dim": 5,
        "grid_points": 100,
        "counts": "250,1000,4000",
        "reps": 10,
        "ref_count": 50000,
        "eps": None,
        "hoeffding_reps": 200,
        "seed": None,
        "format": "table",
        "out": None,
    },
    "verify-perturbation": {
        "n": 300,
        "dims": "2,2",
        "ambient": 6,
        "noise": 0.05,
        "count": 400,
        "ref_count": 50000,
        "sigma": 1.5,
        "flat_dim": 2,
        "repeats": 1,
        "seed": None,
        "format": "table",
        "out": None,
    },
    "verify-eigvec": {
        "n": 300,
        "dims": "2,2",
        "ambient": 6,
        "noise": 0.05,
        "counts": "100,400,1600",
        "ref_count": 50000,
        "k": 2,
        "sigma": 1.5,
        "flat_dim": 2,
        "repeats": 1,
        "seed": None,
        "format": "table",
        "out": None,
    },
    "verify-rotation": {
        "dim": 3,
        "flat_dim": 1,
        "pairs": 100,
        "count": 100000,
        "sigma": 1.0,
        "distance": 1.0,
        "seed": None,
        "format": "table",
        "out": None,
    },
}

_META_DESTS = {"func", "command", "config", "threads"}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="fls",
        description="Randomized kernel embeddings and landmark subspace clustering.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=MISSING)
        p.add_argument("--threads", type=int, default=MISSING)
        p.add_argument("--config", default=None, help="JSON file of option defaults")

    p = sub.add_parser("gen", help="generate synthetic union-of-subspaces data")
    p.add_argument("--dims", default=MISSING, help="subspace dims, e.g. 2,2")
    p.add_argument("--ambient", type=int, default=MISSING)
    p.add_argument("--pts", type=int, default=MISSING, help="points per subspace")
    p.add_argument("--noise", type=float, default=MISSING)
    p.add_argument("--outliers", type=float, default=MISSING, help="outlier ratio")
    p.add_argument("--out", default=MISSING, help="output directory")
    common(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("cluster", help="cluster a CSV of points")
    p.add_argument("--in", dest="in_path", default=MISSING, help="input points CSV")
    p.add_argument("--k", type=int, default=MISSING, help="number of clusters")
    p.add_argument("--d", type=int, default=MISSING, help="flat dimension")
    p.add_argument("--landmarks", type=int, default=MISSING)
    p.add_argument("--method", choices=["random", "kmeans"], default=MISSING)
    p.add_argument("--sigma", default=MISSING, help="bandwidth or 'auto'")
    p.add_argument("--neighbors", type=int, default=MISSING)
    p.add_argument("--scales", type=int, default=MISSING)
    p.add_argument("--linear", action="store_true", default=MISSING)
    p.add_argument("--drop-first", dest="drop_first", action="store_true", default=MISSING)
    p.add_argument(
        "--normalize-sphere",
        dest="normalize_sphere",
        action="store_true",
        default=MISSING,
    )
    p.add_argument("--svd", choices=["gram", "power"], default=MISSING)
    p.add_argument("--restarts", type=int, default=MISSING)
    p.add_argument("--out", default=MISSING, help="result JSON path (default: stdout)")
    p.add_argument("--embedding-csv", dest="embedding_csv", default=MISSING)
    common(p)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("bench", help="run a benchmark suite")
    p.add_argument("--suite", default=MISSING, help="synthetic5 | synthetic30 | JSON file")
    p.add_argument("--trials", type=int, default=MISSING)
    p.add_argument("--landmarks", type=int, default=MISSING)
    p.add_argument("--method", choices=["random", "kmeans"], default=MISSING)
    p.add_argument("--flat-dim", dest="flat_dim", type=int, default=MISSING)
    p.add_argument("--sigma", default=MISSING)
    p.add_argument("--restarts", type=int, default=MISSING)
    p.add_argument("--drop-first", dest="drop_first", action="store_true", default=MISSING)
    p.add_argument(
        "--no-drop-first", dest="drop_first", action="store_false", default=MISSING
    )
    p.add_argument(
        "--no-normalize-sphere",
        dest="normalize_sphere",
        action="store_false",
        default=MISSING,
    )
    p.add_argument("--linear", action="store_true", default=MISSING)
    p.add_argument("--no-linear", dest="linear", action="store_false", default=MISSING)
    p.add_argument("--svd", choices=["gram", "power"], default=MISSING)
    p.add_argument("--format", choices=["table", "json", "csv"], default=MISSING)
    p.add_argument("--out", default=MISSING, help="write report here instead of stdout")
    p.add_argument("--per-trial", dest="per_trial", default=MISSING, help="per-trial CSV")
    common(p)
    p.set_defaults(func=cmd_bench)

    v = sub.add_parser("verify", help="numerical verification checks")
    vsub = v.add_subparsers(dest="verify_command", required=True)

    p = vsub.add_parser("kernel", help="kernel approximation error decay")
    p.add_argument("--family", choices=["rff", "subspace", "landmark"], default=MISSING)
    p.add_argument("--sigma", type=float, default=MISSING)
    p.add_argument("--dim", type=int, default=MISSING)
    p.add_argument("--grid-points", dest="grid_points", type=int, default=MISSING)
    p.add_argument("--counts", default=MISSING, help="feature counts, e.g. 250,1000,4000")
    p.add_argument("--reps", type=int, default=MISSING)
    p.add_argument("--ref-count", dest="ref_count", type=int, default=MISSING)
    p.add_argument("--eps", default=MISSING, help="tail thresholds, e.g. 0.1,0.2")
    p.add_argument("--hoeffding-reps", dest="hoeffding_reps", type=int, default=MISSING)
    p.add_argument("--format", choices=["table", "json"], default=MISSING)
    p.add_argument("--out", default=MISSING)
    common(p)
    p.set_defaults(func=cmd_verify_kernel, command="verify-kernel")

    p = vsub.add_parser("perturbation", help="normalized-matrix perturbation bounds")
    p.add_argument("--n", type=int, default=MISSING)
    p.add_argument("--dims", default=MISSING)
    p.add_argument("--ambient", type=int, default=MISSING)
    p.add_argument("--noise", type=float, default=MISSING)
    p.add_argument("--count", type=int, default=MISSING, help="test feature count")
    p.add_argument("--ref-count", dest="ref_count", type=int, default=MISSING)
    p.add_argument("--sigma", type=float, default=MISSING)
    p.add_argument("--flat-dim", dest="flat_dim", type=int, default=MISSING)
    p.add_argument("--repeats", type=int, default=MISSING)
    p.add_argument("--format", choices=["table", "json"], default=MISSING)
    p.add_argument("--out", default=MISSING)
    common(p)
    p.set_defaults(func=cmd_verify_perturbation, command="verify-perturbation")

    p = vsub.add_parser("eigvec", help="second-eigenvector stability")
    p.add_argument("--n", type=int, default=MISSING)
    p.add_argument("--dims", default=MISSING)
    p.add_argument("--ambient", type=int, default=MISSING)
    p.add_argument("--noise", type=float, default=MISSING)
    p.add_argument("--counts", default=MISSING)
    p.add_argument("--ref-count", dest="ref_count", type=int, default=MISSING)
    p.add_argument("--k", type=int, default=MISSING)
    p.add_argument("--sigma", type=float, default=MISSING)
    p.add_argument("--flat-dim", dest="flat_dim", type=int, default=MISSING)
    p.add_argument("--repeats", type=int, default=MISSING)
    p.add_argument("--format", choices=["table", "json"], default=MISSING)
    p.add_argument("--out", default=MISSING)
    common(p)
    p.set_defaults(func=cmd_verify_eigvec, command="verify-eigvec")

    p = vsub.add_parser("rotation", help="rotation invariance of the uniform-flat kernel")
    p.add_argument("--dim", type=int, default=MISSING)
    p.add_argument("--flat-dim", dest="flat_dim", type=int, default=MISSING)
    p.add_argument("--pairs", type=int, default=MISSING)
    p.add_argument("--count", type=int, default=MISSING)
    p.add_argument("--sigma", type=float, default=MISSING)
    p.add_argument("--distance", type=float, default=MISSING)
    p.add_argument("--format", choices=["table", "json"], default=MISSING)
    p.add_argument("--out", default=MISSING)
    common(p)
    p.set_defaults(func=cmd_verify_rotation, command="verify-rotation")

    return parser


def _merged_options(args):
    defaults = _OPTION_DEFAULTS[args.command]
    merged = dict(defaults)
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            with open(config_path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise UsageError(f"cannot read config file: {exc}")
        except json.JSONDecodeError as exc:
            raise UsageError(f"config file is not valid JSON: {exc}")
        if not isinstance(doc, dict):
            raise UsageError("config file must hold a JSON object")
        unknown = sorted(set(doc) - set(defaults))
        if unknown:
            raise UsageError(f"unknown config keys: {', '.join(unknown)}")
        merged.update(doc)
    for key, value in vars(args).items():
        if key not in _META_DESTS and key in defaults:
            merged[key] = value
    if merged.get("seed") is None:
        merged["seed"] = _default_seed()
    return merged


def _require(opts, *keys):
    for key in keys:
        if opts.get(key) is None:
            flag = "--in" if key == "in_path" else "--" + key.replace("_", "-")
            raise UsageError(f"{flag} is required")


def _dump_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_gen(opts) -> int:
    from .datagen import DataSet, SyntheticModel, gen_synthetic, save_csv

    _require(opts, "dims", "ambient", "out")
    model = SyntheticModel(
        dims=_int_list(opts["dims"]),
        ambient=int(opts["ambient"]),
        pts_per_subspace=int(opts["pts"]),
        noise_sigma=float(opts["noise"]),
        outlier_ratio=float(opts["outliers"]),
    )
    out_dir = opts["out"]
    os.makedirs(out_dir, exist_ok=True)
    data = gen_synthetic(model, seed=opts["seed"])
    csv_path = os.path.join(out_dir, "points.csv")
    save_csv(csv_path, data)
    model_doc = dict(model.to_json(), seed=opts["seed"])
    with open(os.path.join(out_dir, "model.json"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_dump_json(model_doc))
    n_out = int(data.outlier_mask.sum())
    print(
        f"wrote {data.n} points (dim {data.dim}, "
        f"{data.n - n_out} inliers, {n_out} outliers) to {csv_path}"
    )
    return 0


def cmd_cluster(opts) -> int:
    from .cluster import fls_cluster
    from .datagen import DataSet, load_csv, save_csv
    from .landmarks import LandmarkConfig

    _require(opts, "in_path", "k", "d")
    config = LandmarkConfig(
        n_landmarks=int(opts["landmarks"]),
        flat_dim=int(opts["d"]),
        method=opts["method"],
        init_neighbors=None if opts["neighbors"] is None else int(opts["neighbors"]),
        max_scales=None if opts["scales"] is None else int(opts["scales"]),
        sigma=_sigma_value(opts["sigma"]),
        linear=bool(opts["linear"]),
    )
    n_clusters = int(opts["k"])
    if n_clusters < 1:
        raise UsageError(f"--k must be >= 1, got {n_clusters}")
    if int(opts["restarts"]) < 1:
        raise UsageError("--restarts must be >= 1")

    data = load_csv(opts["in_path"])
    result = fls_cluster(
        data,
        n_clusters,
        config,
        seed=opts["seed"],
        drop_first=bool(opts["drop_first"]),
        normalize_sphere=bool(opts["normalize_sphere"]),
        svd_path=opts["svd"],
        kmeans_restarts=int(opts["restarts"]),
    )
    payload = result.to_json()
    payload["config"] = {
        "k": n_clusters,
        "d": config.flat_dim,
        "landmarks": config.n_landmarks,
        "method": config.method,
        "sigma": result.sigma,
        "drop_first": bool(opts["drop_first"]),
        "normalize_sphere": bool(opts["normalize_sphere"]),
        "svd": opts["svd"],
        "restarts": int(opts["restarts"]),
        "seed": opts["seed"],
    }
    if opts["embedding_csv"]:
        save_csv(opts["embedding_csv"], DataSet(points=result.embedding))
    _emit(_dump_json(payload), opts["out"])
    return 0


def _load_suite(name):
    from .datagen import SyntheticModel
    from .evaluation import synthetic_suite

    if name == "synthetic5":
        return synthetic_suite(0.05)
    if name == "synthetic30":
        return synthetic_suite(0.30)
    try:
        with open(name, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise UsageError(f"unknown suite {name!r} and no such file: {exc}")
    except json.JSONDecodeError as exc:
        raise UsageError(f"suite file is not valid JSON: {exc}")
    if not isinstance(doc, list) or not doc:
        raise UsageError("suite file must hold a nonempty JSON list of models")
    models = []
    for entry in doc:
        try:
            models.append(
                SyntheticModel(
                    dims=tuple(entry["dims"]),
                    ambient=int(entry["ambient"]),
                    pts_per_subspace=int(entry.get("pts_per_subspace", 250)),
                    noise_sigma=float(entry.get("noise_sigma", 0.05)),
                    outlier_ratio=float(entry.get("outlier_ratio", 0.0)),
                )
            )
        except KeyError as exc:
            raise UsageError(f"suite model missing key {exc}")
    return models


def cmd_bench(opts) -> int:
    from .evaluation import benchmark_suite, format_benchmark_table

    models = _load_suite(opts["suite"])
    if int(opts["trials"]) < 0:
        raise UsageError("--trials must be >= 0")
    rows = benchmark_suite(
        models,
        n_trials=int(opts["trials"]),
        seed=opts["seed"],
        n_landmarks=int(opts["landmarks"]),
        method=opts["method"],
        flat_dim=None if opts["flat_dim"] is None else int(opts["flat_dim"]),
        sigma=_sigma_value(opts["sigma"]),
        drop_first=bool(opts["drop_first"]),
        normalize_sphere=bool(opts["normalize_sphere"]),
        linear=bool(opts["linear"]),
        svd_path=opts["svd"],
        kmeans_restarts=int(opts["restarts"]),
    )
    if opts["per_trial"]:
        # labels contain commas ("(2,2) in R^6"), so quote via csv
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["model", "trial", "rate", "time_s"])
        for row in rows:
            for t, (rate, secs) in enumerate(zip(row.rates, row.times)):
                writer.writerow([row.label, t, f"{rate:.6f}", f"{secs:.6f}"])
        with open(opts["per_trial"], "w", encoding="utf-8", newline="\n") as fh:
            fh.write(buf.getvalue())
    fmt = opts["format"]
    if fmt == "json":
        text = _dump_json(
            {"suite": opts["suite"], "trials": int(opts["trials"]), "models": [r.to_json() for r in rows]}
        )
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["model", "mean_rate", "mean_time_s"])
        for row in rows:
            writer.writerow([row.label, f"{row.mean_rate:.6f}", f"{row.mean_time_s:.6f}"])
        text = buf.getvalue()
    else:
        text = format_benchmark_table(rows) + "\n"
    _emit(text, opts["out"])
    return 0


def _verify_grid_data(opts):
    """Point grid plus kernel family for the verify kernel command."""
    from .datagen import SyntheticModel, gen_synthetic
    from .evaluation import FlatPoolFamily, LandmarkGaussianFamily, RffFamily
    from .landmarks import landmark_flat_pool
    from .rng import make_rng, split

    grid_seed, _ = split(opts["seed"], 2)
    m = int(opts["grid_points"])
    family_name = opts["family"]
    sigma = float(opts["sigma"])
    if family_name == "rff":
        points = make_rng(grid_seed).uniform(-1.0, 1.0, size=(m, int(opts["dim"])))
        return points, RffFamily(sigma=sigma, dim=int(opts["dim"]))
    model = SyntheticModel(dims=(2, 2), ambient=6, pts_per_subspace=max(2, m // 2))
    points = gen_synthetic(model, grid_seed).points
    if family_name == "landmark":
        return points, LandmarkGaussianFamily(data=points, sigma=sigma)
    pool = landmark_flat_pool(points, flat_dim=2)
    return points, FlatPoolFamily(flats=pool, sigma=sigma)


def cmd_verify_kernel(opts) -> int:
    from .evaluation import hoeffding_check, verify_kernel_convergence
    from .rng import split

    counts = _int_list(opts["counts"])
    points, family = _verify_grid_data(opts)
    conv_seed, tail_seed = split(opts["seed"], 3)[1:]
    records = verify_kernel_convergence(
        family,
        points,
        counts,
        reps=int(opts["reps"]),
        seed=conv_seed,
        ref_count=int(opts["ref_count"]),
    )
    payload = {
        "family": opts["family"],
        "decay": [
            {
                "count": r.count,
                "median_max_error": r.median_max_error,
                "mean_error": sum(r.rep_mean_errors) / len(r.rep_mean_errors),
                "ref_half_split_error": r.ref_half_split_error,
            }
            for r in records
        ],
    }
    lines = [f"{'count':>8}  {'median_max_err':>15}  {'mean_err':>12}"]
    for r in records:
        mean_err = sum(r.rep_mean_errors) / len(r.rep_mean_errors)
        lines.append(f"{r.count:>8}  {r.median_max_error:>15.6f}  {mean_err:>12.6f}")
    if opts["eps"] is not None:
        if opts["family"] != "rff":
            raise UsageError("--eps tail checks need the rff family (exact kernel)")
        import numpy as np

        x = np.zeros(int(opts["dim"]))
        y = np.zeros(int(opts["dim"]))
        y[0] = float(opts["sigma"])
        tail = hoeffding_check(
            family,
            x,
            y,
            counts,
            _float_list(opts["eps"]),
            reps=int(opts["hoeffding_reps"]),
            seed=tail_seed,
        )
        payload["tail"] = [
            {
                "count": t.count,
                "eps": t.eps,
                "empirical": t.empirical,
                "bound": t.bound,
                "stderr": t.stderr,
                "passed": t.passed,
            }
            for t in tail
        ]
        lines.append("")
        lines.append(f"{'count':>8}  {'eps':>5}  {'empirical':>10}  {'bound':>8}  ok")
        for t in tail:
            lines.append(
                f"{t.count:>8}  {t.eps:>5.2f}  {t.empirical:>10.4f}  {t.bound:>8.4f}  "
                f"{'yes' if t.passed else 'NO'}"
            )
    text = _dump_json(payload) if opts["format"] == "json" else "\n".join(lines) + "\n"
    _emit(text, opts["out"])
    return 0


def _two_cluster_points(opts, seed):
    from .datagen import SyntheticModel, gen_synthetic

    dims = _int_list(opts["dims"])
    model = SyntheticModel(
        dims=dims,
        ambient=int(opts["ambient"]),
        pts_per_subspace=max(2, int(opts["n"]) // len(dims)),
        noise_sigma=float(opts["noise"]),
    )
    return gen_synthetic(model, seed).points


def cmd_verify_perturbation(opts) -> int:
    from .evaluation import FlatPoolFamily, verify_perturbation
    from .landmarks import landmark_flat_pool
    from .rng import split

    rows = []
    for child in split(opts["seed"], int(opts["repeats"])):
        data_seed, ref_seed, test_seed = split(child, 3)
        points = _two_cluster_points(opts, data_seed)
        pool = landmark_flat_pool(points, flat_dim=int(opts["flat_dim"]))
        family = FlatPoolFamily(flats=pool, sigma=float(opts["sigma"]))
        record = verify_perturbation(
            points,
            family.sample(int(opts["count"]), test_seed),
            family.sample(int(opts["ref_count"]), ref_seed),
        )
        rows.append(record)
    payload = [
        {
            "n": r.n,
            "count": r.test_count,
            "ref_count": r.ref_count,
            "min_entry": r.min_entry,
            "max_entry": r.max_entry,
            "delta": r.delta,
            "norms": [r.left_degree_norm, r.kernel_diff_norm, r.right_degree_norm],
            "bounds": [r.left_degree_bound, r.kernel_diff_bound, r.right_degree_bound],
            "total_norm": r.total_norm,
            "bounds_hold": r.bounds_hold,
        }
        for r in rows
    ]
    lines = [f"{'delta':>8}  {'norms (left/mid/right)':>28}  {'bounds':>28}  ok"]
    for r in rows:
        norms = f"{r.left_degree_norm:.4f}/{r.kernel_diff_norm:.4f}/{r.right_degree_norm:.4f}"
        bounds = f"{r.left_degree_bound:.4f}/{r.kernel_diff_bound:.4f}/{r.right_degree_bound:.4f}"
        lines.append(
            f"{r.delta:>8.4f}  {norms:>28}  {bounds:>28}  {'yes' if r.bounds_hold else 'NO'}"
        )
    text = _dump_json(payload) if opts["format"] == "json" else "\n".join(lines) + "\n"
    _emit(text, opts["out"])
    return 0


def cmd_verify_eigvec(opts) -> int:
    from .evaluation import FlatPoolFamily, verify_eigvec_convergence
    from .landmarks import landmark_flat_pool
    from .rng import split

    counts = _int_list(opts["counts"])
    payload = []
    for child in split(opts["seed"], int(opts["repeats"])):
        data_seed, verify_seed = split(child, 2)
        points = _two_cluster_points(opts, data_seed)
        pool = landmark_flat_pool(points, flat_dim=int(opts["flat_dim"]))
        family = FlatPoolFamily(flats=pool, sigma=float(opts["sigma"]))
        records = verify_eigvec_convergence(
            points,
            family,
            counts,
            ref_count=int(opts["ref_count"]),
            n_clusters=int(opts["k"]),
            seed=verify_seed,
        )
        payload.append(
            [
                {"count": r.count, "eigvec_l2_error": r.eigvec_l2_error, "eigengap": r.eigengap}
                for r in records
            ]
        )
    lines = [f"{'count':>8}  {'eigvec_l2_error':>16}  {'eigengap':>10}"]
    for records in payload:
        for r in records:
            lines.append(
                f"{r['count']:>8}  {r['eigvec_l2_error']:>16.6f}  {r['eigengap']:>10.4f}"
            )
    text = _dump_json(payload) if opts["format"] == "json" else "\n".join(lines) + "\n"
    _emit(text, opts["out"])
    return 0


def cmd_verify_rotation(opts) -> int:
    from .evaluation import verify_rotation_invariance

    records, fraction = verify_rotation_invariance(
        dim=int(opts["dim"]),
        flat_dim=int(opts["flat_dim"]),
        n_pairs=int(opts["pairs"]),
        count=int(opts["count"]),
        seed=opts["seed"],
        sigma=float(opts["sigma"]),
        pair_distance=float(opts["distance"]),
    )
    payload = {
        "fraction_within": fraction,
        "pairs": [
            {
                "estimate": r.estimate,
                "rotated_estimate": r.rotated_estimate,
                "stderr": r.stderr,
                "rotated_stderr": r.rotated_stderr,
                "within": r.within,
            }
            for r in records
        ],
    }
    if opts["format"] == "json":
        text = _dump_json(payload)
    else:
        text = f"fraction of pairs within 3 SE: {fraction:.3f} ({len(records)} pairs)\n"
    _emit(text, opts["out"])
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        _set_threads_env(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0

    from .errors import FLSError, InvalidParam

    try:
        opts = _merged_options(args)
        return args.func(opts)
    except (UsageError, InvalidParam) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FLSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
