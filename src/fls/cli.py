"""Command line interface: gen / cluster / bench / verify.

Every option of every command is declared once, in ``_COMMANDS`` at the
end of this module: its flag, value parser, default, whether it is
required, and its help.  That table builds the argparse subcommands, and
it defines the ``--config`` keys: a JSON --config file may set any option
by its flag name without the dashes (``--drop-first`` -> ``drop_first``,
``--in`` -> ``in``), and each value goes through that option's own parser,
so a config value is checked exactly like the flag would be.  Explicit
flags override the config, unknown keys are rejected, and a required
option set by neither is reported by its flag.  Booleans are spelled
``--X`` / ``--no-X`` on the command line and true / false in a config.

Every command takes --seed (env FLS_SEED) and is reproducible
byte-for-byte for identical flags and seed, except for wall-clock values,
which are isolated under "timings" keys.  --threads (env FLS_THREADS)
caps the BLAS worker pools; it is applied through environment variables
before numpy loads, which is why this module, its value parsers and the
package __init__ import the numerical modules lazily.

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
from dataclasses import asdict, dataclass
from typing import Callable

class UsageError(Exception):
    pass


def _list_of(kind):
    def parse(text):
        try:
            return tuple(kind(f) for f in text.split(","))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {kind.__name__} values, got {text!r}"
            )

    return parse


_int_list = _list_of(int)
_float_list = _list_of(float)


def _positive_int(text):
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _sigma_value(text):
    if text == "auto":
        return None
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number or 'auto', got {text!r}")


@dataclass(frozen=True)
class Option:
    """One command-line option.

    ``parse`` is a function from the flag's text to its value, a tuple of
    the allowed strings, or ``bool`` for a --X / --no-X switch.
    """

    flag: str
    parse: Callable | tuple
    default: object = None
    help: str = ""
    required: bool = False
    env: str | None = None

    @property
    def key(self) -> str:
        return self.flag[2:].replace("-", "_")


def _flag_text(value):
    """A JSON config value as it would be typed after its flag."""
    if isinstance(value, str):
        return value
    if isinstance(value, list):
        return ",".join(_flag_text(v) for v in value)
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return json.dumps(value)
    raise ValueError("expected a string, a number or a list of them")


def _parse_value(opt, value, source):
    """Parse a config or environment value with ``opt``'s own parser."""
    try:
        if opt.parse is bool:
            if isinstance(value, bool):
                return value
            raise ValueError("expected true or false")
        text = _flag_text(value)
        if isinstance(opt.parse, tuple):
            if text in opt.parse:
                return text
            raise ValueError(f"expected one of {', '.join(opt.parse)}")
        return opt.parse(text)
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise UsageError(f"{source} sets {opt.flag} to {value!r}: {exc}")


def _add_option(parser, opt):
    shown = opt.default
    if isinstance(shown, tuple):
        shown = ",".join(map(str, shown))
    elif isinstance(shown, bool):
        shown = "on" if shown else "off"
    note = "required" if opt.required else None if shown is None else f"default: {shown}"
    help_text = f"{opt.help} ({note})" if note else opt.help
    # no argparse default: an option is in the namespace only when its flag was given
    kwargs = dict(dest=opt.key, default=argparse.SUPPRESS, help=help_text)
    if opt.parse is bool:
        parser.add_argument(opt.flag, action=argparse.BooleanOptionalAction, **kwargs)
    elif isinstance(opt.parse, tuple):
        parser.add_argument(opt.flag, choices=opt.parse, **kwargs)
    else:
        parser.add_argument(opt.flag, type=opt.parse, **kwargs)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="fls",
        description="Randomized kernel embeddings and landmark subspace clustering.",
    )
    subs = {"": parser.add_subparsers(dest="command", required=True)}
    for name, command in _COMMANDS.items():
        group, _, leaf = name.rpartition(" ")
        if group not in subs:
            subs[group] = (
                subs[""]
                .add_parser(group, help="numerical verification checks")
                .add_subparsers(dest=f"{group}_command", required=True)
            )
        p = subs[group].add_parser(leaf, help=command.help)
        for opt in command.options:
            _add_option(p, opt)
        p.add_argument("--config", help="JSON file of option values by flag name")
        p.set_defaults(command_spec=command)
    return parser


def _read_config(path):
    if not path:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}")
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise UsageError("config file must hold a JSON object")
    return doc


def _resolve_options(args):
    """Each option's value: the flag, else the config, else its env variable, else the default."""
    options = args.command_spec.options
    flags = vars(args)
    config = _read_config(args.config)
    unknown = sorted(set(config) - {opt.key for opt in options})
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(unknown)}")
    resolved = {}
    for opt in options:
        if opt.key in flags:
            value = flags[opt.key]
        elif opt.key in config:
            value = _parse_value(opt, config[opt.key], f"config key {opt.key!r}")
        elif opt.env and opt.env in os.environ:
            value = _parse_value(opt, os.environ[opt.env], opt.env)
        elif opt.required:
            raise UsageError(f"{opt.flag} is required")
        else:
            value = opt.default
        resolved[opt.key] = value
    return resolved


def _set_threads_env(threads):
    if threads is not None:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = str(threads)


def _dump_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_gen(opts) -> int:
    from .datagen import SyntheticModel, gen_synthetic, save_csv

    model = SyntheticModel(
        dims=opts["dims"],
        ambient=opts["ambient"],
        pts_per_subspace=opts["pts"],
        noise_sigma=opts["noise"],
        outlier_ratio=opts["outliers"],
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

    config = LandmarkConfig(
        n_landmarks=opts["landmarks"],
        flat_dim=opts["d"],
        method=opts["method"],
        init_neighbors=opts["neighbors"],
        max_scales=opts["scales"],
        sigma=opts["sigma"],
        linear=opts["linear"],
    )
    data = load_csv(opts["in"])
    result = fls_cluster(
        data,
        opts["k"],
        config,
        seed=opts["seed"],
        drop_first=opts["drop_first"],
        normalize_sphere=opts["normalize_sphere"],
        kmeans_restarts=opts["restarts"],
    )
    neighbors, scales = result.ladder
    payload = result.to_json()
    # the options that shaped the run, with the values it resolved: fed
    # back as --config with the same --in, this block repeats the run
    io_keys = ("in", "out", "embedding_csv", "threads")
    payload["config"] = {key: value for key, value in opts.items() if key not in io_keys} | {
        "sigma": result.sigma,
        "neighbors": neighbors,
        "scales": scales,
    }
    if opts["embedding_csv"]:
        save_csv(opts["embedding_csv"], DataSet(points=result.embedding))
    _emit(_dump_json(payload), opts["out"])
    return 0


def _load_suite(name):
    from .datagen import SyntheticModel
    from .errors import InvalidParam
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
    for i, entry in enumerate(doc):
        try:
            models.append(SyntheticModel(**entry))
        except (TypeError, InvalidParam) as exc:
            raise UsageError(f"suite model {i} is malformed: {exc}")
    return models


def cmd_bench(opts) -> int:
    from .evaluation import benchmark_suite, format_benchmark_table

    models = _load_suite(opts["suite"])
    rows = benchmark_suite(
        models,
        n_trials=opts["trials"],
        seed=opts["seed"],
        n_landmarks=opts["landmarks"],
        method=opts["method"],
        flat_dim=opts["flat_dim"],
        sigma=opts["sigma"],
        drop_first=opts["drop_first"],
        normalize_sphere=opts["normalize_sphere"],
        linear=opts["linear"],
        kmeans_restarts=opts["restarts"],
    )
    if opts["per_trial"]:
        # labels contain commas ("(2,2) in R^6"), so quote via csv
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["model", "trial", "rate", "time_s", "failure"])
        for row in rows:
            failed = {f.trial: f for f in row.failures}
            done = iter(zip(row.rates, row.times))
            for t in range(len(row.rates) + len(failed)):
                if t in failed:
                    f = failed[t]
                    writer.writerow([row.label, t, "", "", f"stage '{f.stage}': {f.message}"])
                else:
                    rate, secs = next(done)
                    writer.writerow([row.label, t, f"{rate:.6f}", f"{secs:.6f}", ""])
        with open(opts["per_trial"], "w", encoding="utf-8", newline="\n") as fh:
            fh.write(buf.getvalue())
    fmt = opts["format"]
    if fmt == "json":
        text = _dump_json(
            {"suite": opts["suite"], "trials": opts["trials"], "models": [r.to_json() for r in rows]}
        )
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["model", "mean_rate", "mean_time_s", "failed"])
        for row in rows:
            writer.writerow(
                [row.label, f"{row.mean_rate:.6f}", f"{row.mean_time_s:.6f}", len(row.failures)]
            )
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
    m = opts["grid_points"]
    family_name = opts["family"]
    sigma = opts["sigma"]
    if family_name == "rff":
        points = make_rng(grid_seed).uniform(-1.0, 1.0, size=(m, opts["dim"]))
        return points, RffFamily(sigma=sigma, dim=opts["dim"])
    model = SyntheticModel(dims=(2, 2), ambient=6, pts_per_subspace=max(2, m // 2))
    points = gen_synthetic(model, grid_seed).points
    if family_name == "landmark":
        return points, LandmarkGaussianFamily(data=points, sigma=sigma)
    pool = landmark_flat_pool(points, flat_dim=2)
    return points, FlatPoolFamily(flats=pool, sigma=sigma)


def cmd_verify_kernel(opts) -> int:
    from .evaluation import hoeffding_check, verify_kernel_convergence
    from .rng import split

    if opts["eps"] is not None and opts["family"] != "rff":
        raise UsageError(
            "--eps tail checks need the rff family: their bound is the random Fourier one"
        )
    counts = opts["counts"]
    points, family = _verify_grid_data(opts)
    conv_seed, tail_seed = split(opts["seed"], 3)[1:]
    records = verify_kernel_convergence(family, points, counts, reps=opts["reps"], seed=conv_seed)
    payload = {"family": opts["family"], "decay": [asdict(r) for r in records]}
    lines = [f"{'count':>8}  {'median_max_err':>15}  {'mean_err':>12}"]
    for r in records:
        mean_err = sum(r.rep_mean_errors) / len(r.rep_mean_errors)
        lines.append(f"{r.count:>8}  {r.median_max_error:>15.6f}  {mean_err:>12.6f}")
    if opts["eps"] is not None:
        import numpy as np

        x = np.zeros(opts["dim"])
        y = np.zeros(opts["dim"])
        y[0] = opts["sigma"]
        tail = hoeffding_check(
            family, x, y, counts, opts["eps"], reps=opts["hoeffding_reps"], seed=tail_seed
        )
        payload["tail"] = [asdict(t) for t in tail]
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

    dims = opts["dims"]
    model = SyntheticModel(
        dims=dims,
        ambient=opts["ambient"],
        pts_per_subspace=max(2, opts["n"] // len(dims)),
        noise_sigma=opts["noise"],
    )
    return gen_synthetic(model, seed).points


def cmd_verify_perturbation(opts) -> int:
    from .evaluation import FlatPoolFamily, verify_perturbation
    from .landmarks import landmark_flat_pool
    from .rng import split

    rows = []
    for child in split(opts["seed"], opts["repeats"]):
        data_seed, ref_seed, test_seed = split(child, 3)
        points = _two_cluster_points(opts, data_seed)
        pool = landmark_flat_pool(points, flat_dim=opts["flat_dim"])
        family = FlatPoolFamily(flats=pool, sigma=opts["sigma"])
        record = verify_perturbation(
            points,
            family.sample(opts["count"], test_seed),
            family.sample(opts["ref_count"], ref_seed),
        )
        rows.append(record)
    lines = [f"{'delta':>8}  {'norms (left/mid/right)':>28}  {'bounds':>28}  ok"]
    for r in rows:
        norms = f"{r.left_degree_norm:.4f}/{r.kernel_diff_norm:.4f}/{r.right_degree_norm:.4f}"
        bounds = f"{r.left_degree_bound:.4f}/{r.kernel_diff_bound:.4f}/{r.right_degree_bound:.4f}"
        lines.append(
            f"{r.delta:>8.4f}  {norms:>28}  {bounds:>28}  {'yes' if r.bounds_hold else 'NO'}"
        )
    if opts["format"] == "json":
        text = _dump_json([asdict(r) for r in rows])
    else:
        text = "\n".join(lines) + "\n"
    _emit(text, opts["out"])
    return 0


def cmd_verify_eigvec(opts) -> int:
    from .evaluation import FlatPoolFamily, verify_eigvec_convergence
    from .landmarks import landmark_flat_pool
    from .rng import split

    repeats = []
    for child in split(opts["seed"], opts["repeats"]):
        data_seed, verify_seed = split(child, 2)
        points = _two_cluster_points(opts, data_seed)
        pool = landmark_flat_pool(points, flat_dim=opts["flat_dim"])
        family = FlatPoolFamily(flats=pool, sigma=opts["sigma"])
        repeats.append(
            verify_eigvec_convergence(
                points,
                family,
                opts["counts"],
                ref_count=opts["ref_count"],
                n_clusters=opts["k"],
                seed=verify_seed,
            )
        )
    lines = [f"{'count':>8}  {'eigvec_l2_error':>16}  {'eigengap':>10}"]
    for records in repeats:
        for r in records:
            lines.append(f"{r.count:>8}  {r.eigvec_l2_error:>16.6f}  {r.eigengap:>10.4f}")
    if opts["format"] == "json":
        text = _dump_json([[asdict(r) for r in records] for records in repeats])
    else:
        text = "\n".join(lines) + "\n"
    _emit(text, opts["out"])
    return 0


def cmd_verify_rotation(opts) -> int:
    from .evaluation import verify_rotation_invariance

    records, fraction = verify_rotation_invariance(
        dim=opts["dim"],
        flat_dim=opts["flat_dim"],
        n_pairs=opts["pairs"],
        count=opts["count"],
        seed=opts["seed"],
        sigma=opts["sigma"],
        pair_distance=opts["distance"],
    )
    if opts["format"] == "json":
        text = _dump_json({"fraction_within": fraction, "pairs": [asdict(r) for r in records]})
    else:
        text = f"fraction of pairs within 3 SE: {fraction:.3f} ({len(records)} pairs)\n"
    _emit(text, opts["out"])
    return 0


@dataclass(frozen=True)
class Command:
    run: Callable
    help: str
    options: tuple


_COMMON = (
    Option("--seed", int, 0, "random seed, else env FLS_SEED", env="FLS_SEED"),
    Option(
        "--threads", _positive_int, None, "BLAS thread cap, else env FLS_THREADS", env="FLS_THREADS"
    ),
)
# the reference configuration: the defaults of cluster and bench, and of
# LandmarkConfig, fls_cluster and benchmark_suite (a test binds them)
_REFERENCE = (
    Option("--landmarks", int, 100, "number of landmarks"),
    Option("--method", ("random", "kmeans"), "kmeans", "landmark selection"),
    Option("--sigma", _sigma_value, 0.3, "bandwidth, or 'auto' for the median rule"),
    Option("--linear", bool, True, "fit linear flats through the origin"),
    Option("--drop-first", bool, True, "drop the top singular vector; needs 2+ clusters"),
    Option("--normalize-sphere", bool, True, "project points to the unit sphere"),
    Option(
        "--restarts", _positive_int, 3, "k-means restarts, on at most max(4096, 20 k) sampled rows"
    ),
)
_VERIFY_FORMAT = Option("--format", ("table", "json"), "table", "report format")
_VERIFY_OUT = Option("--out", str, None, "write the report here instead of stdout")
_TWO_CLUSTER = (
    Option("--n", int, 300, "number of points"),
    Option("--dims", _int_list, (2, 2), "subspace dims"),
    Option("--ambient", int, 6, "ambient dimension"),
    Option("--noise", float, 0.05, "noise standard deviation"),
    Option("--ref-count", int, 50000, "reference feature count"),
    Option("--sigma", float, 1.5, "kernel bandwidth"),
    Option("--flat-dim", int, 2, "flat dimension"),
    Option("--repeats", int, 1, "independent datasets"),
)

# (command, option) table; a command nested under "verify" is named "verify <name>"
_COMMANDS = {
    "gen": Command(
        cmd_gen,
        "generate synthetic union-of-subspaces data",
        (
            Option("--dims", _int_list, None, "subspace dims, e.g. 2,2", required=True),
            Option("--ambient", int, None, "ambient dimension", required=True),
            Option("--pts", int, 250, "points per subspace"),
            Option("--noise", float, 0.05, "noise standard deviation"),
            Option("--outliers", float, 0.0, "outlier ratio"),
            Option("--out", str, None, "output directory", required=True),
        )
        + _COMMON,
    ),
    "cluster": Command(
        cmd_cluster,
        "cluster a CSV of points",
        (
            Option("--in", str, None, "input points CSV", required=True),
            Option("--k", _positive_int, None, "number of clusters", required=True),
            Option("--d", int, None, "flat dimension", required=True),
            Option("--neighbors", int, None, "smallest neighbourhood size"),
            Option("--scales", int, None, "number of neighbourhood sizes"),
            Option("--out", str, None, "result JSON path (default: stdout)"),
            Option("--embedding-csv", str, None, "save the spectral embedding rows here"),
        )
        + _REFERENCE
        + _COMMON,
    ),
    "bench": Command(
        cmd_bench,
        "run a benchmark suite",
        (
            Option("--suite", str, "synthetic5", "synthetic5 | synthetic30 | JSON file"),
            Option("--trials", int, 10, "trials per model"),
            Option("--flat-dim", int, None, "flat dimension (default: largest model dim)"),
            Option("--format", ("table", "json", "csv"), "table", "report format"),
            Option("--out", str, None, "write the report here instead of stdout"),
            Option("--per-trial", str, None, "per-trial CSV"),
        )
        + _REFERENCE
        + _COMMON,
    ),
    "verify kernel": Command(
        cmd_verify_kernel,
        "kernel approximation error decay",
        (
            Option("--family", ("rff", "subspace", "landmark"), "rff", "kernel family"),
            Option("--sigma", float, 1.0, "kernel bandwidth"),
            Option("--dim", int, 5, "point dimension (rff)"),
            Option("--grid-points", int, 100, "points in the pair grid"),
            Option("--counts", _int_list, (250, 1000, 4000), "feature counts"),
            Option("--reps", int, 10, "specs drawn per count"),
            Option("--eps", _float_list, None, "tail thresholds, e.g. 0.1,0.2"),
            Option("--hoeffding-reps", int, 200, "specs drawn per tail check"),
            _VERIFY_FORMAT,
            _VERIFY_OUT,
        )
        + _COMMON,
    ),
    "verify perturbation": Command(
        cmd_verify_perturbation,
        "normalized-matrix perturbation bounds",
        _TWO_CLUSTER
        + (Option("--count", int, 400, "test feature count"), _VERIFY_FORMAT, _VERIFY_OUT)
        + _COMMON,
    ),
    "verify eigvec": Command(
        cmd_verify_eigvec,
        "second-eigenvector stability",
        _TWO_CLUSTER
        + (
            Option("--counts", _int_list, (100, 400, 1600), "test feature counts"),
            Option("--k", int, 2, "number of clusters"),
            _VERIFY_FORMAT,
            _VERIFY_OUT,
        )
        + _COMMON,
    ),
    "verify rotation": Command(
        cmd_verify_rotation,
        "rotation invariance of the uniform-flat kernel",
        (
            Option("--dim", int, 3, "ambient dimension"),
            Option("--flat-dim", int, 1, "flat dimension"),
            Option("--pairs", int, 100, "point pairs"),
            Option("--count", int, 100000, "flats per estimate"),
            Option("--sigma", float, 1.0, "kernel bandwidth"),
            Option("--distance", float, 1.0, "distance within each pair"),
            _VERIFY_FORMAT,
            _VERIFY_OUT,
        )
        + _COMMON,
    ),
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0

    from .errors import FLSError, InvalidParam

    try:
        opts = _resolve_options(args)
        _set_threads_env(opts["threads"])
        return args.command_spec.run(opts)
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
