"""The benchmark's workloads: generated inputs, the timed unit and its output checks.

Each workload is a list of calls.  A call is one generated synthetic
dataset plus the pipeline settings fls is run with.  An ``api`` unit
calls ``fls.fls_cluster`` once per call, on the points.  A ``cli`` unit
calls ``fls.cli.main(["cluster", ...])`` once, on the CSV of one
dataset, and successive units take the datasets in turn.  Either way the
program sees only the points, never the ground-truth labels.
Every workload uses linear flats, drop-first, sphere normalization and
3 k-means restarts (the README reference configuration); only the
``Settings`` fields differ between workloads.
NOTES.md says why each workload was chosen.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass

import numpy as np

from fls.cli import main as fls_main
from fls.cluster import fls_cluster
from fls.datagen import DataSet, SyntheticModel, gen_synthetic, load_csv, save_csv
from fls.evaluation import clustering_rate, synthetic_suite
from fls.landmarks import LandmarkConfig

from replay import RESTARTS, replay_fls_cluster

SIZES = ("full", "smoke")


@dataclass(frozen=True)
class Settings:
    """Pipeline settings, given to fls either as a LandmarkConfig or as CLI flags."""

    k: int
    d: int
    landmarks: int
    method: str
    sigma: float | None

    def config(self) -> LandmarkConfig:
        return LandmarkConfig(
            n_landmarks=self.landmarks,
            flat_dim=self.d,
            method=self.method,
            sigma=self.sigma,
            linear=True,
        )

    def cli_flags(self) -> list:
        return [
            "--k", str(self.k),
            "--d", str(self.d),
            "--landmarks", str(self.landmarks),
            "--method", self.method,
            "--sigma", "auto" if self.sigma is None else repr(self.sigma),
            "--restarts", str(RESTARTS),
            "--linear",
            "--drop-first",
            "--normalize-sphere",
        ]


@dataclass(frozen=True)
class Call:
    model: SyntheticModel
    settings: Settings
    gen_seed: int
    fit_seed: int


@dataclass(frozen=True)
class Workload:
    name: str
    entry: str  # "api" or "cli"
    calls: tuple

    def unit_calls(self, k: int) -> list:
        """Indices of the calls unit ``k`` makes."""
        if self.entry == "api":
            return list(range(len(self.calls)))
        return [k % len(self.calls)]

    @property
    def round_units(self) -> int:
        """Units in one round, which makes every call once."""
        return 1 if self.entry == "api" else len(self.calls)

    @property
    def n(self) -> int:
        """Points clustered per unit."""
        return sum(_n_points(self.calls[i].model) for i in self.unit_calls(0))

    @property
    def n_features(self) -> int:
        """D, the number of landmark flats, of the largest call."""
        return max(c.settings.landmarks for c in self.calls)


def _n_points(model: SyntheticModel) -> int:
    n_in = model.pts_per_subspace * model.n_clusters
    return n_in + int(np.floor(model.outlier_ratio * n_in + 0.5))


def _seeds(seed: int, count: int) -> list:
    """``count`` (gen_seed, fit_seed) integer pairs derived from the workload seed."""
    state = np.random.SeedSequence(seed).generate_state(2 * count)
    return [(int(state[2 * i]), int(state[2 * i + 1])) for i in range(count)]


def _subspace_ref(size, seed):
    models = synthetic_suite(0.30)
    landmarks = 100
    if size == "smoke":
        models = [dataclasses.replace(m, pts_per_subspace=40) for m in models]
        landmarks = 20
    calls = [
        Call(
            model=m,
            settings=Settings(
                k=m.n_clusters, d=max(m.dims), landmarks=landmarks, method="kmeans", sigma=0.3
            ),
            gen_seed=g,
            fit_seed=f,
        )
        for m, (g, f) in zip(models, _seeds(seed, len(models)))
    ]
    return Workload("subspace-ref", "api", tuple(calls))


def _five_planes(name, size, seed, pts, method, sigma, datasets):
    landmarks = 400
    if size == "smoke":
        pts, landmarks = pts // 100, 40
    model = SyntheticModel(
        dims=(2,) * 5, ambient=10, pts_per_subspace=pts, noise_sigma=0.05, outlier_ratio=0.05
    )
    settings = Settings(k=5, d=2, landmarks=landmarks, method=method, sigma=sigma)
    calls = tuple(Call(model, settings, g, f) for g, f in _seeds(seed, datasets))
    return Workload(name, "cli", calls)


def make(name: str, size: str, seed: int) -> Workload:
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}")
    if name == "subspace-ref":
        return _subspace_ref(size, seed)
    if name == "large-n":
        return _five_planes(name, size, seed, 20_000, "random", 0.5, datasets=4)
    if name == "kmeans-landmarks":
        return _five_planes(name, size, seed, 6_000, "kmeans", None, datasets=4)
    raise ValueError(f"unknown workload {name!r}")


def check_output(labels, svals, n: int, k: int) -> list:
    """Problems with one call's output; empty when it is well formed."""
    problems = []
    labels = np.asarray(labels)
    if labels.shape != (n,):
        problems.append(f"expected {n} labels, got shape {labels.shape}")
    elif not np.issubdtype(labels.dtype, np.integer):
        problems.append(f"labels have dtype {labels.dtype}")
    elif n and (labels.min() < 0 or labels.max() >= k):
        problems.append(f"labels outside [0, {k})")
    svals = np.asarray(svals, dtype=float)
    if svals.ndim != 1 or svals.size == 0:
        problems.append("no singular values")
    elif not np.all(np.isfinite(svals)):
        problems.append("non-finite singular values")
    elif np.any(np.diff(svals) > 0):
        problems.append("singular values not in descending order")
    return problems


@dataclass
class Outcome:
    """Checked result of one call."""

    labels: np.ndarray | None
    problems: list
    rate: float | None = None
    stage_s: float = 0.0  # sum of the stage timings the program reported


class Runner:
    """Holds one workload's generated inputs and runs its units.

    ``setup`` generates the data; a ``cli`` workload also writes each
    call's points to CSV, and an ``api`` workload hands fls the array.
    ``run_unit`` is the untraced unit the end-to-end metrics time;
    ``replay_unit`` is its traced counterpart.
    """

    def __init__(self, workload: Workload, workdir: str, tracer):
        self.workload = workload
        self.workdir = workdir
        self.tracer = tracer
        self.truth = {}
        self.csv_paths = {}

    def _path(self, i, ext):
        return os.path.join(self.workdir, f"{self.workload.name}-{i}.{ext}")

    def setup(self, k: int) -> None:
        """Generate the points of unit ``k``'s calls (``cli``: and write their CSVs)."""
        span = self.tracer.span
        for i in self.workload.unit_calls(k):
            call = self.workload.calls[i]
            with span("datagen.gen_synthetic"):
                self.truth[i] = gen_synthetic(call.model, seed=call.gen_seed)
            if self.workload.entry == "cli":
                self.csv_paths[i] = self._path(i, "csv")
                with span("datagen.save_csv"):
                    save_csv(self.csv_paths[i], DataSet(points=self.truth[i].points))

    def _cli_argv(self, i, call):
        return [
            "cluster",
            "--in", self.csv_paths[i],
            "--out", self._path(i, "json"),
            "--seed", str(call.fit_seed),
            *call.settings.cli_flags(),
        ]

    def run_unit(self, k: int) -> list:
        """Untraced unit ``k``.  Returns the raw output of each of its calls."""
        raw = []
        for i in self.workload.unit_calls(k):
            call = self.workload.calls[i]
            s = call.settings
            try:
                if self.workload.entry == "api":
                    raw.append(
                        fls_cluster(
                            self.truth[i].points,
                            s.k,
                            s.config(),
                            seed=call.fit_seed,
                            drop_first=True,
                            normalize_sphere=True,
                            kmeans_restarts=RESTARTS,
                        )
                    )
                else:
                    raw.append(fls_main(self._cli_argv(i, call)))
            except Exception as exc:  # counted as a failed call, never retried
                raw.append(exc)
        return raw

    def check_unit(self, k: int, raw) -> list:
        """Outcome per call of untraced unit ``k``."""
        outcomes = []
        for i, out in zip(self.workload.unit_calls(k), raw):
            call = self.workload.calls[i]
            if isinstance(out, Exception):
                outcomes.append(Outcome(None, [f"raised {type(out).__name__}: {out}"]))
                continue
            if self.workload.entry == "api":
                labels, svals, timings = out.labels, out.singular_values, out.timings
            else:
                if out != 0:
                    outcomes.append(Outcome(None, [f"fls cluster exited with code {out}"]))
                    continue
                with open(self._path(i, "json"), encoding="utf-8") as fh:
                    doc = json.load(fh)
                labels = np.asarray(doc["labels"])
                svals, timings = doc["singular_values"], doc["timings"]
            outcome = self._outcome(i, call, labels, svals)
            outcome.stage_s = sum(timings.values())
            outcomes.append(outcome)
        return outcomes

    def _outcome(self, i, call, labels, svals):
        truth = self.truth[i]
        problems = check_output(labels, svals, truth.n, call.settings.k)
        rate = None
        if not problems:
            rate = clustering_rate(labels, truth.labels, truth.outlier_mask).rate
        return Outcome(np.asarray(labels), problems, rate)

    def replay_unit(self, k: int):
        """Traced unit ``k``.  Returns (outcome, counts) per call."""
        span = self.tracer.span
        out = []
        with span("unit"):
            for i in self.workload.unit_calls(k):
                call = self.workload.calls[i]
                try:
                    if self.workload.entry == "api":
                        points = self.truth[i].points
                    else:
                        with span("datagen.load_csv"):
                            points = load_csv(self.csv_paths[i]).points
                    result, counts = replay_fls_cluster(
                        points, call.settings, call.fit_seed, self.tracer
                    )
                    if self.workload.entry == "cli":
                        # the JSON the CLI writes, so traced and untraced units do the same work
                        with span("cli.write_json"):
                            payload = result.to_json()
                            payload["config"] = call.settings.cli_flags()
                            with open(self._path(i, "json"), "w", encoding="utf-8") as fh:
                                fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
                except Exception as exc:  # counted as a failed call, never retried
                    out.append((Outcome(None, [f"replay raised {type(exc).__name__}: {exc}"]), {}))
                    continue
                out.append(
                    (self._outcome(i, call, result.labels, result.singular_values), counts)
                )
        return out
