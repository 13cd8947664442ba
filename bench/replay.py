"""Stage-by-stage replay of ``fls.fls_cluster`` with a span around each layer call.

The replay calls the same public functions as ``fls_cluster``, in the
same order, with the same ``rng.split(seed, 4)`` streams, so it yields
the same labels; the benchmark checks that it does.  It also returns the
work counts of the landmark layer and the final k-means inertia.
"""

from __future__ import annotations

from fls.cluster import ClusterResult, spectral_embed
from fls.datagen import sphere_normalize
from fls.kernels import SubspaceKernel, embed
from fls.landmarks import best_fit_flat, default_sigma, select_landmarks
from fls.linalg import kmeans
from fls.rng import split

# k-means restarts of the README reference configuration, which every
# workload uses: linear flats, drop-first and sphere normalization too
RESTARTS = 3


def neighborhood_rows(n: int, init_neighbors: int, max_scales: int) -> int:
    """Rows fitted by one ``best_fit_flat`` call: its distinct ladder sizes, summed."""
    return sum({min(int(round(init_neighbors * 2**j)), n) for j in range(max_scales)})


def replay_fls_cluster(points, settings, seed, tracer):
    """``fls_cluster(points, settings.k, settings.config(), seed, drop_first=True,
    normalize_sphere=True, kmeans_restarts=RESTARTS)``, traced.

    Returns (ClusterResult, counts).  Stage timings are left empty: the
    spans hold them.
    """
    config = settings.config()
    with tracer.span("fls_cluster"):
        with tracer.span("datagen.sphere_normalize"):
            pts = sphere_normalize(points)
        select_seed, sigma_seed, svd_seed, kmeans_seed = split(seed, 4)
        n = pts.shape[0]
        init_neighbors, max_scales = config.resolve_scales(n)
        with tracer.span("landmarks.select_landmarks"):
            centers = select_landmarks(pts, config.n_landmarks, config.method, select_seed)
        flats = []
        with tracer.span("landmarks.flats"):
            for center in centers:
                with tracer.span("landmarks.best_fit_flat"):
                    flats.append(
                        best_fit_flat(
                            pts,
                            center,
                            config.flat_dim,
                            max_scales,
                            init_neighbors,
                            linear=config.linear,
                        )
                    )
        # spans the sigma step even when sigma is given and nothing is called
        with tracer.span("landmarks.default_sigma"):
            sigma = config.sigma
            if sigma is None:
                sigma = default_sigma(pts, flats, seed=sigma_seed)
        spec = SubspaceKernel(sigma=sigma, flats=tuple(flats))
        with tracer.span("kernels.embed", memory=True):
            embedding = embed(spec, pts)
        with tracer.span("cluster.spectral_embed", memory=True):
            rows, svals = spectral_embed(
                embedding,
                settings.k,
                drop_first=True,
                svd_path="gram",
                seed=svd_seed,
            )
        with tracer.span("linalg.kmeans"):
            labels, _, inertia = kmeans(
                rows, settings.k, seed=kmeans_seed, restarts=RESTARTS
            )
    counts = {
        "flat_calls": len(centers),
        "scales": max_scales,
        "neighborhood_rows": len(centers) * neighborhood_rows(n, init_neighbors, max_scales),
        "embed_bytes": embedding.data.nbytes,
        "inertia": float(inertia),
    }
    return ClusterResult(labels=labels, embedding=rows, singular_values=svals), counts
