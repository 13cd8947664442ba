"""Print the outputs of the benchmark's seed-0 calls of one source tree.

    OPENBLAS_NUM_THREADS=2 python3 tools/seed0_outputs.py TREE > out.txt
    diff tools/seed0_outputs.txt out.txt

TREE is a checkout of this repository.  The script imports ``fls`` from
TREE/src and the workload definitions from TREE/bench/workloads.py, then
runs each of the 12 full-size seed-0 calls (subspace-ref, large-n,
kmeans-landmarks) through ``fls_cluster`` with the settings the
benchmark gives it.  It prints the OPENBLAS_NUM_THREADS setting, then
one line per call: a hash of the labels, sigma, the singular values to
full precision and a hash of the spectral rows.  Two trees whose outputs
are bit-identical print the same lines, so ``diff`` of two runs checks a
change that must not move any output.  The thread count is part of the
bits (the D = 400 calls differ between 1 and 2 threads), so runs on
different counts differ from the first line on.  ``seed0_outputs.txt``
beside this script holds the output on 2 threads; a change that moves
these bits on purpose updates it.  ``workload_lines`` yields the lines
of one workload; ``tests/test_cluster.py`` checks the subspace-ref ones
(D = 100, the same on 1 and 2 threads) against that file.
"""

import hashlib
import os
import sys

WORKLOADS = ("subspace-ref", "large-n", "kmeans-landmarks")


def _digest(array) -> str:
    return hashlib.sha256(array.tobytes()).hexdigest()[:16]


def workload_lines(name):
    """Yield the output line of each seed-0 call of workload ``name``.

    ``fls`` and the benchmark's ``workloads`` module must be importable.
    """
    import numpy as np
    import workloads
    from fls.cluster import fls_cluster
    from fls.datagen import gen_synthetic

    for i, call in enumerate(workloads.make(name, "full", 0).calls):
        s = call.settings
        result = fls_cluster(
            gen_synthetic(call.model, seed=call.gen_seed).points,
            s.k,
            s.config(),
            seed=call.fit_seed,
            drop_first=True,
            normalize_sphere=True,
            kmeans_restarts=workloads.RESTARTS,
        )
        svals = " ".join(repr(float(v)) for v in result.singular_values)
        yield (
            f"{name} {i} labels={_digest(np.asarray(result.labels, dtype=np.int64))} "
            f"sigma={result.sigma!r} svals=[{svals}] rows={_digest(result.embedding)}"
        )


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    tree = os.path.abspath(argv[0])
    sys.dont_write_bytecode = True  # leave TREE as it is
    sys.path[:0] = [os.path.join(tree, "src"), os.path.join(tree, "bench")]
    print(f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}")
    for name in WORKLOADS:
        for line in workload_lines(name):
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
