"""Print a SHA-256 over every fit of the ``fit_study`` op list, per seed.

    python tools/fit_digest.py 1 2 3

For each seed given, fits every op of the benchmark's timed ``fit_study``
op list (``perfbench/worker.py``'s ``fit_ops``) in order, as its worker
does, and prints ``seed <N> <digest>``.  A last line gives the digest of
the glass-fibre fits of every model.  Each fit adds its model, params,
loglik, iterations, converged, hit_bounds, score_norm and covariance
bytes to the hash, so two trees that print the same digests fit
bit-identically.
"""

import hashlib
import importlib.util
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODELS = ("exp", "ge", "be", "dge", "bge")


def load_worker():
    """``perfbench/worker.py`` as a module, with the ``common`` it imports."""
    spec = importlib.util.spec_from_file_location("fit_digest_worker", ROOT / "perfbench" / "worker.py")
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    return worker


def add_fit(h, fit) -> None:
    p = fit.params
    h.update(repr((fit.model, p.a, p.b, p.lam, p.alpha, fit.loglik, fit.iterations,
                   fit.converged, fit.hit_bounds, fit.score_norm)).encode())
    h.update(b"none" if fit.covariance is None else fit.covariance.tobytes())


def main(argv) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    from bgedist import glass_fibre_sample
    from bgedist.inference import fit_mle

    worker = load_worker()
    for seed in map(int, argv):
        h = hashlib.sha256()
        for op in worker.fit_ops(seed, False):
            for m in op["models"]:
                add_fit(h, fit_mle(op["data"], m))
        print(f"seed {seed} {h.hexdigest()}")
    h = hashlib.sha256()
    y = glass_fibre_sample()
    for m in MODELS:
        add_fit(h, fit_mle(y, m))
    print(f"glass_fibre {h.hexdigest()}")


if __name__ == "__main__":
    main(sys.argv[1:])
