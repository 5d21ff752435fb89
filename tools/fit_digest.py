"""Print a SHA-256 over every fit of the ``fit_study`` op list, per seed,
one over every caller of the latent engine on the box design, and one over
the paper's series there.

    python tools/fit_digest.py 1 2 3

For each seed given, fits every op of the benchmark's timed ``fit_study``
op list (``perfbench/worker.py``'s ``fit_ops``) in order, as its worker
does, and prints ``seed <N> <digest>``.  The next line gives the digest of
the glass-fibre fits of every model.  Each fit adds its model, params,
loglik, iterations, converged, hit_bounds, score_norm and covariance
bytes to the hash, so two trees that print the same digests fit
bit-identically.  The next line, ``engine <digest>``, hashes each engine
caller of ``ENGINE_CALLS`` at the 300 points of the box design
(``tests/test_box_contract.py``'s): its value's repr, the matrix bytes
of an ``InfoMatrix``, or the type and message of what it raised.  The
last line, ``series <digest>``, hashes the paper's series on the same
design at x = the quantiles 0.01, 0.5 and 0.99: the value, error bound and
term count of ``cdf_series`` and the value of ``pdf_mixture``, or what
they raised.
"""

import hashlib
import importlib.util
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODELS = ("exp", "ge", "be", "dge", "bge")


def engine_calls(worker) -> list:
    """Each caller of the latent engine as a function of the distribution:
    the information matrix, the moments, the entropy, the four order-statistic
    moments of the ``functionals`` workload, the mgfs at t = -lam and one
    T-expectation."""
    from bgedist.inference import information_matrix, t_expectation
    from bgedist.order_stats import OrderStatIndex, order_stat_mgf, order_stat_moment
    from bgedist.series import mgf, moment_set, shannon_entropy

    moments = [lambda d, i=i, n=n, r=r: order_stat_moment(d, OrderStatIndex(i, n), r)
               for i, n, r in worker.FN_ORDER_STATS]
    return [information_matrix, moment_set, shannon_entropy, *moments,
            lambda d: mgf(d, -d.lam),
            lambda d: order_stat_mgf(d, OrderStatIndex(2, 3), -d.lam),
            lambda d: t_expectation(d, 1, 1, 1, 1, 0)]


def box_design() -> list:
    """The 300 distributions of the box design."""
    import numpy as np
    from bgedist import BGE

    rng = np.random.default_rng(0)
    return [BGE(*map(float, p)) for p in np.exp(rng.uniform(-4.5, 4.5, size=(300, 4)))]


def digest(calls) -> str:
    """The hash over each call's value at each design point, a raise hashed
    as its type and message."""
    h = hashlib.sha256()
    for d in box_design():
        for call in calls:
            try:
                value = call(d)
            except Exception as exc:  # noqa: BLE001 -- a raise is part of the result
                h.update(f"{type(exc).__name__}: {exc}".encode())
                continue
            matrix = getattr(value, "matrix", None)
            h.update(repr(value if matrix is None else value.fallback_entries).encode())
            h.update(b"" if matrix is None else matrix.tobytes())
    return h.hexdigest()


def series_calls() -> list:
    """``cdf_series`` with its bound and terms, and ``pdf_mixture``, at the
    quantiles 0.01, 0.5 and 0.99."""
    from bgedist.series import cdf_series, pdf_mixture

    return [call for p in (0.01, 0.5, 0.99) for call in (
        lambda d, p=p: cdf_series(d, d.quantile(p), full_output=True),
        lambda d, p=p: pdf_mixture(d, d.quantile(p)))]


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
    print(f"engine {digest(engine_calls(worker))}")
    print(f"series {digest(series_calls())}")


if __name__ == "__main__":
    main(sys.argv[1:])
