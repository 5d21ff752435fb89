"""Importing the package stays cheap: scipy loads only when used."""

import os
import subprocess
import sys

from conftest import REPO_ROOT


def _run(code: str) -> str:
    """stdout of ``python -c code`` with the checkout's ``src`` first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout


def test_import_loads_no_scipy_submodules():
    # statistics and argparse load only with the intervals and the CLI;
    # inference, series and order_stats on first use of one of their names
    out = _run("import sys, bgedist; "
               "print(' '.join(m for m in ('scipy', 'numpy.random', 'statistics', 'argparse', "
               "'bgedist.inference', 'bgedist.series', 'bgedist.order_stats') "
               "if m in sys.modules))")
    assert out.strip() == ""


def test_exported_names_resolve_to_their_modules():
    import bgedist
    from bgedist import datasets, distribution, inference, order_stats, series

    modules = (datasets, distribution, inference, order_stats, series)
    for name in bgedist.__all__:
        assert any(getattr(m, name, None) is getattr(bgedist, name) for m in modules), name
    assert bgedist.series is series
    out = _run("from bgedist import *; import bgedist; "
               "print(all(n in globals() for n in bgedist.__all__), fit_mle.__module__)")
    assert out.split() == ["True", "bgedist.inference"]


def test_fit_with_covariance_loads_no_scipy_integrate():
    out = _run("import sys; from bgedist import fit_mle, glass_fibre_sample; "
               "fit = fit_mle(glass_fibre_sample(), 'bge'); "
               "print(fit.covariance is not None, 'scipy.integrate' in sys.modules)")
    assert out.split() == ["True", "False"]


def test_order_stat_moment_loads_no_scipy_integrate():
    out = _run("import sys; from bgedist import BGE; "
               "from bgedist.order_stats import OrderStatIndex, order_stat_moment; "
               "m = order_stat_moment(BGE(2, 1.5, 1, 2), OrderStatIndex(3, 3), 1); "
               "print(m > 0.0, 'scipy.integrate' in sys.modules)")
    assert out.split() == ["True", "False"]


def test_moments_and_sweep_load_no_scipy_integrate_or_special():
    out = _run("import io, sys; import bgedist.cli; from bgedist import BGE; "
               "from bgedist.series import (mgf, moment_set, raw_moment, shannon_entropy, "
               "skewness_kurtosis); d = BGE(2, 0.35, 1, 1.5); moment_set(d); "
               "skewness_kurtosis(d); shannon_entropy(d); raw_moment(d, 3); mgf(d, 0.3); "
               "bgedist.cli.main(['curve', '--params', '2,3,1,1.5', '--sweep', 'b', "
               "'--grid', '0.35:2.35:6'], out=io.StringIO()); "
               "print(' '.join(m for m in ('scipy.integrate', 'scipy.special') if m in sys.modules))")
    assert out.strip() == ""


def test_bge_fit_loads_no_scipy_optimize():
    out = _run("import sys; from bgedist import fit_mle, glass_fibre_sample; "
               "fit = fit_mle(glass_fibre_sample(), 'bge'); "
               "print(fit.model, 'scipy.optimize' in sys.modules)")
    assert out.split() == ["bge", "False"]


def test_reproduce_loads_no_scipy_optimize():
    out = _run("import io, sys; import bgedist.cli; out = io.StringIO(); "
               "code = bgedist.cli.main(['reproduce'], out=out); "
               "print(code, len(out.getvalue()) > 0, 'scipy.optimize' in sys.modules)")
    assert out.split()[1:] == ["True", "False"]


def test_fit_commands_and_lr_tests_load_no_scipy():
    data = repr(str(REPO_ROOT / "data" / "glass_fibre.txt"))
    out = _run("import io, sys; import bgedist.cli; "
               "from bgedist import fit_mle, glass_fibre_sample; "
               "from bgedist.inference import lr_from_fits; "
               "codes = [bgedist.cli.main(argv, out=io.StringIO()) for argv in ("
               "['reproduce'], "
               f"['compare', '--input', {data}, '--format', 'structured'], "
               f"['fit', '--input', {data}, '--model', 'bge'])]; "
               "y = glass_fibre_sample(); bge, ge = fit_mle(y, 'bge'), fit_mle(y, 'ge'); "
               "lr = lr_from_fits(ge, bge); "
               "print(*codes, bge.covariance is not None, 0.0 < lr.p_value < 1.0, "
               "*(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    # compare and fit exit 3: the bge fit ends on the box
    assert out.split() == ["0", "3", "3", "True", "True"]


def test_curve_and_quantile_load_scipy_special_only():
    # the incomplete beta ratio and its inverses are scipy.special's,
    # imported on first call rather than with the package; curve loads
    # neither the fits nor the series
    for call in ("bgedist.cli.main(['curve', '--params', '2,3,1,1.5', "
                 "'--grid', '0.001:8:2000'], out=io.StringIO())",
                 "BGE(2, 0.05, 1, 1).quantile(0.99)"):
        out = _run("import io, sys; import bgedist.cli; from bgedist import BGE; "
                   f"{call}; print(' '.join(m for m in "
                   "('scipy.special', 'scipy.integrate', 'scipy.optimize', 'bgedist.inference', "
                   "'bgedist.series', 'bgedist.order_stats') if m in sys.modules))")
        assert out.split() == ["scipy.special"], call


def test_float_cdf_and_quantile_load_scipy_special_only():
    # the scalar kernels are bound on first use; what they load beyond
    # scipy.special's own submodules is what importing scipy.special loads
    listing = "print(*(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    base = set(_run(f"import sys, scipy.special; {listing}").split())
    out = _run("import sys; from bgedist import BGE; d = BGE(2, 0.05, 1, 1); "
               f"d.cdf(0.7); d.quantile(0.99); {listing}").split()
    assert "scipy.special.cython_special" in out
    assert {m for m in out if not m.startswith("scipy.special")} <= base
