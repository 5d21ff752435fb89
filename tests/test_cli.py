"""Command-line interface: exit codes, formats, determinism, reproduction."""

import io
import math

import numpy as np
import pytest

from bgedist import BGE
from bgedist.cli import (EXIT_INPUT, EXIT_NOCONV, EXIT_OK, EXIT_USAGE, main,
                         read_positive_column)
from bgedist.datasets import GLASS_FIBRE_STRENGTHS
from bgedist.inference import fit_mle, lr_from_fits, parse_fit_result_kv


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


@pytest.fixture
def glass_file(tmp_path):
    path = tmp_path / "glass.txt"
    path.write_text("# header comment\n" +
                    "\n".join(f"{v:.2f}" for v in GLASS_FIBRE_STRENGTHS) + "\n")
    return str(path)


class TestEmbeddedData:
    def test_glass_fibre_invariants(self):
        vals = np.array(GLASS_FIBRE_STRENGTHS)
        assert vals.size == 63
        assert vals.min() == 0.55
        assert vals.max() == 2.24
        assert np.all(vals > 0.0)

    def test_fixture_matches_embedded(self):
        from conftest import REPO_ROOT

        fixture = read_positive_column(str(REPO_ROOT / "data" / "glass_fibre.txt"))
        assert np.allclose(fixture, GLASS_FIBRE_STRENGTHS)


class TestInputParsing:
    def test_comments_and_header(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("strength\n# note\n1.5\n2.5\n")
        assert np.allclose(read_positive_column(str(p)), [1.5, 2.5])

    def test_malformed_row_reports_line(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("1.0\nbogus\n2.0\n")
        with pytest.raises(Exception) as exc:
            read_positive_column(str(p))
        assert ":2:" in str(exc.value)

    def test_nonpositive_reports_line(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("1.0\n2.0\n-3.0\n")
        with pytest.raises(Exception) as exc:
            read_positive_column(str(p))
        assert ":3:" in str(exc.value)

    def test_missing_file_exit_code(self):
        code, _ = run_cli("fit", "--input", "/nonexistent/file.txt")
        assert code == EXIT_INPUT

    def test_usage_errors(self):
        assert run_cli("fit")[0] == EXIT_USAGE                       # no --input
        assert run_cli("sample", "--params", "1,1,1,1")[0] == EXIT_USAGE
        assert run_cli("curve", "--params", "1,1,1", "--grid", "0:1:9")[0] == EXIT_USAGE
        assert run_cli("curve", "--params", "1,1,1,1", "--grid", "2:1:9")[0] == EXIT_USAGE
        # a non-finite grid end is refused before any row is printed
        assert run_cli("curve", "--params", "1,1,1,1", "--grid", "0:inf:4") == (EXIT_USAGE, "")
        assert run_cli("curve", "--params", "1,1,1,1", "--sweep", "a",
                       "--grid", "0.5:inf:3") == (EXIT_USAGE, "")

    def test_flags_of_other_subcommands_are_refused(self, glass_file):
        # each subcommand parses only its own flags
        assert run_cli("fit", "--input", glass_file, "--sweep", "a")[0] == EXIT_USAGE
        assert run_cli("sample", "--params", "1,1,1,1", "--n", "5", "--seed", "1",
                       "--format", "structured")[0] == EXIT_USAGE
        assert run_cli("curve", "--params", "1,1,1,1", "--model", "ge")[0] == EXIT_USAGE
        assert run_cli("compare", "--input", glass_file, "--grid", "0.1:1:5")[0] == EXIT_USAGE
        assert run_cli("reproduce", "--seed", "1")[0] == EXIT_USAGE


class TestFitCommand:
    def test_exp_closed_form(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("1.0\n2.0\n3.0\n")
        code, text = run_cli("fit", "--model", "exp", "--input", str(p),
                             "--format", "structured")
        assert code == EXIT_OK
        fit = parse_fit_result_kv(text)
        assert fit.params.lam == pytest.approx(0.5, abs=1e-10)

    def test_ge_glass_fibre(self, glass_file):
        code, text = run_cli("fit", "--model", "ge", "--input", glass_file,
                             "--format", "structured")
        assert code == EXIT_OK
        fit = parse_fit_result_kv(text)
        assert fit.params.lam == pytest.approx(2.6105, rel=0.01)
        assert fit.params.alpha == pytest.approx(31.3032, rel=0.01)

    def test_bge_glass_fibre_loglik(self, glass_file):
        code, text = run_cli("fit", "--model", "bge", "--input", glass_file,
                             "--format", "structured")
        fit = parse_fit_result_kv(text)
        assert fit.loglik == pytest.approx(-15.5995, abs=0.05)
        # ridge-terminated fit is reported as non-converged
        assert code == EXIT_NOCONV
        assert "hit_bounds=b" in text

    def test_human_format(self, glass_file):
        code, text = run_cli("fit", "--model", "ge", "--input", glass_file)
        assert code == EXIT_OK
        assert "loglik" in text and "ci95" in text

    def test_structured_format_golden(self, tmp_path):
        # the structured rendering is a stable 10-significant-digit
        # contract; freeze it for a closed-form fit
        p = tmp_path / "d.txt"
        p.write_text("1.0\n2.0\n3.0\n")
        _, text = run_cli("fit", "--model", "exp", "--input", str(p),
                          "--format", "structured")
        lines = dict(line.split("=", 1) for line in text.splitlines())
        assert lines["model"] == "exp"
        assert lines["params.a"] == "1"
        assert lines["params.b"] == "1"
        assert lines["params.lambda"] == "0.5"
        assert lines["params.alpha"] == "1"
        assert lines["loglik"] == "-5.079441542"
        assert lines["converged"] == "true"
        assert lines["n_obs"] == "3"


class TestCompareCommand:
    def test_glass_fibre_statistics(self, glass_file):
        # The GE-vs-BGE statistic matches the published 31.5678; the
        # BE-vs-BGE one cannot (published BE fit is an early-stopped
        # iterate, see errata.json "glass-fibre-published-fits"), so it
        # is asserted here at the attainable value; the acceptance and
        # inference suites derive that window from the published
        # statistic and a scipy oracle of the bounded BE maximum.
        code, text = run_cli("compare", "--input", glass_file, "--format", "structured")
        assert code == EXIT_NOCONV  # bge/be members terminate on the ridge bound
        lines = dict(line.split("=", 1) for line in text.splitlines()
                     if "=" in line and not line.startswith("#"))
        kv_blocks = text.split("lr.null_model=")
        assert len(kv_blocks) == 3
        w_be = float(kv_blocks[1].splitlines()[2].split("=")[1])
        w_ge = float(kv_blocks[2].splitlines()[2].split("=")[1])
        assert w_ge == pytest.approx(31.5678, abs=0.1)
        assert w_be == pytest.approx(16.744, abs=0.1)

    def test_null_distribution_sanity(self):
        # data simulated under the GE null: the GE-vs-BGE test should
        # rarely reject (p > 0.05 in at least 90% of replications)
        ok = 0
        for k in range(100):
            rng = np.random.default_rng(1000 + k)
            data = BGE.ge(2.0, 5.0).sample(60, rng)
            f_ge = fit_mle(data, "ge", compute_covariance=False)
            f_bge = fit_mle(data, "bge", compute_covariance=False)
            if lr_from_fits(f_ge, f_bge).p_value > 0.05:
                ok += 1
        assert ok >= 90

    def test_degenerate_input(self, tmp_path):
        p = tmp_path / "one.txt"
        p.write_text("1.5\n")
        code, text = run_cli("compare", "--input", str(p), "--format", "structured")
        assert code == EXIT_NOCONV
        assert "non-converged" in text


class TestSampleCommand:
    def test_seeded_determinism_byte_exact(self):
        args = ("sample", "--params", "2,3,1.5,0.8", "--n", "500", "--seed", "42")
        out1 = run_cli(*args)
        out2 = run_cli(*args)
        assert out1 == out2
        assert out1[0] == EXIT_OK
        assert len(out1[1].splitlines()) == 500

    def test_ks_oracle(self):
        code, text = run_cli("sample", "--params", "2,1.5,1,2",
                             "--n", "100000", "--seed", "7")
        assert code == EXIT_OK
        draws = np.sort(np.array([float(v) for v in text.split()]))
        d = BGE(2, 1.5, 1, 2)
        sub = draws[::50]
        probs = np.array([d.cdf(float(x)) for x in sub])
        idx = np.arange(0, draws.size, 50)
        stat = np.max(np.maximum(probs - idx / draws.size,
                                 (idx + 50) / draws.size - probs))
        assert stat < 1.63 / math.sqrt(draws.size) + 50.0 / draws.size

    def test_sample_then_fit_roundtrip(self, tmp_path):
        code, text = run_cli("sample", "--params", "2,1.5,1,2",
                             "--n", "10000", "--seed", "9")
        assert code == EXIT_OK
        p = tmp_path / "draws.txt"
        p.write_text(text)
        fit = fit_mle(read_positive_column(str(p)), "bge")
        true = BGE(2, 1.5, 1, 2)
        xs = np.linspace(0.01, true.quantile(0.9999), 200)
        sup = max(abs(fit.params.cdf(float(x)) - true.cdf(float(x))) for x in xs)
        assert sup <= 0.02

    def test_invalid_params(self):
        code, _ = run_cli("sample", "--params", "0,1,1,1", "--n", "5", "--seed", "1")
        assert code == EXIT_USAGE

    def test_underflowed_draw_exit_code(self, capsys):
        # at a = b = 0.02 a draw underflows to 0.0, which is no valid
        # observation: one stderr line and exit code 3, not a traceback
        code, text = run_cli("sample", "--params", "0.02,0.02,1,0.5", "--n", "20000",
                             "--seed", "1")
        assert code == EXIT_NOCONV and text == ""
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("non-convergence: ")


class TestCurveCommand:
    def test_exponential_hazard_constant(self):
        code, text = run_cli("curve", "--params", "1,1,2,1", "--grid", "0.1:5:50")
        assert code == EXIT_OK
        rows = [line.split("\t") for line in text.splitlines() if not line.startswith("#")]
        hazards = [float(r[3]) for r in rows]
        assert all(h == pytest.approx(2.0, rel=1e-9) for h in hazards)

    def test_origin_and_underflow_rows(self):
        # x = 0 prints the density's limit and a nan hazard; where the
        # survival underflows (e^-750) the hazard prints as inf
        code, text = run_cli("curve", "--params", "1,1,1,1", "--grid", "0:1000:5")
        assert code == EXIT_OK
        rows = [line.split("\t") for line in text.splitlines()[1:]]
        assert rows[0] == ["0", "1", "0", "nan"]
        assert [r[3] for r in rows[1:]] == ["1", "1", "inf", "inf"]
        assert [r[1] for r in rows[3:]] == ["0", "0"]

    def test_pdf_column_integrates_to_one(self):
        code, text = run_cli("curve", "--params", "2,3,1,1.5", "--grid", "0.0001:12:4000")
        assert code == EXIT_OK
        rows = [line.split("\t") for line in text.splitlines() if not line.startswith("#")]
        xs = np.array([float(r[0]) for r in rows])
        pdf = np.array([float(r[1]) for r in rows])
        assert np.trapezoid(pdf, xs) == pytest.approx(1.0, abs=1e-3)

    def test_sweep_direction_verified(self):
        # monotone DEcreasing in a (the published caption claims the
        # opposite; adjudicated against quadrature moments, see
        # errata.json "skew-kurt-monotonicity")
        code, text = run_cli("curve", "--params", "1,2,1,1", "--sweep", "a",
                             "--grid", "0.5:5:10")
        assert code == EXIT_OK
        rows = [line.split("\t") for line in text.splitlines() if not line.startswith("#")]
        skew = [float(r[1]) for r in rows]
        assert all(s2 < s1 for s1, s2 in zip(skew, skew[1:]))

    def test_sweep_non_convergence_exit_code(self, capsys):
        # at b = 1e-300 the moments' tanh-sinh rule does not converge:
        # one stderr line and exit code 3, not a traceback
        code, _ = run_cli("curve", "--params", "1,1,1,1", "--sweep", "b",
                          "--grid", "1e-300:1:3")
        assert code == EXIT_NOCONV
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("non-convergence: ")


class TestReproduceCommand:
    def test_report_structure_and_green_rows(self):
        import time

        t0 = time.perf_counter()
        code, text = run_cli("reproduce")
        assert time.perf_counter() - t0 < 60.0
        assert code == EXIT_OK
        # GE row, BGE loglik window and parameters, and the GE-vs-BGE
        # statistic reproduce; the BE rows are flagged FAIL by design
        for label in ("ge.lambda", "ge.alpha", "ge.loglik", "bge.loglik",
                      "bge.a", "bge.b", "bge.lambda", "bge.alpha",
                      "lr.ge_vs_bge", "lr.ge_vs_bge.p", "lr.be_vs_bge.p"):
            row = next(line for line in text.splitlines() if line.startswith(label + " "))
            assert row.rstrip().endswith("pass"), row
        for label in ("be.b", "lr.be_vs_bge"):
            row = next(line for line in text.splitlines() if line.startswith(label + " "))
            assert row.rstrip().endswith("FAIL"), row
        assert "ridge" in text
