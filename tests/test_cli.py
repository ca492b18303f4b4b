"""CLI behavior: reports, exit codes, CSV ingestion, determinism."""

import csv
import json
import math
import subprocess
import sys

import numpy as np
import pytest

import efmeasures as em
from efmeasures import cli, estimation
from efmeasures.errors import DomainError

from conftest import run_cli


class TestEntropyCommand:
    def test_renyi_report(self):
        code, out, _ = run_cli(
            "entropy", "--family", "gaussian", "--params", '{"mu":0,"var":1}',
            "--measure", "renyi", "--alpha", "2",
        )
        assert code == 0
        report = json.loads(out)
        row = report["results"][0]
        assert row["value"] == pytest.approx(0.5 * math.log(2 * math.pi) + 0.5 * math.log(2))
        assert row["branch"] == "closed-form"
        assert row["alpha"] == 2.0
        assert row["oracle"] is None

    def test_json_round_trips_bit_exactly(self):
        code, out, _ = run_cli(
            "entropy", "--family", "poisson", "--params", '{"rate":1.75}',
            "--measure", "renyi", "--alpha", "0.5", "--alpha", "2",
        )
        assert code == 0
        assert json.dumps(json.loads(out), indent=2) == out.rstrip("\n")

    def test_multiple_alphas_order_preserved(self):
        code, out, _ = run_cli(
            "entropy", "--family", "exponential", "--params", '{"rate":1}',
            "--measure", "tsallis", "--alpha", "0.5", "--alpha", "2",
        )
        rows = json.loads(out)["results"]
        assert [r["alpha"] for r in rows] == [0.5, 2.0]

    def test_shannon_needs_no_alpha(self):
        code, out, _ = run_cli(
            "entropy", "--family", "laplacian", "--params", '{"scale":1}',
            "--measure", "shannon",
        )
        assert code == 0
        assert json.loads(out)["results"][0]["value"] == pytest.approx(1 + math.log(2))

    def test_csv_output(self):
        code, out, _ = run_cli(
            "entropy", "--family", "gaussian", "--params", '{"mu":0,"var":1}',
            "--measure", "renyi", "--alpha", "2", "--output", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("measure,alpha,value,branch")
        assert lines[1].startswith("renyi,2.0,")


class TestDivergenceCommand:
    def test_kl_value(self):
        code, out, _ = run_cli(
            "divergence", "--family", "exponential", "--params", '{"rate":1}',
            "--params2", '{"rate":2}', "--measure", "kl",
        )
        assert code == 0
        assert json.loads(out)["results"][0]["value"] == pytest.approx(1 - math.log(2))

    def test_mvn_parameters(self):
        code, out, _ = run_cli(
            "divergence", "--family", "mvn",
            "--params", '{"mu":[0,0],"sigma":[[1,0],[0,1]]}',
            "--params2", '{"mu":[1,0],"sigma":[[1,0],[0,1]]}',
            "--measure", "kl",
        )
        assert code == 0
        assert json.loads(out)["results"][0]["value"] == pytest.approx(0.5)

    def test_mixed_parameter_domain_exit_is_error_code_3(self):
        code, _, err = run_cli(
            "divergence", "--family", "gaussian", "--params", '{"mu":0,"var":1}',
            "--params2", '{"mu":0,"var":0.4}', "--measure", "renyi-div", "--alpha", "2",
        )
        assert code == 3
        assert "mixed parameter" in err


class TestExitCodes:
    def test_domain_error_names_offending_field(self):
        code, _, err = run_cli(
            "entropy", "--family", "gaussian", "--params", '{"mu":0,"var":-1}',
            "--measure", "shannon",
        )
        assert code == 3
        assert "var" in err

    @pytest.mark.parametrize("family, params", [
        ("exponential", '{"rate":"abc"}'),
        ("exponential", '{"rate":null}'),
        ("gaussian", '{"mu":[1],"var":1}'),
        ("bernoulli", '{"p":"0.5"}'),
        ("mvn", '{"mu":[0,"a"],"sigma":[[1,0],[0,1]]}'),
        ("mvn", '{"mu":[0,0],"sigma":[[1,0],[0]]}'),
        ("exponential", '{"rate":true}'),
        ("gaussian", '{"mu":false,"var":true}'),
        ("bernoulli", '{"p":true}'),
        ("mvn", '{"mu":["0","1e0"],"sigma":[[1,0],[0,1]]}'),
        ("mvn", '{"mu":[0,0],"sigma":[[1,0],[0,"1"]]}'),
        ("mvn", '{"mu":[0,0],"sigma":[[true,0],[0,1]]}'),
    ])
    def test_source_values_that_are_not_numbers_are_domain_errors(self, family, params):
        code, out, err = run_cli("entropy", "--family", family, "--params", params, "--measure", "shannon")
        assert (code, out) == (3, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err

    def test_invalid_json_is_usage_error(self):
        code, _, _ = run_cli(
            "entropy", "--family", "gaussian", "--params", "{not json",
            "--measure", "shannon",
        )
        assert code == 2

    def test_wrong_keys_is_usage_error(self):
        code, _, err = run_cli(
            "entropy", "--family", "gaussian", "--params", '{"mu":0,"sd":1}',
            "--measure", "shannon",
        )
        assert code == 2

    def test_unknown_family_is_usage_error(self):
        code, _, _ = run_cli(
            "entropy", "--family", "gamma", "--params", '{"rate":1}',
            "--measure", "shannon",
        )
        assert code == 2

    def test_nonpositive_alpha_is_usage_error(self):
        code, _, _ = run_cli(
            "entropy", "--family", "gaussian", "--params", '{"mu":0,"var":1}',
            "--measure", "renyi", "--alpha", "-2",
        )
        assert code == 2

    def test_missing_alpha_is_usage_error(self):
        code, _, _ = run_cli(
            "entropy", "--family", "gaussian", "--params", '{"mu":0,"var":1}',
            "--measure", "renyi",
        )
        assert code == 2

    def test_entropy_rejects_pair_measures(self):
        code, _, _ = run_cli(
            "entropy", "--family", "gaussian", "--params", '{"mu":0,"var":1}',
            "--measure", "kl",
        )
        assert code == 2

    def test_series_window_too_wide_is_convergence_exit_4(self):
        code, _, err = run_cli(
            "entropy", "--family", "poisson", "--params", '{"rate":1e15}', "--measure", "shannon",
        )
        assert code == 4
        assert "too wide" in err

    @pytest.mark.parametrize("measure", ["renyi-div", "jensen"])
    def test_poisson_mixture_of_infinite_rate_is_domain_exit_3(self, measure):
        # The mixture's rate e^(1e10 log 10 + (1 - 1e10) log 3) is no float: outside the domain.
        code, out, err = run_cli(
            "divergence", "--family", "poisson", "--params", '{"rate":10}',
            "--params2", '{"rate":3}', "--measure", measure, "--alpha", "1e10",
        )
        assert (code, out) == (3, "")
        assert err.startswith("error: poisson: mixed parameter") and err.count("\n") == 1

    def test_non_finite_series_term_is_convergence_exit_4(self):
        code, out, err = run_cli(
            "entropy", "--family", "poisson", "--params", '{"rate":1e8}',
            "--measure", "renyi", "--alpha", "1e10",
        )
        assert (code, out) == (4, "")
        assert err == "error: a count series term is not finite\n"

    @pytest.mark.parametrize(
        "args",
        [
            ("divergence", "--family", "gaussian", "--params", '{"mu":0,"var":1}',
             "--params2", '{"mu":100,"var":1}', "--measure", "tsallis-div", "--alpha", "2"),
            ("entropy", "--family", "exponential", "--params", '{"rate":1e300}',
             "--measure", "tsallis", "--alpha", "20"),
        ],
        ids=["tsallis-div", "tsallis"],
    )
    def test_value_beyond_the_float_range_is_one_error_line_exit_3(self, args):
        code, out, err = run_cli(*args)
        assert (code, out) == (3, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "beyond the float range" in err

    @pytest.mark.parametrize(
        "args",
        [
            ("divergence", "--family", "gaussian",
             "--params", '{"mu":-1.6212431214147161e-19,"var":3.1335025258725407e-288}',
             "--params2", '{"mu":-3.3792118708448206e124,"var":4.774168530440229e183}',
             "--measure", "bhattacharyya"),
            ("divergence", "--family", "exponential", "--params", '{"rate":4.9e-133}',
             "--params2", '{"rate":6.4e249}', "--measure", "kl"),
            ("divergence", "--family", "exponential", "--params", '{"rate":4.9e-133}',
             "--params2", '{"rate":6.4e249}', "--measure", "kl", "--output", "csv"),
        ],
        ids=["nan", "infinity", "infinity-csv"],
    )
    def test_non_finite_value_is_one_error_line_exit_3(self, args):
        # JSON has no NaN or Infinity and a CSV reader takes "nan" for a number: neither
        # reaches stdout as a success.
        code, out, err = run_cli(*args)
        assert (code, out) == (3, "")
        assert err == "error: a reported value is not a finite number\n"

    def test_asymmetric_covariance_past_half_the_float_range_is_one_error_line_exit_3(self):
        # cov - cov.T overflows here: numpy printed a RuntimeWarning before the error line.
        code, out, err = run_cli(
            "entropy", "--family", "mvn", "--params",
            '{"mu":[0,0],"sigma":[[1,1e308],[-1e308,1]]}', "--measure", "shannon",
        )
        assert (code, out) == (3, "")
        assert err.startswith("error: cov is not symmetric") and err.count("\n") == 1


class TestEstimateCommand:
    @pytest.fixture
    def exp_csv(self, tmp_path):
        fam = em.EXPONENTIAL
        theta = fam.to_natural(em.ExponentialParams(rate=2.0))
        path = tmp_path / "obs.csv"
        np.savetxt(path, fam.sample(theta, 5000, seed=3), delimiter=",")
        return path

    def test_estimates_rate(self, exp_csv):
        code, out, _ = run_cli("estimate", "--family", "exponential", "--data", str(exp_csv))
        assert code == 0
        report = json.loads(out)
        assert report["estimates"]["data"]["params"]["rate"] == pytest.approx(2.0, rel=0.05)
        assert report["estimates"]["data"]["n"] == 5000

    def test_plugin_measure(self, exp_csv, tmp_path):
        fam = em.EXPONENTIAL
        theta = fam.to_natural(em.ExponentialParams(rate=1.0))
        second = tmp_path / "obs2.csv"
        np.savetxt(second, fam.sample(theta, 5000, seed=4), delimiter=",")
        code, out, _ = run_cli(
            "estimate", "--family", "exponential", "--data", str(exp_csv),
            "--data2", str(second), "--measure", "kl",
        )
        assert code == 0
        value = json.loads(out)["results"][0]["value"]
        assert value == pytest.approx(math.log(2.0) - 0.5, abs=0.08)  # KL(rate 2 : rate 1)

    def test_non_integer_rejected_for_poisson(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("1\n2.5\n3\n")
        code, _, err = run_cli("estimate", "--family", "poisson", "--data", str(path))
        assert code == 3
        assert "integer" in err

    def test_degenerate_sample_exit_code(self, tmp_path):
        path = tmp_path / "ones.csv"
        path.write_text("1\n1\n1\n")
        code, _, err = run_cli("estimate", "--family", "bernoulli", "--data", str(path))
        assert code == 3
        assert "degenerate" in err

    def test_mean_statistic_is_the_exact_mean(self, tmp_path):
        # A sequential or pairwise float sum of these rows gives 0.25.
        path = tmp_path / "cancel.csv"
        path.write_text("1e16\n1\n-1e16\n1\n")
        code, out, _ = run_cli("estimate", "--family", "gaussian", "--data", str(path))
        assert code == 0
        assert json.loads(out)["estimates"]["data"]["mean_sufficient_stat"][0] == 0.5

    def test_statistic_beyond_the_float_range_is_one_error_line_exit_3(self, tmp_path):
        path = tmp_path / "huge.csv"
        path.write_text("1e200\n-1e200\n3\n")
        code, out, err = run_cli("estimate", "--family", "gaussian", "--data", str(path))
        assert (code, out) == (3, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "beyond the float range" in err and "Warning" not in err

    def test_missing_file_is_domain_error(self):
        code, _, err = run_cli("estimate", "--family", "gaussian", "--data", "/nonexistent.csv")
        assert code == 3
        assert "cannot read '/nonexistent.csv'" in err

    def test_wrong_width_rejected(self, tmp_path):
        path = tmp_path / "pairs.csv"
        path.write_text("0.1,0.2\n0.3,0.4\n")
        code, _, _ = run_cli("estimate", "--family", "gaussian", "--data", str(path))
        assert code == 3

    def test_mvn_estimate(self, tmp_path):
        fam = em.get_family("mvn", 2)
        theta = fam.to_natural(
            em.MultivariateGaussianParams(mu=[1.0, -1.0], cov=[[1.0, 0.3], [0.3, 2.0]])
        )
        path = tmp_path / "vecs.csv"
        np.savetxt(path, fam.sample(theta, 4000, seed=5), delimiter=",")
        code, out, _ = run_cli(
            "estimate", "--family", "mvn", "--dim", "2", "--data", str(path)
        )
        assert code == 0
        mu = json.loads(out)["estimates"]["data"]["params"]["mu"]
        assert mu[0] == pytest.approx(1.0, abs=0.1)
        assert mu[1] == pytest.approx(-1.0, abs=0.1)

    @pytest.fixture
    def gaussian_pair(self, tmp_path):
        fam = em.GAUSSIAN
        paths = []
        for seed, (mu, var) in enumerate([(0.0, 1.0), (0.5, 2.0)]):
            theta = fam.to_natural(em.GaussianParams(mu=mu, var=var))
            paths.append(tmp_path / f"obs{seed}.csv")
            np.savetxt(paths[-1], fam.sample(theta, 500, seed=seed), delimiter=",")
        return ["--family", "gaussian", "--data", str(paths[0]), "--data2", str(paths[1])]

    def _estimate(self, capsys, args):
        assert cli.run(["estimate", *args, "--measure", "renyi-div", "--alpha", "0.5",
                        "--alpha", "2"]) == 0
        return json.loads(capsys.readouterr().out)

    def test_each_file_is_fitted_once(self, gaussian_pair, capsys, monkeypatch):
        calls = []
        for module in (cli, estimation):
            monkeypatch.setattr(module, "mle", lambda s, fit=module.mle: calls.append(s) or fit(s))
        self._estimate(capsys, gaussian_pair)
        assert len(calls) == 2

    def test_plugin_value_is_the_closed_form_at_the_printed_fits(self, gaussian_pair, capsys):
        report = self._estimate(capsys, gaussian_pair)
        fam = em.GAUSSIAN
        theta, theta2 = (
            em.NaturalParam(report["estimates"][name]["natural"]["vector"])
            for name in ("data", "data2")
        )
        for row in report["results"]:
            want = em.evaluate_measure(fam, "renyi-div", theta, theta2, row["alpha"])
            assert row["value"] == want.value


class TestFamilyAliases:
    """mvn aliases resolve in every subcommand that takes a family name."""

    P = '{"mu":[0,0],"sigma":[[1,0],[0,1]]}'
    Q = '{"mu":[1,0],"sigma":[[1,0],[0,2]]}'

    def _run(self, capsys, *args):
        try:
            code = cli.run(list(args))
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        return code, out, err

    @pytest.fixture
    def vec_csv(self, tmp_path):
        path = tmp_path / "vecs.csv"
        np.savetxt(path, np.random.default_rng(5).normal(size=(200, 2)), delimiter=",")
        return str(path)

    @pytest.mark.parametrize("alias", ["multivariate_gaussian", "Gaussian-Multivariate"])
    def test_divergence(self, capsys, alias):
        args = ("--params", self.P, "--params2", self.Q, "--measure", "kl")
        code, out, _ = self._run(capsys, "divergence", "--family", "mvn", *args)
        assert code == 0
        code_alias, out_alias, _ = self._run(capsys, "divergence", "--family", alias, *args)
        assert (code_alias, out_alias) == (0, out)

    @pytest.mark.parametrize("alias", ["multivariate_gaussian", "Gaussian-Multivariate"])
    def test_estimate(self, capsys, vec_csv, alias):
        args = ("--dim", "2", "--data", vec_csv)
        code, out, _ = self._run(capsys, "estimate", "--family", "mvn", *args)
        assert code == 0
        code_alias, out_alias, _ = self._run(capsys, "estimate", "--family", alias, *args)
        assert (code_alias, out_alias) == (0, out)

    @pytest.mark.parametrize("alias", ["MVN", "multivariate_gaussian"])
    def test_verify(self, capsys, alias):
        code, out, _ = self._run(capsys, "verify", "--family", "mvn")
        assert code == 0
        assert json.loads(out)["request"]["family"] == "mvn"
        code_alias, out_alias, _ = self._run(capsys, "verify", "--family", alias)
        assert (code_alias, out_alias) == (0, out)

    def test_verify_unknown_family_is_usage_error(self, capsys):
        code, out, err = self._run(capsys, "verify", "--family", "gamma")
        assert (code, out) == (2, "")
        assert "unknown family 'gamma'" in err

    def test_estimate_without_dim_is_usage_error(self, capsys, vec_csv):
        code, _, err = self._run(capsys, "estimate", "--family", "MVN", "--data", vec_csv)
        assert code == 2
        assert "--dim is required for the mvn family" in err

    def test_dimension_mismatch_and_empty_mu_are_domain_errors(self, capsys):
        code, _, err = self._run(
            capsys, "divergence", "--family", "Multivariate_Gaussian", "--params", self.P,
            "--params2", '{"mu":[1],"sigma":[[1]]}', "--measure", "kl",
        )
        assert (code, err) == (3, "error: params2: dimension differs from params\n")
        code, _, err = self._run(
            capsys, "entropy", "--family", "mvn", "--params", '{"mu":[],"sigma":[]}',
            "--measure", "shannon",
        )
        assert (code, err) == (3, "error: mu: expected a non-empty list of numbers\n")

    def test_mvn_keys_are_checked_before_mu(self, capsys):
        code, _, err = self._run(
            capsys, "entropy", "--family", "gaussian-multivariate", "--params", '{"mu":[0]}',
            "--measure", "shannon",
        )
        assert code == 2
        assert "expected keys ['mu', 'sigma'] for family 'gaussian-multivariate'" in err


def _csv_module_reader(fam, path):
    """Reference reader: the csv module plus float() on every field."""
    width = fam.support.dim if fam.support.kind == "real-vector" else 1
    with open(path, newline="") as handle:
        rows = [[float(f) for f in row] for row in csv.reader(handle) if row]
    assert all(len(row) == width for row in rows)
    return np.asarray([row if width > 1 else row[0] for row in rows])


class TestOrderDomains:
    """Each --alpha is checked against the measure's order domain: any finite order for
    jensen, as the library and the oracle take; positive ones for the other measures
    that take an order, and wherever the measure takes none."""

    PAIR = ["--family", "gaussian", "--params", '{"mu":0,"var":1}',
            "--params2", '{"mu":1,"var":1}']

    _run = TestFamilyAliases._run

    def test_jensen_takes_negative_orders(self, capsys):
        code, out, _ = self._run(
            capsys, "divergence", *self.PAIR, "--measure", "jensen", "--alpha", "-1", "--alpha", "-3"
        )
        assert code == 0
        # alpha (1 - alpha) (mu - mu')^2 / 2 for equal unit variances.
        values = [row["value"] for row in json.loads(out)["results"]]
        assert values == [pytest.approx(-1.0, rel=1e-15), pytest.approx(-6.0, rel=1e-15)]

    def test_estimate_takes_negative_jensen_orders(self, capsys, tmp_path):
        fam = em.GAUSSIAN
        paths = []
        for seed, mu in enumerate((0.0, 1.0)):
            theta = fam.to_natural(em.GaussianParams(mu=mu, var=1.0))
            paths.append(str(tmp_path / f"obs{seed}.csv"))
            np.savetxt(paths[-1], fam.sample(theta, 200, seed=seed), delimiter=",")
        code, out, _ = self._run(
            capsys, "estimate", "--family", "gaussian", "--data", paths[0], "--data2", paths[1],
            "--measure", "jensen", "--alpha", "-1",
        )
        assert code == 0
        report = json.loads(out)
        theta, theta2 = (
            em.NaturalParam(report["estimates"][name]["natural"]["vector"])
            for name in ("data", "data2")
        )
        want = em.evaluate_measure(fam, "jensen", theta, theta2, -1.0).value
        assert [row["value"] for row in report["results"]] == [want]

    @pytest.mark.parametrize("alpha", ["nan", "inf"])
    def test_jensen_rejects_non_finite_orders(self, capsys, alpha):
        code, out, err = self._run(
            capsys, "divergence", *self.PAIR, "--measure", "jensen", "--alpha", alpha
        )
        assert (code, out) == (2, "")
        assert f"--alpha: values must be finite reals, got {float(alpha)}" in err

    @pytest.mark.parametrize("alpha", ["0", "-1"])
    @pytest.mark.parametrize(
        "command, measure",
        [("entropy", "renyi"), ("entropy", "tsallis"), ("entropy", "shannon"),
         ("divergence", "renyi-div"), ("divergence", "tsallis-div"), ("divergence", "kl")],
    )
    def test_other_measures_take_positive_orders(self, capsys, command, measure, alpha):
        args = self.PAIR if command == "divergence" else self.PAIR[:4]
        code, out, err = self._run(capsys, command, *args, "--measure", measure, "--alpha", alpha)
        assert (code, out) == (2, "")
        assert f"--alpha: values must be positive reals, got {float(alpha)}" in err


class TestObservationReader:
    """The numpy reader returns what the csv module reads, and names bad lines."""

    @pytest.mark.parametrize(
        "name, text",
        [
            ("blank lines", "1.5\n\n2.5\n\n\n3\n"),
            ("crlf", "1.5\r\n2.25\r\n\r\n-3e-4\r\n"),
            ("padded", " 1.5\n2.5  \n\t3\n"),
            ("quoted", '"1.5"\n" 2.5 "\n3\n'),
            ("single row", "0.125"),
            ("no final newline", "1\n2"),
        ],
    )
    def test_scalar_rows_match_csv_module(self, tmp_path, name, text):
        path = tmp_path / "obs.csv"
        path.write_bytes(text.encode())
        got = cli._read_observations(em.GAUSSIAN, str(path))
        want = _csv_module_reader(em.GAUSSIAN, path)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_mvn_rows_match_csv_module(self, tmp_path):
        path = tmp_path / "vecs.csv"
        path.write_text('1.5,-2\n\n"3", 4.25 \r\n5," 6"\n')
        fam = em.get_family("mvn", 2)
        got = cli._read_observations(fam, str(path))
        want = _csv_module_reader(fam, path)
        assert got.shape == want.shape == (3, 2)
        assert got.tobytes() == want.tobytes()

    def test_shortest_repr_floats_round_trip(self, tmp_path):
        rng = np.random.default_rng(17)
        values = np.concatenate(
            [rng.standard_normal(500) * 10.0 ** rng.integers(-300, 300, 500), [5e-324, 1.7976931348623157e308]]
        )
        path = tmp_path / "repr.csv"
        path.write_text("\n".join(map(repr, values.tolist())) + "\n")
        got = cli._read_observations(em.GAUSSIAN, str(path))
        assert got.tobytes() == values.tobytes()
        assert got.tobytes() == _csv_module_reader(em.GAUSSIAN, path).tobytes()

    @pytest.mark.parametrize(
        "family, text, message",
        [
            ("gaussian", "1\n2\n\n3,4\n5\n", "row 4 has 2 fields, expected 1"),
            ("gaussian", "0.1,0.2\n0.3,0.4\n", "row 1 has 2 fields, expected 1"),
            ("mvn", "1,2\n3,4\n5\n", "row 3 has 1 fields, expected 2"),
            ("gaussian", "1\n\n2\nabc\n", "row 4 is not numeric"),
            ("gaussian", "1\r\n2\r\n\r\n\r\nx\r\n", "row 5 is not numeric"),
            ("gaussian", "1\n2,\n", "row 2 is not numeric"),
            ("gaussian", "1\n   \n2\n", "row 2 is not numeric"),
            ("exponential", "1\n# a comment\n2\n", "row 2 is not numeric"),
            ("poisson", "1\n\n2.5\n3\n", "row 3: 2.5 is outside the support of poisson"),
            ("poisson", "1\n-2\n", "row 2: -2.0 is outside the support of poisson"),
            ("bernoulli", "0\n1\n\n\n2\n", "row 5: 2.0 is outside the support of bernoulli"),
            ("exponential", "", "contains no observations"),
            ("exponential", "\n\n", "contains no observations"),
        ],
    )
    def test_bad_input_names_its_line(self, tmp_path, capsys, family, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        argv = ["estimate", "--family", family, "--data", str(path)]
        if family == "mvn":
            argv += ["--dim", "2"]
        assert cli.run(argv) == 3
        assert message in capsys.readouterr().err

    def test_late_error_in_large_file(self, tmp_path):
        path = tmp_path / "big.csv"
        lines = ["1.0"] * 50_000
        lines[41_234] = "1.0,2.0"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DomainError, match="row 41235 has 2 fields"):
            cli._read_observations(em.EXPONENTIAL, str(path))


class TestColdStart:
    def test_estimate_entropy_divergence_never_import_scipy(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("1\n2\n4\n")
        script = f"""
import sys
from efmeasures import cli
assert cli.run(["estimate", "--family", "poisson", "--data", {str(path)!r}, "--measure", "shannon"]) == 0
assert cli.run(["entropy", "--family", "mvn", "--params", '{{"mu": [0, 1], "sigma": [[1, 0], [0, 2]]}}',
                "--measure", "renyi", "--alpha", "2"]) == 0
assert cli.run(["divergence", "--family", "gaussian", "--params", '{{"mu": 0, "var": 1}}',
                "--params2", '{{"mu": 1, "var": 2}}', "--measure", "kl"]) == 0
print("SCIPY", sorted(m for m in sys.modules if m.startswith("scipy")))
assert cli.run(["verify"]) == 0
print("SCIPY", sorted(m for m in sys.modules if m.startswith("scipy")))
"""
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        marks = [line for line in proc.stdout.splitlines() if line.startswith("SCIPY")]
        assert marks == ["SCIPY []", "SCIPY []"]

    def test_samplers_never_import_scipy(self):
        script = """
import sys
import numpy as np
import efmeasures as em
theta = em.POISSON.to_natural(em.PoissonParams(rate=80.0))
em.POISSON.sample(theta, 1000, seed=0)
em.POISSON.require_support(3)
em.POISSON.log_density_batch(theta, np.asarray([3]))
em.POISSON.log_density_batch(theta, np.arange(100.0))
em.GAUSSIAN.sample(em.GAUSSIAN.to_natural(em.GaussianParams(mu=0.0, var=1.0)), 1000, seed=0)
print(sorted(m for m in sys.modules if m.startswith("scipy")))
"""
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestVerifyCommand:
    def test_single_family_grid_passes(self):
        code, out, _ = run_cli("verify", "--family", "exponential")
        assert code == 0
        report = json.loads(out)
        assert report["all_pass"] is True
        assert all(row["pass"] for row in report["results"])
        assert all(row["oracle"]["evaluations"] > 0 for row in report["results"])

    def test_discrete_family_grid_passes(self):
        code, out, _ = run_cli("verify", "--family", "poisson")
        assert code == 0
        assert json.loads(out)["all_pass"] is True

    def test_rows_follow_the_measure_table(self):
        code, out, _ = run_cli("verify", "--family", "bernoulli")
        assert code == 0
        rows = json.loads(out)["results"]
        table = {m.name: m for m in em.measures.MEASURES}
        assert {r["measure"] for r in rows} == set(table)
        for row in rows:
            assert (row["alpha"] is not None) == (table[row["measure"]].order is not None)
        assert [r["measure"] for r in rows] == sorted(
            (r["measure"] for r in rows), key=em.measures.MEASURE_NAMES.index
        )

    @pytest.mark.parametrize("flag, value", [("--seed", "0"), ("--mc-samples", "10")])
    def test_removed_sampling_flags_are_usage_errors(self, capsys, flag, value):
        # No oracle backend samples, so verify takes no seed or sample count.
        with pytest.raises(SystemExit) as exc:
            cli.run(["verify", "--family", "mvn", flag, value])
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        assert f"unrecognized arguments: {flag} {value}" in err

    @pytest.mark.parametrize("value", ["0", "inf", "1e300", "2e-7"])
    def test_removed_abs_tol_flag_is_usage_error(self, capsys, value):
        # Every continuous oracle is an exact rule, with no tolerance to set.
        with pytest.raises(SystemExit) as exc:
            cli.run(["verify", "--family", "bernoulli", "--abs-tol", value])
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        assert f"unrecognized arguments: --abs-tol {value}" in err

    def test_abs_tol_cannot_widen_the_pass_band(self, capsys):
        # No flag sets a tolerance, and the Gaussian cells pass on their own
        # cubature bounds, each far below the old 1e-7 quadrature floor.
        with pytest.raises(SystemExit) as exc:
            cli.run(["verify", "--family", "gaussian", "--abs-tol", "1e300"])
        assert exc.value.code == 2
        capsys.readouterr()
        code, out, _ = run_cli("verify", "--family", "gaussian")
        report = json.loads(out)
        assert code == 0 and report["all_pass"] is True
        assert all(row["oracle"]["method"] == "cubature" for row in report["results"])
        assert max(row["oracle"]["error_bound"] for row in report["results"]) < 1e-9

    def test_reports_are_byte_identical_across_runs(self):
        args = ("verify", "--family", "mvn")
        _, first, _ = run_cli(*args)
        _, second, _ = run_cli(*args)
        assert first == second

    @pytest.mark.parametrize("family, nodes", [
        ("mvn", 9), ("gaussian", 5), ("exponential", 3), ("laplacian", 3)
    ])
    def test_seed_does_not_move_cubature_rows(self, family, nodes):
        # Each cell runs two cubature rules and samples nothing: the built-in mvn pair
        # is two-dimensional (symmetric rules of 4 + 5 nodes), a Gaussian runs the 2- and
        # 3-point Gauss-Hermite rules, an exponential or Laplacian the 1- and 2-point
        # Gauss-Laguerre ones.
        code, out, _ = run_cli("verify", "--family", family, "--output", "csv")
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        assert len(rows) == 31
        assert {(r["oracle_method"], r["oracle_evaluations"], r["pass"]) for r in rows} == {
            ("cubature", str(nodes), "true")
        }


class TestFamiliesCommand:
    def test_lists_all_families(self):
        code, out, _ = run_cli("families")
        assert code == 0
        report = json.loads(out)
        names = {entry["name"] for entry in report["families"]}
        assert names == {"exponential", "poisson", "bernoulli", "gaussian", "mvn", "laplacian"}
        for entry in report["families"]:
            assert {"log_normalizer", "sufficient_stat", "carrier", "natural", "support"} <= set(entry)
