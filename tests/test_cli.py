import csv
import inspect
import io
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_netformat import spliced_networks

from coarsebn import cli, likelihoods
from coarsebn.netformat import read_network
from coarsebn.util import fixture_path

BASIC = str(fixture_path("basic.net"))
ASIA = str(fixture_path("asia.net"))
MECH = str(fixture_path("basic_mech.net"))
COARSE = str(fixture_path("basic_coarse.csv"))


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "coarsebn", *args],
        capture_output=True,
        text=True,
    )


def parsed(stdout, key):
    for line in stdout.splitlines():
        parts = line.split()
        if parts and parts[0] == key:
            return float(parts[1])
    raise AssertionError(f"{key!r} not in output:\n{stdout}")


class TestLik:
    def test_sat_on_fixture(self):
        out = run_cli("lik", "--net", BASIC, "--data", COARSE, "--which", "sat")
        assert out.returncode == 0
        assert abs(parsed(out.stdout, "per_case_average") - (-1.1059)) < 5e-4

    def test_fv_and_car(self):
        fv = run_cli("lik", "--net", BASIC, "--data", COARSE, "--which", "fv")
        car = run_cli("lik", "--net", BASIC, "--data", COARSE, "--which", "car")
        assert fv.returncode == car.returncode == 0
        gap = parsed(car.stdout, "per_case_average") - parsed(
            fv.stdout, "per_case_average"
        )
        assert gap == pytest.approx(-0.16254, abs=1e-4)

    def test_lr(self, tmp_path):
        theta1 = tmp_path / "theta1.net"
        run_cli(
            "learn", "--net-structure", BASIC, "--data", COARSE, "--method", "em",
            "--tol", "1e-10", "--seed", "0", "--out", str(theta1), "--unsmoothed",
        )
        out = run_cli(
            "lik", "--net", BASIC, "--data", COARSE, "--which", "lr",
            "--net-car", str(theta1),
        )
        assert out.returncode == 0
        assert parsed(out.stdout, "lr_statistic") == pytest.approx(0.0720, abs=1e-3)


ZERO_A = "network z\nnode A states a,b\nnode B states a,b\ncpt A : 1,0\ncpt B : 0.5,0.5\n"
HALF_A = "network z\nnode A states a,b\nnode B states a,b\ncpt A : 0.5,0.5\ncpt B : 0.5,0.5\n"


class TestLikZeroProbability:
    """A case b,? has probability zero where P(A=b) = 0: `lr` refuses the
    candidate, the single reports print -inf."""

    def files(self, tmp_path):
        (tmp_path / "zero.net").write_text(ZERO_A)
        (tmp_path / "half.net").write_text(HALF_A)
        (tmp_path / "d.csv").write_text("A,B\nb,?\na,a\na,a\n")
        return lambda name: str(tmp_path / name)

    @pytest.mark.parametrize(
        "sat, car, named",
        [("zero", "zero", "sat and car candidates"), ("half", "zero", "car candidate"),
         ("zero", "half", "sat candidate")],
    )
    def test_lr_exits_3_naming_the_candidate(self, tmp_path, capsys, sat, car, named):
        path = self.files(tmp_path)
        code = cli.main([
            "lik", "--net", path(f"{sat}.net"), "--net-car", path(f"{car}.net"),
            "--data", path("d.csv"), "--which", "lr",
        ])
        out, err = capsys.readouterr()
        assert code == 3 and out == ""
        assert "Traceback" not in err
        assert f"probability zero under the {named} (" in err

    @pytest.mark.parametrize("which", ["fv", "sat", "car"])
    def test_single_reports_print_minus_inf(self, tmp_path, capsys, which):
        path = self.files(tmp_path)
        argv = ["lik", "--net", path("zero.net"), "--data", path("d.csv"), "--which", which]
        code = cli.main(argv)
        assert code == 0
        assert parsed(capsys.readouterr().out, "per_case_average") == -np.inf


class TestLikStructureMismatch:
    def test_lr_with_other_structure_is_data_error(self, tmp_path):
        # same nodes and CPT shapes; C's parent is A in one network, B in the other
        paths = []
        for parent in "AB":
            lines = ["network abc"] + [f"node {n} states t,f" for n in "ABC"]
            lines += [f"parents C {parent}", "cpt A : 0.3,0.7", "cpt B : 0.6,0.4"]
            lines += [f"cpt C | {parent}=t : 0.9,0.1", f"cpt C | {parent}=f : 0.2,0.8"]
            path = tmp_path / f"c_of_{parent}.net"
            path.write_text("\n".join(lines) + "\n")
            paths.append(str(path))
        data = tmp_path / "abc.csv"
        data.write_text("A,B,C,__weight\nt,?,t,3\n?,f,?,2\nf,t,f,1\n")
        out = run_cli(
            "lik", "--net", paths[0], "--data", str(data), "--which", "lr",
            "--net-car", paths[1],
        )
        assert out.returncode == 2
        assert "Traceback" not in out.stderr + out.stdout
        assert "share one structure" in out.stderr


class TestLikTolerance:
    @pytest.mark.parametrize("tol", ["-1", "nan"])
    def test_negative_or_nan_sat_tol_is_data_error(self, tol):
        out = run_cli(
            "lik", "--net", BASIC, "--data", COARSE, "--which", "sat", "--tol", tol
        )
        assert out.returncode == 2
        assert "Traceback" not in out.stderr
        assert "tol must be a non-negative number" in out.stderr

    @pytest.mark.parametrize("which", ["fv", "car", "lr"])
    @pytest.mark.parametrize("tol", ["1e-6", "nan"])
    def test_tol_outside_sat_is_usage_error(self, which, tol):
        out = run_cli(
            "lik", "--net", BASIC, "--data", COARSE, "--which", which, "--tol", tol
        )
        assert out.returncode == 1
        assert "Traceback" not in out.stderr
        assert "--tol applies to --which sat only" in out.stderr

    @pytest.mark.parametrize("which", ["fv", "sat", "car"])
    def test_net_car_outside_lr_is_usage_error(self, which, capsys):
        argv = ["lik", "--net", BASIC, "--data", COARSE, "--which", which, "--net-car", BASIC]
        assert cli.main(argv) == 1
        assert "--net-car applies to --which lr only" in capsys.readouterr().err

    def test_sat_tol_defaults_to_1e_8(self, monkeypatch):
        tols = []
        solve = likelihoods.SatProfileProblem.solve

        def recorded(problem, *args, **kwargs):
            call = inspect.signature(solve).bind(problem, *args, **kwargs)
            call.apply_defaults()
            tols.append(call.arguments["tol"])
            return solve(problem, *args, **kwargs)

        monkeypatch.setattr(likelihoods.SatProfileProblem, "solve", recorded)
        argv = ["lik", "--net", BASIC, "--data", COARSE, "--which", "sat"]
        with redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
            assert cli.main(argv + ["--tol", "1e-6"]) == 0
        assert tols == [1e-8, 1e-6]


class TestLikEmptyData:
    @pytest.mark.parametrize("which", ["fv", "car", "sat", "lr"])
    def test_no_cases_is_data_error(self, tmp_path, which):
        d = tmp_path / "empty.csv"
        made = run_cli(
            "gen-data", "--net", BASIC, "--coarsening", "1:0.2:0.03",
            "--n", "0", "--seed", "0", "--out", str(d),
        )
        assert made.returncode == 0
        out = run_cli("lik", "--net", BASIC, "--data", str(d), "--which", which)
        assert out.returncode == 2
        assert "Traceback" not in out.stderr
        assert "total weight must be positive" in out.stderr


class TestEmptyData:
    @pytest.mark.parametrize("method", ["em", "aim"])
    def test_learn_is_data_error(self, tmp_path, method):
        d = tmp_path / "empty.csv"
        d.write_text("A,B\n")
        out = run_cli(
            "learn", "--net-structure", BASIC, "--data", str(d), "--method", method,
            "--seed", "0", "--out", str(tmp_path / "e.net"),
        )
        assert out.returncode == 2
        assert "Traceback" not in out.stderr
        assert "total weight must be positive" in out.stderr

    def test_eval_data_is_data_error(self, tmp_path):
        d = tmp_path / "empty.csv"
        d.write_text("A,B\n")
        out = run_cli("eval", "--truth", BASIC, "--estimate", BASIC, "--data", str(d))
        assert out.returncode == 2
        assert "Traceback" not in out.stderr
        assert "total weight must be positive" in out.stderr


def binary_chain(tmp_path, k, cases=50):
    """A k-node binary chain v0 -> v1 -> ... and `cases` cases, each with one
    missing value; returns the network and dataset paths."""
    lines = [f"network chain{k}"] + [f"node v{i} states a,b" for i in range(k)]
    lines += [f"parents v{i} v{i - 1}" for i in range(1, k)]
    lines.append("cpt v0 : 0.4,0.6")
    for i in range(1, k):
        lines += [f"cpt v{i} | v{i - 1}=a : 0.7,0.3", f"cpt v{i} | v{i - 1}=b : 0.2,0.8"]
    net = tmp_path / f"chain{k}.net"
    net.write_text("\n".join(lines) + "\n")
    rng = np.random.default_rng(0)
    rows = [",".join(f"v{i}" for i in range(k))]
    for c in range(cases):
        vals = ["a" if b else "b" for b in rng.integers(0, 2, size=k)]
        vals[c % k] = "?"
        rows.append(",".join(vals))
    data = tmp_path / f"chain{k}.csv"
    data.write_text("\n".join(rows) + "\n")
    return str(net), str(data)


class TestLikLargeJointSpace:
    @pytest.mark.parametrize("which", ["sat", "car", "lr"])
    def test_beyond_int64_is_budget_error(self, tmp_path, which):
        net, data = binary_chain(tmp_path, 64)
        out = run_cli("lik", "--net", net, "--data", data, "--which", which)
        assert out.returncode == 3
        assert "Traceback" not in out.stderr + out.stdout
        assert "too large to index" in out.stderr

    def test_aim_beyond_int64_is_budget_error(self, tmp_path):
        # the replica fitter refuses the space before it binds the data
        net, data = binary_chain(tmp_path, 64)
        out = run_cli(
            "learn", "--method", "aim", "--init", "uniform", "--net-structure", net,
            "--data", data, "--seed", "1", "--out", str(tmp_path / "e.net"),
        )
        assert out.returncode == 3
        assert "Traceback" not in out.stderr + out.stdout
        assert "too large to index" in out.stderr

    @pytest.mark.parametrize("which", ["car", "lr"])
    def test_car_runs_beyond_enum_budget(self, tmp_path, which):
        net, data = binary_chain(tmp_path, 22)  # 2^22 states, 100 members
        out = run_cli("lik", "--net", net, "--data", data, "--which", which)
        assert out.returncode == 0, out.stderr
        if which == "car":
            fv = run_cli("lik", "--net", net, "--data", data, "--which", "fv")
            # every pattern is its own: the car normalizer is log 1
            assert parsed(out.stdout, "total") == parsed(fv.stdout, "total")


class TestEvalBudget:
    def test_oversized_clique_exits_3(self, monkeypatch, capsys):
        from coarsebn import cli, inference

        monkeypatch.setattr(inference, "ENUM_BUDGET", 4)
        code = cli.main(["eval", "--truth", ASIA, "--estimate", ASIA])
        err = capsys.readouterr().err
        assert code == 3
        assert "Traceback" not in err
        assert "clique of 8 cells exceeds the budget 4" in err


class TestExitCodes:
    def test_missing_required_flag_is_usage(self):
        out = run_cli("lik", "--which", "sat")
        assert out.returncode == 1

    def test_unknown_subcommand_is_usage(self):
        out = run_cli("frobnicate")
        assert out.returncode == 1

    def test_bad_network_file_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.net"
        bad.write_text("network x\nnode A states t,f\ncpt A : 0.3,0.6\n")
        out = run_cli("lik", "--net", str(bad), "--data", COARSE, "--which", "fv")
        assert out.returncode == 2

    def test_eval_decomposed_mismatch_is_data_error(self, tmp_path):
        out = run_cli("eval", "--truth", BASIC, "--estimate", ASIA)
        assert out.returncode == 2

    def test_budget_exceeded_is_numerical(self, tmp_path):
        wide = tmp_path / "wide.net"
        lines = ["network wide"]
        for i in range(17):
            lines.append(f"node v{i} states a,b")
        for i in range(17):
            lines.append(f"cpt v{i} : 0.5,0.5")
        wide.write_text("\n".join(lines) + "\n")
        data = tmp_path / "d.csv"
        data.write_text(
            ",".join(f"v{i}" for i in range(17))
            + "\n"
            + ",".join("?" for _ in range(17))
            + "\n"
        )
        out = run_cli("lik", "--net", str(wide), "--data", str(data), "--which", "sat")
        assert out.returncode == 3


class TestGenData:
    def test_writes_dataset_and_mechanism(self, tmp_path):
        d = tmp_path / "d.csv"
        m = tmp_path / "m.net"
        out = run_cli(
            "gen-data", "--net", ASIA, "--coarsening", "2:0.1:0.05",
            "--n", "200", "--seed", "3", "--out", str(d),
            "--emit-mechanism", str(m),
        )
        assert out.returncode == 0
        assert 0.0 <= parsed(out.stdout, "missing_fraction") <= 1.0
        from coarsebn.data import read_dataset

        data = read_dataset(d)
        assert data.total_weight == 200
        mech = read_network(m)
        assert len(mech.nodes) == 16

    def test_deterministic_output(self, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            run_cli(
                "gen-data", "--net", ASIA, "--coarsening", "2:0.1:0.05",
                "--n", "100", "--seed", "11", "--out", str(path),
            )
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_bad_coarsening_string(self, tmp_path):
        out = run_cli(
            "gen-data", "--net", ASIA, "--coarsening", "nope",
            "--n", "10", "--seed", "0", "--out", str(tmp_path / "d.csv"),
        )
        assert out.returncode == 2

    def test_nan_sigma_is_one_format_error(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        code = cli.main([
            "gen-data", "--net", ASIA, "--coarsening", "2:0.1:nan",
            "--n", "10", "--seed", "0", "--out", str(out),
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert "sigma must be a nonnegative number; got nan" in err
        assert "augmentation" not in err
        assert not out.exists()


    def test_negative_n_is_data_error(self, tmp_path):
        d = tmp_path / "d.csv"
        out = run_cli(
            "gen-data", "--net", ASIA, "--coarsening", "2:0.1:0.05",
            "--n", "-1", "--seed", "0", "--out", str(d),
        )
        assert out.returncode == 2
        assert "Traceback" not in out.stderr
        assert "n must be a non-negative integer" in out.stderr
        assert not d.exists()


class TestLearnAndEval:
    def test_em_then_eval(self, tmp_path):
        d = tmp_path / "d.csv"
        run_cli(
            "gen-data", "--net", ASIA, "--coarsening", "2:0.1:0.05",
            "--n", "300", "--seed", "5", "--out", str(d),
        )
        est = tmp_path / "em.net"
        out = run_cli(
            "learn", "--net-structure", ASIA, "--data", str(d),
            "--method", "em", "--seed", "0", "--out", str(est),
            "--trace", str(tmp_path / "tr.csv"),
        )
        assert out.returncode == 0
        ev = run_cli("eval", "--truth", ASIA, "--estimate", str(est))
        assert ev.returncode == 0
        assert parsed(ev.stdout, "ce") >= 0.0
        with open(tmp_path / "tr.csv") as fh:
            header = fh.readline().strip().split(",")
        assert header == ["iteration", "loglik_per_unit", "excluded_weight"]

    def test_unsmoothed_plus_counts_equals_smoothed(self, tmp_path):
        d = tmp_path / "d.csv"
        run_cli(
            "gen-data", "--net", ASIA, "--coarsening", "0:0.1:0.05",
            "--n", "200", "--seed", "8", "--out", str(d),
        )
        raw = tmp_path / "raw.net"
        smoothed = tmp_path / "sm.net"
        counts = tmp_path / "c.csv"
        run_cli(
            "learn", "--net-structure", ASIA, "--data", str(d), "--method", "em",
            "--seed", "0", "--out", str(raw), "--unsmoothed",
            "--counts-out", str(counts),
        )
        run_cli(
            "learn", "--net-structure", ASIA, "--data", str(d), "--method", "em",
            "--seed", "0", "--out", str(smoothed),
        )
        a = run_cli(
            "eval", "--truth", ASIA, "--estimate", str(raw), "--counts", str(counts)
        )
        b = run_cli("eval", "--truth", ASIA, "--estimate", str(smoothed))
        assert parsed(a.stdout, "ce") == pytest.approx(
            parsed(b.stdout, "ce"), rel=1e-9
        )

    def test_aim_and_conservative(self, tmp_path):
        d = tmp_path / "d.csv"
        run_cli(
            "gen-data", "--net", BASIC, "--coarsening", "1:0.2:0.03",
            "--n", "300", "--seed", "2", "--out", str(d),
        )
        for method, extra in (
            ("aim", ["--z", "4"]),
            ("conservative", ["--restarts", "6", "--trace", str(tmp_path / "iv.csv")]),
        ):
            est = tmp_path / f"{method}.net"
            out = run_cli(
                "learn", "--net-structure", BASIC, "--data", str(d),
                "--method", method, "--seed", "1", "--out", str(est), *extra,
            )
            assert out.returncode == 0, out.stderr
            assert read_network(est) is not None


    @pytest.mark.parametrize("flag", ["--counts-out", "--unsmoothed"])
    def test_conservative_raw_estimate_flag_is_usage_error(self, tmp_path, capsys, flag):
        counts, out = tmp_path / "counts.csv", tmp_path / "c.net"
        argv = ["learn", "--net-structure", BASIC, "--data", COARSE, "--method",
                "conservative", "--seed", "1", "--out", str(out)]
        assert cli.main(argv + ([flag, str(counts)] if flag == "--counts-out" else [flag])) == 1
        assert "apply to --method em and aim only" in capsys.readouterr().err
        assert not counts.exists() and not out.exists()

    def test_aim_random_init_deterministic(self, tmp_path):
        d = tmp_path / "d.csv"
        run_cli(
            "gen-data", "--net", BASIC, "--coarsening", "1:0.2:0.03",
            "--n", "200", "--seed", "2", "--out", str(d),
        )
        texts = []
        for k in range(2):
            est = tmp_path / f"aim{k}.net"
            out = run_cli(
                "learn", "--net-structure", BASIC, "--data", str(d), "--method", "aim",
                "--init", "random", "--z", "2", "--seed", "5", "--out", str(est),
            )
            assert out.returncode == 0, out.stderr
            texts.append(est.read_text())
        assert texts[0] == texts[1]


    @pytest.mark.parametrize("method", ["em", "aim"])
    def test_zero_iterations_is_data_error(self, tmp_path, method):
        d = tmp_path / "d.csv"
        run_cli(
            "gen-data", "--net", BASIC, "--coarsening", "1:0.2:0.03",
            "--n", "50", "--seed", "2", "--out", str(d),
        )
        out = run_cli(
            "learn", "--net-structure", BASIC, "--data", str(d), "--method", method,
            "--max-iters", "0", "--seed", "1", "--out", str(tmp_path / "e.net"),
        )
        assert out.returncode == 2
        assert "Traceback" not in out.stderr
        assert "max_iters must be a positive integer" in out.stderr

    @pytest.mark.parametrize("method", ["em", "aim"])
    def test_unconverged_fit_warns_on_stderr(self, tmp_path, method):
        d = tmp_path / "d.csv"
        run_cli(
            "gen-data", "--net", ASIA, "--coarsening", "2:0.1:0.05",
            "--n", "200", "--seed", "3", "--out", str(d),
        )
        out = {}
        for iters in ("1", "200"):
            out[iters] = run_cli(
                "learn", "--net-structure", ASIA, "--data", str(d), "--method", method,
                "--max-iters", iters, "--seed", "1", "--out", str(tmp_path / f"{iters}.net"),
            )
            assert out[iters].returncode == 0, out[iters].stderr
        assert out["1"].stderr == f"{method} did not converge in --max-iters 1\n"
        assert out["1"].stdout.startswith(f"method {method} iterations 1 ")
        assert out["200"].stderr == ""  # converged: no warning
        assert int(out["200"].stdout.split()[3]) > 1

    @pytest.mark.parametrize("method", ["em", "aim"])
    def test_nan_tol_is_data_error(self, tmp_path, method):
        d = tmp_path / "d.csv"
        run_cli(
            "gen-data", "--net", BASIC, "--coarsening", "1:0.2:0.03",
            "--n", "50", "--seed", "2", "--out", str(d),
        )
        out = run_cli(
            "learn", "--net-structure", BASIC, "--data", str(d), "--method", method,
            "--tol", "nan", "--seed", "1", "--out", str(tmp_path / "e.net"),
        )
        assert out.returncode == 2
        assert "Traceback" not in out.stderr
        assert "tol must be a non-negative number" in out.stderr

    @pytest.mark.parametrize("weight", ["1e13", "1e300"])
    def test_aim_replicas_over_budget_exit_3(self, tmp_path, weight):
        # integer weights, so only the replica budget refuses them, before
        # the replicas are laid out
        d = tmp_path / "d.csv"
        d.write_text(f"A,B,__weight\nt,?,{weight}\nf,f,3\n")
        out = run_cli(
            "learn", "--method", "aim", "--init", "uniform", "--net-structure", BASIC,
            "--data", str(d), "--seed", "1", "--out", str(tmp_path / "e.net"),
        )
        assert out.returncode == 3
        assert "Traceback" not in out.stderr
        assert "replicas exceed the budget 1048576" in out.stderr

    @pytest.mark.parametrize(
        "row, what",
        [
            ("A,0", "expected node,row,count"),
            ("A,x,1", "row must be an integer"),
            ("A,7,1", "row 7 out of range"),
            ("A,0,lots", "count a number"),
            ("A,0,nan", "count must be a finite non-negative number"),
            ("A,0,inf", "count must be a finite non-negative number"),
            ("A,0,-1", "count must be a finite non-negative number"),
        ],
    )
    def test_eval_malformed_counts_row_is_data_error(self, tmp_path, row, what):
        counts = tmp_path / "c.csv"
        counts.write_text(f"node,row,count\nA,0,10\n{row}\n")
        out = run_cli("eval", "--truth", BASIC, "--estimate", BASIC, "--counts", str(counts))
        assert out.returncode == 2
        assert "Traceback" not in out.stderr
        assert f"{counts}, line 3" in out.stderr
        assert what in out.stderr


class TestExperiment:
    def test_csv_schema_and_determinism(self, tmp_path):
        outs = []
        for name in ("x.csv", "y.csv"):
            path = tmp_path / name
            out = run_cli(
                "experiment", "--net", BASIC, "--mechanism", MECH,
                "--n", "150", "--z", "4", "--runs", "2", "--seed", "21",
                "--out", str(path),
            )
            assert out.returncode == 0, out.stderr
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]
        with open(tmp_path / "x.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "run", "pct_missing", "ce_final_em", "ce_final_aim",
            "ce_diff", "mse_diff", "score",
        ]
        assert rows[-1][0] == "summary"
        assert len(rows) == 4  # header + 2 runs + summary

    def test_complete_data_degenerate(self, tmp_path):
        path = tmp_path / "c.csv"
        out = run_cli(
            "experiment", "--net", BASIC, "--coarsening", "0:0:0",
            "--n", "100", "--z", "3", "--runs", "1", "--seed", "5",
            "--out", str(path),
        )
        assert out.returncode == 0, out.stderr
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        header, run0 = rows[0], rows[1]
        row = dict(zip(header, run0))
        # with no missing cells both fitters see the same complete counts
        assert float(row["ce_diff"]) == 0.0
        assert float(row["mse_diff"]) == 0.0
        assert float(row["pct_missing"]) == 0.0
        # the terminal score on complete data is the empirical dependence
        # left over after fitting the factored structure: here the mutual
        # information of the sampled 2x2 table (zero only if it factorizes)
        from coarsebn.coarsen import CoarseningSpec, build_coarsening_network, generate_dataset
        from coarsebn.util import stable_child_seed

        rng = np.random.default_rng(stable_child_seed(5, 0))
        truth = read_network(BASIC)
        mech = build_coarsening_network(truth, CoarseningSpec(0, 0.0, 0.0), rng)
        data, _ = generate_dataset(mech, 100, rng)
        joint = np.zeros((2, 2))
        for pattern, w in data.cases:
            joint[0 if pattern[0] == "t" else 1, 0 if pattern[1] == "t" else 1] += w
        joint /= joint.sum()
        prod = np.outer(joint.sum(axis=1), joint.sum(axis=0))
        logs = np.log(joint / prod, out=np.zeros_like(joint), where=joint > 0)
        mi = float(np.sum(joint * logs))
        assert float(row["score"]) == pytest.approx(mi, abs=1e-9)

    def test_requires_mechanism_or_coarsening(self, tmp_path):
        out = run_cli(
            "experiment", "--net", BASIC, "--n", "10", "--z", "1",
            "--runs", "1", "--seed", "0", "--out", str(tmp_path / "z.csv"),
        )
        assert out.returncode == 1


    @pytest.mark.parametrize("flag", ["--n", "--z", "--runs"])
    def test_nonpositive_sizes_are_data_errors(self, tmp_path, flag):
        sizes = {"--n": "20", "--z": "2", "--runs": "1", flag: "0"}
        path = tmp_path / "s.csv"
        out = run_cli(
            "experiment", "--net", BASIC, "--mechanism", MECH,
            *[x for kv in sizes.items() for x in kv],
            "--seed", "3", "--out", str(path),
        )
        assert out.returncode == 2
        assert "Traceback" not in out.stderr
        assert f"{flag[2:]} must be a positive integer" in out.stderr
        assert not path.exists()

    def test_one_member_table_per_run(self, monkeypatch):
        # EM and AIM share the run's one bound dataset and its table
        from coarsebn import inference
        from coarsebn.coarsen import CoarseningSpec

        built = []
        init = inference.MemberTable.__init__
        monkeypatch.setattr(
            inference.MemberTable, "__init__", lambda self, *args: built.append(1) or init(self, *args)
        )
        cfg = cli.ExperimentConfig(
            net=read_network(fixture_path("asia.net")), coarsening=CoarseningSpec(2, 0.1, 0.05),
            n=200, z=2, runs=1, seed=4,
        )
        rows, failures = cli.run_experiment(cfg)
        assert len(rows) == 1 and not failures
        assert len(built) == 1

    def test_sizes_checked_before_any_run(self, monkeypatch):
        from coarsebn import cli
        from coarsebn.errors import DataError

        monkeypatch.setattr(cli, "generate_dataset", None)  # any run would fail
        for n, z, runs in ((0, 1, 1), (5, 0, 1), (5, 1, -1)):
            cfg = cli.ExperimentConfig(
                net=read_network(BASIC), coarsening=None, n=n, z=z, runs=runs,
                seed=0, mechanism=read_network(MECH),
            )
            with pytest.raises(DataError):
                cli.run_experiment(cfg)


class TestRandomize:
    def test_valid_and_deterministic(self, tmp_path):
        a, b = tmp_path / "a.net", tmp_path / "b.net"
        for path in (a, b):
            out = run_cli("randomize", "--net", ASIA, "--seed", "9", "--out", str(path))
            assert out.returncode == 0
        assert a.read_bytes() == b.read_bytes()
        from coarsebn.network import validate_network

        assert validate_network(read_network(a)) == []


class TestNegativeSeed:
    @pytest.mark.parametrize(
        "argv",
        [
            ["gen-data", "--net", ASIA, "--coarsening", "2:0.1:0.05", "--n", "5"],
            ["randomize", "--net", ASIA],
            ["learn", "--net-structure", BASIC, "--data", COARSE, "--method", "aim"],
            ["learn", "--net-structure", BASIC, "--data", COARSE, "--method", "em",
             "--init", "random"],
        ],
        ids=["gen-data", "randomize", "learn-aim", "learn-em-random"],
    )
    def test_is_usage_error(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert cli.main(argv + ["--seed", "-1", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "seed must be a non-negative integer; got '-1'" in err
        assert not out.exists()


class TestSatValueOnly:
    def test_cli_builds_no_certificate(self, capsys, monkeypatch):
        from coarsebn import likelihoods
        from coarsebn.data import read_dataset

        expect = likelihoods.exact_sat_profile_loglik(
            read_network(BASIC), read_dataset(COARSE)
        )
        monkeypatch.setattr(
            likelihoods.SatProfileProblem,
            "certificate_completion",
            lambda *a: pytest.fail("certificate built"),
        )
        assert cli.main(["lik", "--net", BASIC, "--data", COARSE, "--which", "sat"]) == 0
        out = capsys.readouterr().out
        assert parsed(out, "per_case_average") == float(f"{expect.per_case_average:.6g}")
        assert parsed(out, "total") == float(f"{expect.total:.6g}")


# ----------------------------------------------------------------------
# cli.main on drawn argument lists: small flags, short malformed files


def mostly(good, bad):
    """Draws from `good` nine times in ten, else from `bad`."""
    return st.integers(0, 9).flatmap(lambda i: good if i else bad)


NET_TEXTS = [Path(BASIC).read_text(), Path(ASIA).read_text(), Path(MECH).read_text()]
DATA_TEXTS = [
    Path(COARSE).read_text(),
    "A,B\nt,?\n?,f\nf,t\nt,t\n",
    "A,B,__weight\nt,?,2\n?,?,1\nf,f,3\n",
    "asia,smoke,either\nyes,?,no\n?,no,?\nno,yes,yes\n?,?,?\n",
]
CELLS = ["t", "f", "?", "u", "", "yes", "no", "1", "0", "-1", "nan", "2.5"]
HEADERS = ["A", "B", "C", "asia", "smoke", "either", "Z", "__weight", ""]
PRINTABLE = st.text(st.characters(blacklist_categories=("Cs",)), max_size=40)


@st.composite
def dataset_texts(draw):
    header = draw(st.lists(st.sampled_from(HEADERS), max_size=3))
    rows = draw(st.lists(st.lists(st.sampled_from(CELLS), max_size=4), max_size=5))
    return "\n".join(",".join(row) for row in [header] + rows) + "\n"


@st.composite
def counts_texts(draw):
    cells = st.sampled_from(["A", "B", "Q"] + CELLS)
    rows = draw(st.lists(st.lists(cells, max_size=4), max_size=3))
    return "\n".join(",".join(row) for row in [["node", "row", "count"]] + rows) + "\n"


FILES = {
    "net": mostly(st.sampled_from(NET_TEXTS), spliced_networks() | PRINTABLE),
    "net2": mostly(st.sampled_from(NET_TEXTS), spliced_networks()),
    "data": mostly(st.sampled_from(DATA_TEXTS), dataset_texts() | PRINTABLE),
    "counts": counts_texts(),
}
SEED = (["0", "3"], ["-1", "x"])
SMALL = (["1", "2", "3"], ["0", "-1"])
COARSENING = (["2:0.1:0.05", "1:0.5:0.1", "0:0:0"], ["-1:0.1:0.1", "1:2", "nope"])
OUT = (["@out.x"], ["@nodir/out.x"])
# Per subcommand, each flag's (good values, bad values); "@name" is a file
# in the example's directory, and None marks a flag without a value.
FLAGS = {
    "gen-data": {
        "--net": (["@net"], ["@missing"]), "--coarsening": COARSENING,
        "--n": SMALL, "--seed": SEED, "--out": OUT, "--emit-mechanism": (["@m.net"], []),
    },
    "learn": {
        "--net-structure": (["@net"], ["@data"]), "--data": (["@data"], ["@net"]),
        "--method": (["aim", "em", "conservative"], ["other"]),
        "--init": (["em", "uniform", "random", "net:@net2"], ["net:@missing", "bogus"]),
        "--z": SMALL, "--tol": (["1e-6", "0"], ["-1", "nan"]), "--max-iters": SMALL,
        "--restarts": SMALL, "--seed": SEED, "--out": OUT,
        "--trace": (["@trace.csv"], []), "--counts-out": (["@counts.csv"], []),
        "--unsmoothed": ([None], []),
    },
    "eval": {
        "--truth": (["@net"], []), "--estimate": (["@net2", "@net"], ["@data"]),
        "--counts": (["@counts"], []), "--method-tag": (["m"], []),
        "--data": (["@data"], []), "--out": OUT,
    },
    "lik": {
        "--net": (["@net"], []), "--data": (["@data"], []),
        "--which": (["fv", "sat", "car", "lr"], ["x"]), "--net-car": (["@net2"], []),
        "--tol": (["1e-6"], ["-1", "nan"]), "--out": OUT,
    },
    "experiment": {
        "--net": (["@net"], []), "--coarsening": COARSENING,
        "--mechanism": (["@net2"], []), "--n": SMALL, "--z": SMALL,
        "--runs": (["1", "2"], ["0"]), "--seed": SEED, "--out": OUT,
    },
    "randomize": {"--net": (["@net"], []), "--seed": SEED, "--out": OUT},
}


@st.composite
def cli_cases(draw):
    command = draw(st.sampled_from(sorted(FLAGS)))
    argv = [command]
    for flag, (good, bad) in FLAGS[command].items():
        if draw(st.integers(0, 15)):  # a flag, required or not, is left out 1 in 16
            value = draw(mostly(st.sampled_from(good), st.sampled_from(good + bad)))
            argv += [flag] if value is None else [flag, value]
    files = {name: draw(texts) for name, texts in FILES.items()}
    return argv, files


class TestMainFuzz:
    @given(case=cli_cases())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_every_outcome_is_an_exit_code(self, case):
        argv, files = case
        with tempfile.TemporaryDirectory() as tmp:
            for name, text in files.items():
                Path(tmp, name).write_text(text, encoding="utf-8")
            argv = [arg.replace("@", tmp + "/") for arg in argv]
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                code = cli.main(argv)
        assert code in (0, 1, 2, 3)
