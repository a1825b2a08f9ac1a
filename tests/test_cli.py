import csv
import subprocess
import sys

import numpy as np
import pytest

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
        out = run_cli(
            "eval", "--truth", BASIC, "--estimate", ASIA, "--mode", "decomposed"
        )
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


class TestRandomize:
    def test_valid_and_deterministic(self, tmp_path):
        a, b = tmp_path / "a.net", tmp_path / "b.net"
        for path in (a, b):
            out = run_cli("randomize", "--net", ASIA, "--seed", "9", "--out", str(path))
            assert out.returncode == 0
        assert a.read_bytes() == b.read_bytes()
        from coarsebn.network import validate_network

        assert validate_network(read_network(a)) == []
