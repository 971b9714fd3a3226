"""Tests for the repro-experiments CLI."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.cli import build_parser, main

REPO_ROOT = Path(__file__).resolve().parent.parent


def _cli_subprocess_env():
    """The current environment with this checkout's ``src`` importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    ).rstrip(os.pathsep)
    return env


class TestParser:
    def test_experiment_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sorting"])

    def test_defaults(self):
        args = build_parser().parse_args(["table1"])
        assert args.trials is None
        assert args.jobs == 1
        assert not args.full

    def test_all_flags(self):
        args = build_parser().parse_args(
            ["figure5", "--trials", "5", "--max-n", "64", "--jobs", "2", "--full"]
        )
        assert args.trials == 5 and args.max_n == 64 and args.jobs == 2
        assert args.full


class TestMain:
    def test_table1_smoke(self, capsys):
        assert main(["table1", "--trials", "5", "--max-n", "64"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "avg" in out

    def test_figure5_smoke(self, capsys):
        assert main(["figure5", "--trials", "5", "--max-n", "64"]) == 0
        assert "Figure 5" in capsys.readouterr().out

    def test_lambda_smoke(self, capsys):
        assert main(["lambda", "--trials", "5", "--max-n", "64"]) == 0
        assert "lam=2" in capsys.readouterr().out

    def test_runtime_smoke(self, capsys):
        assert main(["runtime", "--max-n", "32"]) == 0
        assert "Runtime study" in capsys.readouterr().out

    def test_nonpow2_smoke(self, capsys):
        assert main(["nonpow2", "--trials", "5"]) == 0
        assert "difference" in capsys.readouterr().out

    def test_csv_written(self, tmp_path, capsys):
        target = tmp_path / "out.csv"
        assert (
            main(
                ["table1", "--trials", "5", "--max-n", "64", "--csv", str(target)]
            )
            == 0
        )
        content = target.read_text()
        assert content.startswith("algorithm,")

    def test_bad_max_n_exits(self):
        with pytest.raises(SystemExit):
            main(["table1", "--trials", "5", "--max-n", "2"])

    def test_max_n_caps_each_experiments_own_grid(self, capsys):
        # the runtime grid starts at N=4 and the topology grid at N=16,
        # below the sweep grid's N=32
        assert main(["runtime", "--max-n", "16"]) == 0
        rows = [
            line.split("|")[0].strip()
            for line in capsys.readouterr().out.splitlines()
            if line.split("|")[0].strip().isdigit()
        ]
        assert rows == ["4", "8", "16"]
        assert main(["topology", "--max-n", "16"]) == 0
        assert "Topology study" in capsys.readouterr().out

    def test_max_n_is_ignored_without_an_n_grid(self, capsys):
        assert main(["worstcase", "--max-n", "8"]) == 0
        assert "tightness" in capsys.readouterr().out

    @pytest.mark.parametrize("experiment", ["distributions", "fault"])
    def test_max_n_below_an_experiments_grid_exits_1(self, experiment):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.experiments.cli", experiment,
             "--trials", "2", "--max-n", "16"],
            capture_output=True,
            text=True,
            timeout=120,
            cwd=REPO_ROOT,
            env=_cli_subprocess_env(),
        )
        assert proc.returncode == 1
        assert "--max-n 16 removes every N value" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_topology_smoke(self, capsys):
        assert main(["topology", "--max-n", "64"]) == 0
        assert "Topology study" in capsys.readouterr().out

    def test_worstcase_smoke(self, capsys):
        assert main(["worstcase"]) == 0
        assert "tightness" in capsys.readouterr().out

    def test_distributions_smoke(self, capsys):
        assert main(["distributions", "--trials", "5", "--max-n", "32"]) == 0
        assert "uniform" in capsys.readouterr().out

    def test_families_smoke(self, capsys):
        assert main(["families", "--trials", "40"]) == 0
        assert "fe_tree" in capsys.readouterr().out

    def test_variance_smoke(self, capsys):
        assert main(["variance", "--trials", "5", "--max-n", "64"]) == 0
        assert "CV" in capsys.readouterr().out

    def test_intervals_smoke(self, capsys):
        assert main(["intervals", "--trials", "5", "--max-n", "64"]) == 0
        assert "spread" in capsys.readouterr().out

    def test_env_full_scale(self, monkeypatch, capsys):
        # REPRO_FULL picks the paper grid; cap it via --max-n to stay fast
        monkeypatch.setenv("REPRO_FULL", "1")
        assert main(["table1", "--trials", "2", "--max-n", "64"]) == 0
        out = capsys.readouterr().out
        assert "2 trials" in out

    def test_fault_smoke(self, capsys):
        assert main(["fault", "--trials", "3", "--max-n", "32"]) == 0
        assert "Fault study" in capsys.readouterr().out

    def test_fault_csv_written(self, tmp_path, capsys):
        target = tmp_path / "fault.csv"
        assert (
            main(
                [
                    "fault",
                    "--trials",
                    "3",
                    "--max-n",
                    "32",
                    "--fault-rates",
                    "0.0,0.2",
                    "--csv",
                    str(target),
                ]
            )
            == 0
        )
        assert target.read_text().startswith("algorithm,")

    def test_journal_resume_round_trip(self, tmp_path, capsys):
        journal = tmp_path / "t1.jsonl"
        argv = [
            "table1",
            "--trials",
            "4",
            "--max-n",
            "64",
            "--journal",
            str(journal),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv + ["--resume"]) == 0
        assert capsys.readouterr().out == first


class TestErrorPaths:
    """Bad inputs exit non-zero with a one-line message, no traceback."""

    def _argparse_error(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        return err

    @pytest.mark.parametrize(
        "argv",
        [
            ["table1", "--trials", "0"],
            ["table1", "--trials", "-3"],
            ["table1", "--jobs", "0"],
            ["table1", "--jobs", "-1"],
            ["table1", "--deadline", "0"],
            ["table1", "--deadline", "-1"],
            ["table1", "--deadline", "nan"],
        ],
        ids=lambda argv: " ".join(argv[1:]),
    )
    def test_non_positive_counts_are_usage_errors(self, capsys, argv):
        err = self._argparse_error(capsys, argv)
        assert argv[1] in err and "positive" in err

    def test_alpha_out_of_range(self, capsys):
        err = self._argparse_error(
            capsys, ["fault", "--trials", "2", "--alpha", "0.7"]
        )
        assert "(0, 0.5]" in err

    def test_alpha_not_a_number(self, capsys):
        err = self._argparse_error(
            capsys, ["fault", "--trials", "2", "--alpha", "many"]
        )
        assert "(0, 0.5]" in err

    def test_fault_rates_out_of_range(self, capsys):
        err = self._argparse_error(
            capsys, ["fault", "--trials", "2", "--fault-rates", "0.1,1.5"]
        )
        assert "[0, 1]" in err

    def test_fault_rates_garbage(self, capsys):
        err = self._argparse_error(
            capsys, ["fault", "--trials", "2", "--fault-rates", "a,b"]
        )
        assert "comma-separated" in err

    def test_csv_to_missing_dir_fails_cleanly(self, tmp_path, capsys):
        target = tmp_path / "no" / "such" / "dir" / "out.csv"
        rc = main(
            ["table1", "--trials", "2", "--max-n", "64", "--csv", str(target)]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "cannot write csv" in err
        assert "Traceback" not in err

    def test_json_to_missing_dir_fails_cleanly(self, tmp_path, capsys):
        target = tmp_path / "no" / "such" / "dir" / "out.json"
        rc = main(
            ["table1", "--trials", "2", "--max-n", "64", "--json", str(target)]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "cannot write json" in err
        assert "Traceback" not in err


class TestCancellation:
    """The --deadline and SIGTERM cancel paths: exit 130, a [run report]
    stderr line, a resume hint, and a bit-identical --resume."""

    GRID = ["table1", "--trials", "256", "--max-n", "4096"]

    def plain_output(self, capsys):
        assert main(list(self.GRID)) == 0
        return capsys.readouterr().out

    def test_deadline_cancels_with_resume_hint(self, tmp_path, capsys):
        # transient chaos stretches the run (retries back off) so the
        # deadline reliably strikes
        journal = tmp_path / "t1.jsonl"
        rc = main(
            self.GRID
            + [
                "--journal", str(journal),
                "--chaos-profile", "transient",
                "--deadline", "0.15",
            ]
        )
        captured = capsys.readouterr()
        assert rc == 130, captured.err
        assert "run cancelled" in captured.err
        assert "[run report]" in captured.err
        assert "re-run with --resume" in captured.err
        assert journal.exists()

        # the resume completes the run and renders bit-identically
        assert main(self.GRID + ["--journal", str(journal), "--resume"]) == 0
        resumed = capsys.readouterr().out
        assert resumed == self.plain_output(capsys)

    def test_sigterm_cancels_subprocess_with_exit_130(self, tmp_path, capsys):
        import signal
        import time

        journal = tmp_path / "t1.jsonl"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.experiments.cli"]
            + self.GRID
            + ["--journal", str(journal), "--chaos-profile", "transient"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            cwd=REPO_ROOT,
            env=_cli_subprocess_env(),
        )
        try:
            # wait for real progress (journal header + >= 1 chunk), then
            # interrupt mid-sweep
            deadline = time.time() + 30
            while time.time() < deadline:
                if journal.exists() and len(
                    journal.read_text().splitlines()
                ) >= 2:
                    break
                if proc.poll() is not None:
                    break
                time.sleep(0.01)
            assert proc.poll() is None, proc.communicate()[1]
            proc.send_signal(signal.SIGTERM)
            _, stderr = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 130, stderr
        assert "run cancelled: SIGTERM received" in stderr
        assert "[run report]" in stderr
        assert "re-run with --resume" in stderr

        # completed chunks survive: the resume replays them and finishes
        # bit-identically to an uninterrupted run
        assert main(self.GRID + ["--journal", str(journal), "--resume"]) == 0
        resumed = capsys.readouterr().out
        assert resumed == self.plain_output(capsys)
