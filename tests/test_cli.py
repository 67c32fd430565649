"""Command-line interface: argument handling, file output and exit codes."""

import json

import numpy as np
import pytest

from modirect import cli
from modirect.cases import report_from_json
from modirect.errors import NumericalFailureError

FAST = ["--evals", "300", "--noise", "0"]


class TestRunCommand:
    def test_writes_report_and_history(self, tmp_path):
        out = tmp_path / "report.json"
        code = cli.main(["run", "--case", "1", *FAST, "--out", str(out)])
        assert code == 0
        report = report_from_json(out.read_text())
        assert report.config.case_id == "1"
        assert report.config.max_evals == 300
        history = out.with_suffix(".history.csv").read_text().splitlines()
        assert history[0] == "evaluations,mean_mdlac_freq,mean_mdlac_mode"

    def test_stdout_when_no_out(self, capsys):
        assert cli.main(["run", "--case", "1", *FAST]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["config"]["case_id"] == "1"

    def test_config_file_with_flag_override(self, tmp_path):
        config_path = tmp_path / "case.json"
        config_path.write_text(json.dumps({
            "n_elements": 2, "damages": [[1, 0.1]], "q_frequencies": 3,
            "noise_sigma": 0.0, "max_evals": 200}))
        out = tmp_path / "r.json"
        code = cli.main(["run", "--case", "custom", "--config", str(config_path),
                         "--evals", "400", "--out", str(out)])
        assert code == 0
        report = report_from_json(out.read_text())
        assert report.config.n_elements == 2
        assert report.config.max_evals == 400  # flag wins over file

    def test_unknown_case_exits_one(self, capsys):
        assert cli.main(["run", "--case", "9", *FAST]) == 1
        assert "error" in capsys.readouterr().err

    def test_invalid_config_value_exits_one(self, capsys, tmp_path):
        config_path = tmp_path / "bad.json"
        config_path.write_text(json.dumps({"noise_sigma": -1.0}))
        code = cli.main(["run", "--case", "1", "--config", str(config_path)])
        assert code == 1

    def test_numerical_failure_exits_two(self, capsys, monkeypatch):
        def boom(config, **kwargs):
            raise NumericalFailureError("synthetic breakdown")

        monkeypatch.setattr(cli, "run_case", boom)
        assert cli.main(["run", "--case", "1", *FAST]) == 2
        assert "numerical failure" in capsys.readouterr().err

    def test_linalg_failure_exits_two(self, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("synthetic breakdown")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        assert cli.main(["run", "--case", "1", *FAST]) == 2
        assert "synthetic breakdown" in capsys.readouterr().err


class TestCompareCommand:
    def test_csv_output(self, tmp_path):
        out = tmp_path / "table.csv"
        code = cli.main(["compare", "--case", "1", *FAST, "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "algorithm,element_3,element_14"
        assert lines[1].startswith("true,0.09,0.05")
        assert len(lines) == 6  # header, truth, four strategies


class TestSweepCommand:
    def test_per_seed_rows(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = cli.main(["sweep", "--case", "1", "--seeds", "2", "--evals", "300",
                        "--seed", "3", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("seed,element_1,")
        assert [row.split(",")[0] for row in lines[1:]] == ["3", "4"]
        values = np.array([[float(v) for v in row.split(",")[1:]]
                           for row in lines[1:]])
        assert values.shape == (2, 15)

    def test_missing_seeds_flag(self):
        assert cli.main(["sweep", "--case", "1", *FAST]) == 1
