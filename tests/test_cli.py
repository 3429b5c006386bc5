"""Experiment harness: starts, pipelines, tables, config, exit codes."""

import json

import numpy as np
import pytest

from mpcckit import cli
from mpcckit.cli import (
    ExperimentConfig,
    ResultRow,
    format_table,
    main,
    make_start,
    read_table_csv,
    run_experiment,
)
from mpcckit.core import QuadraticMpcc, save_instance


def _toy_problem():
    return QuadraticMpcc.build(Q=2 * np.eye(2), q=[-2.0, -2.0], c0=2.0,
                               A_G=[[1.0, 0.0]], b_G=[0.0],
                               A_H=[[0.0, 1.0]], b_H=[0.0],
                               coordinate_selection=True)


@pytest.fixture
def toy_instance_path(tmp_path):
    path = tmp_path / "toy.json"
    save_instance(_toy_problem(), path)
    return str(path)


class TestMakeStart:
    def test_same_seed_is_bit_identical(self):
        p = _toy_problem()
        x1, _ = make_start(p, 3)
        x2, _ = make_start(p, 3)
        np.testing.assert_array_equal(x1, x2)

    def test_multipliers_start_at_zero(self):
        p = _toy_problem()
        _, m0 = make_start(p, 1)
        for name in ("lam", "eta", "mu", "nu"):
            assert np.all(getattr(m0, name) == 0.0)

    def test_distinct_seeds_differ(self):
        p = _toy_problem()
        x1, _ = make_start(p, 1)
        x2, _ = make_start(p, 2)
        assert np.any(x1 != x2)

    def test_dimension_tracks_problem(self):
        p = _toy_problem()
        x0, _ = make_start(p, 5)
        assert x0.shape == (p.n,)


class TestRunExperiment:
    def test_single_seed_alm_row(self, toy_instance_path):
        cfg = ExperimentConfig(instance=f"file:{toy_instance_path}",
                               algorithm="alm", seeds=(1,))
        rows = run_experiment(cfg)
        assert len(rows) == 1
        row = rows[0]
        assert row.status == "converged" and row.accepted
        assert row.alm_iterations >= 1
        assert row.is_m is True
        assert row.resid_m <= 1e-4
        assert row.nsn_iterations is None

    def test_newton_rows_in_seed_order(self, toy_instance_path):
        cfg = ExperimentConfig(instance=f"file:{toy_instance_path}",
                               algorithm="newton", seeds=(2, 1))
        rows = run_experiment(cfg)
        assert [r.seed for r in rows] == [2, 1]
        for row in rows:
            assert row.status == "converged"
            assert row.nsn_full_steps + row.nsn_damped_steps \
                + row.nsn_gradient_steps == row.nsn_iterations

    def test_warmstart_populates_both_blocks(self, toy_instance_path):
        cfg = ExperimentConfig(instance=f"file:{toy_instance_path}",
                               algorithm="warmstart", seeds=(1,))
        row = run_experiment(cfg)[0]
        assert row.status == "converged"
        assert row.alm_iterations is not None
        assert row.nsn_iterations is not None
        assert row.nsn_value == pytest.approx(1.0, abs=1e-6)

    def test_unknown_instance_rejected(self):
        with pytest.raises(ValueError):
            run_experiment(ExperimentConfig(instance="bogus"))

    def test_unknown_algorithm_rejected(self, toy_instance_path):
        cfg = ExperimentConfig(instance=f"file:{toy_instance_path}",
                               algorithm="simplex")
        with pytest.raises(ValueError):
            run_experiment(cfg)


class TestTables:
    def _rows(self, k=10):
        return [ResultRow(seed=i + 1, algorithm="alm", status="converged",
                          alm_iterations=12 + i, alm_value=1.23456789,
                          alm_time_s=0.5, alm_rho=4.4e6, resid_m=1e-9,
                          is_m=True)
                for i in range(k)]

    def test_csv_has_header_plus_one_line_per_row(self):
        text = format_table(self._rows(10), "csv")
        assert len(text.strip().split("\n")) == 11

    def test_markdown_starts_with_pipe(self):
        text = format_table(self._rows(3), "md")
        assert text.startswith("|")

    def test_csv_roundtrip_to_six_digits(self, tmp_path):
        rows = self._rows(4)
        path = tmp_path / "t.csv"
        path.write_text(format_table(rows, "csv"))
        parsed = read_table_csv(path)
        assert len(parsed) == 4
        for row, rec in zip(rows, parsed):
            assert int(rec["seed"]) == row.seed
            assert float(rec["alm_value"]) == pytest.approx(
                row.alm_value, rel=1e-5)
            assert float(rec["alm_rho"]) == pytest.approx(row.alm_rho)
            assert rec["is_m"] == "true"
            assert rec["nsn_iterations"] == ""

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            format_table(self._rows(1), "html")


class TestMain:
    def test_end_to_end_csv_and_determinism(self, toy_instance_path, tmp_path,
                                            capsys):
        out = tmp_path / "rows.csv"
        argv = ["--instance", f"file:{toy_instance_path}",
                "--algorithm", "alm", "--seed-list", "1,2",
                "--out", str(out), "--format", "csv"]
        assert main(argv) == 0
        first = out.read_bytes()
        assert len(first.decode().strip().split("\n")) == 3
        assert capsys.readouterr().out.startswith("|")
        assert main(argv) == 0
        assert out.read_bytes() == first

    def test_seed_count_flag(self, toy_instance_path, tmp_path):
        out = tmp_path / "rows.csv"
        assert main(["--instance", f"file:{toy_instance_path}",
                     "--algorithm", "newton", "--seeds", "3",
                     "--out", str(out), "--format", "csv"]) == 0
        parsed = read_table_csv(out)
        assert [rec["seed"] for rec in parsed] == ["1", "2", "3"]

    def test_config_file_with_flag_override(self, toy_instance_path,
                                            tmp_path):
        cfg_path = tmp_path / "cfg.json"
        out = tmp_path / "rows.csv"
        cfg_path.write_text(json.dumps({
            "instance": f"file:{toy_instance_path}",
            "algorithm": "alm",
            "seeds": [5],
            "out": str(out),
            "format": "csv",
            "alm": {"tau_alm": 1e-7},
        }))
        # the command-line algorithm wins over the file value
        assert main(["--config", str(cfg_path),
                     "--algorithm", "newton"]) == 0
        parsed = read_table_csv(out)
        assert len(parsed) == 1
        assert parsed[0]["algorithm"] == "newton"
        assert parsed[0]["seed"] == "5"

    def test_exit_code_reflects_unaccepted_runs(self, toy_instance_path,
                                                tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "instance": f"file:{toy_instance_path}",
            "algorithm": "alm",
            "seeds": [1],
            "alm": {"max_outer_iters": 0},
        }))
        assert main(["--config", str(cfg_path)]) == 1


class TestConfigMerge:
    @pytest.fixture
    def no_solve(self, monkeypatch):
        def forbidden(cfg):
            raise AssertionError("a problem was built")
        monkeypatch.setattr(cli, "_build_problem", forbidden)

    def _write(self, tmp_path, doc):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_unknown_key_rejected_before_solving(self, toy_instance_path,
                                                 tmp_path, no_solve):
        cfg_path = self._write(tmp_path, {
            "instance": f"file:{toy_instance_path}",
            "algoritm": "newton",
            "seeds": [1],
        })
        with pytest.raises(ValueError, match="algoritm"):
            main(["--config", cfg_path])

    def test_unknown_format_rejected_before_solving(self, toy_instance_path,
                                                    tmp_path, no_solve):
        out = tmp_path / "rows.html"
        cfg_path = self._write(tmp_path, {
            "instance": f"file:{toy_instance_path}",
            "seeds": [1],
            "out": str(out),
            "format": "html",
        })
        with pytest.raises(ValueError, match="html"):
            main(["--config", cfg_path])
        assert not out.exists()

    @pytest.mark.parametrize("file_seeds, flag, expected", [
        ({"seeds": [5, 6, 7]}, ["--seeds", "2"], ["1", "2"]),
        ({"n_seeds": 3}, ["--seed-list", "7"], ["7"]),
    ])
    def test_seed_flags_override_file_seeds(self, toy_instance_path,
                                            tmp_path, file_seeds, flag,
                                            expected):
        out = tmp_path / "rows.csv"
        cfg_path = self._write(tmp_path, {
            "instance": f"file:{toy_instance_path}",
            "algorithm": "newton",
            "out": str(out),
            **file_seeds,
        })
        assert main(["--config", cfg_path] + flag) == 0
        assert [rec["seed"] for rec in read_table_csv(out)] == expected
