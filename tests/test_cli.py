"""Experiment harness: starts, pipelines, tables, config, exit codes."""

import json
from dataclasses import FrozenInstanceError

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
from mpcckit.alm import AlmConfig
from mpcckit.core import QuadraticMpcc, save_instance
from mpcckit.iocfem import IocParams
from mpcckit.nsnewton import NewtonConfig
from mpcckit.pgrad import PgradConfig


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


@pytest.fixture
def no_solve(monkeypatch):
    def forbidden(cfg):
        raise AssertionError("a problem was built")
    monkeypatch.setattr(cli, "_build_problem", forbidden)


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

    @pytest.mark.parametrize("stages, status", [
        (dict(newton=NewtonConfig(max_iters=0)),
         "alm_converged+nsn_max_iters"),
        (dict(alm=AlmConfig(max_outer_iters=1)),
         "alm_max_iters+nsn_converged"),
    ], ids=["newton-capped", "alm-capped"])
    def test_warmstart_status_names_both_stages_unless_both_converge(
            self, stages, status):
        cfg = ExperimentConfig(ioc=IocParams(n_div=2), algorithm="warmstart",
                               seeds=(1,), **stages)
        row = run_experiment(cfg)[0]
        assert row.status == status and not row.accepted
        assert row.alm_iterations >= 1 and row.nsn_iterations is not None

    def test_unknown_instance_rejected(self):
        with pytest.raises(ValueError):
            run_experiment(ExperimentConfig(instance="bogus"))

    def test_unknown_algorithm_rejected(self, toy_instance_path):
        with pytest.raises(ValueError, match=r"ExperimentConfig\.algorithm"):
            ExperimentConfig(instance=f"file:{toy_instance_path}",
                             algorithm="simplex")


class TestExperimentConfig:
    @pytest.mark.parametrize("name, value", [
        ("instance", "bogus"), ("instance", "file:"), ("instance", None),
        ("algorithm", "simplex"), ("algorithm", None),
        ("seeds", ()), ("seeds", [-1]), ("seeds", [2 ** 128]),
        ("seeds", [True]), ("seeds", [1.0]), ("seeds", 3), ("seeds", "12"),
        ("out", "rows.txt"), ("out", "rows"), ("out", 5),
        ("warmstart_tau", -1.0), ("warmstart_tau", np.nan),
        ("classify_tol", -1.0), ("classify_tol", np.nan),
        ("classify_tol", np.inf), ("classify_tol", "x"),
    ])
    def test_bad_value_is_rejected_at_construction_naming_its_field(
            self, name, value):
        with pytest.raises(ValueError,
                           match=rf"ExperimentConfig\.{name} must be"):
            ExperimentConfig(**{name: value})

    @pytest.mark.parametrize("name, value, kind", [
        ("ioc", {"n_div": 2}, "IocParams"),
        ("alm", {"tau_alm": 5}, "AlmConfig"),
        ("newton", None, "NewtonConfig"),
        ("pgrad", AlmConfig(), "PgradConfig"),
    ], ids=["ioc", "alm", "newton", "pgrad"])
    def test_section_of_another_type_is_rejected_naming_its_field(
            self, name, value, kind):
        # a dict in place of AlmConfig used to run, ignored under newton
        # and failing in the ALM stage under alm
        with pytest.raises(ValueError) as err:
            ExperimentConfig(**{"ioc": IocParams(n_div=2), "seeds": (1,),
                                "algorithm": "alm", name: value})
        assert str(err.value) == (f"ExperimentConfig.{name} must be of type "
                                  f"{kind}, got {value!r}")

    def test_values_at_the_edge_of_their_range_are_accepted(self):
        cfg = ExperimentConfig(instance="file:x.json", seeds=[0, 2 ** 128 - 1],
                               out="t.md", warmstart_tau=0, classify_tol=0.0)
        assert cfg.seeds == (0, 2 ** 128 - 1)

    @pytest.mark.parametrize("cfg, name, value", [
        (AlmConfig(), "tau_alm", -1.0), (NewtonConfig(), "max_iters", 5),
        (PgradConfig(), "step_bounds", (1.0, 0.5)),
        (ExperimentConfig(), "algorithm", "newton"),
    ], ids=["alm", "newton", "pgrad", "experiment"])
    def test_fields_cannot_be_assigned(self, cfg, name, value):
        with pytest.raises(FrozenInstanceError):
            setattr(cfg, name, value)

    def test_assigned_algorithm_raises_before_the_run(self, no_solve):
        cfg = ExperimentConfig(ioc=IocParams(n_div=2), seeds=(1,))
        with pytest.raises(FrozenInstanceError):
            cfg.algorithm = "simplex"
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
                "--out", str(out)]
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
                     "--out", str(out)]) == 0
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
            "alm": {"tau_alm": 1e-7},
        }))
        # the command-line algorithm wins over the file value
        assert main(["--config", str(cfg_path),
                     "--algorithm", "newton"]) == 0
        parsed = read_table_csv(out)
        assert len(parsed) == 1
        assert parsed[0]["algorithm"] == "newton"
        assert parsed[0]["seed"] == "5"

    @pytest.mark.parametrize("fmt", ["csv", "md"])
    def test_out_suffix_names_the_table_format(self, toy_instance_path,
                                               tmp_path, fmt):
        instance = f"file:{toy_instance_path}"
        out = tmp_path / f"rows.{fmt}"
        assert main(["--instance", instance, "--algorithm", "newton",
                     "--seed-list", "1,2", "--out", str(out)]) == 0
        rows = run_experiment(ExperimentConfig(
            instance=instance, algorithm="newton", seeds=(1, 2)))
        assert out.read_text() == format_table(rows, fmt)

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


_SEEDS_ERROR = (r"ExperimentConfig\.seeds must be a non-empty list or tuple "
                r"of integers")
_WARMSTART_TAU = r"ExperimentConfig\.warmstart_tau must be"
_CLASSIFY_TOL = r"ExperimentConfig\.classify_tol must be"


class TestConfigMerge:
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
        with pytest.raises(ValueError) as err:
            main(["--config", cfg_path])
        assert str(err.value) == (
            "unknown config key(s) ['algoritm'] (expected some of "
            "('instance', 'algorithm', 'seeds', 'out', 'warmstart_tau', "
            "'classify_tol', 'ioc', 'alm', 'newton', 'pgrad'))")

    def test_unknown_section_key_rejected_before_solving(
            self, toy_instance_path, tmp_path, no_solve):
        cfg_path = self._write(tmp_path, {
            "instance": f"file:{toy_instance_path}",
            "alm": {"tau": 1e-3},
            "seeds": [1],
        })
        with pytest.raises(ValueError, match="'alm'.*tau"):
            main(["--config", cfg_path])

    @pytest.mark.parametrize("doc, flags", [
        ({}, ["--seeds", "0"]),
        ({"seeds": []}, []),
    ])
    def test_empty_seed_set_rejected_before_solving(
            self, toy_instance_path, tmp_path, no_solve, doc, flags):
        cfg_path = self._write(tmp_path, {
            "instance": f"file:{toy_instance_path}", **doc})
        with pytest.raises(ValueError, match=_SEEDS_ERROR):
            main(["--config", cfg_path] + flags)

    @pytest.mark.parametrize("doc, match", [
        ({"seeds": [1.5]}, _SEEDS_ERROR), ({"seeds": [True]}, _SEEDS_ERROR),
        ({"seeds": ["2"]}, _SEEDS_ERROR), ({"seeds": 2}, _SEEDS_ERROR),
        ({"n_seeds": 2}, "unknown config key"),
    ], ids=["seed-float", "seed-bool", "seed-string", "seeds-a-number",
            "count"])
    def test_seeds_that_are_not_integers_rejected_before_solving(
            self, toy_instance_path, tmp_path, no_solve, doc, match):
        cfg_path = self._write(tmp_path, {
            "instance": f"file:{toy_instance_path}", **doc})
        with pytest.raises(ValueError, match=match):
            main(["--config", cfg_path])

    @pytest.mark.parametrize("ioc, field", [
        ({"n_div": 2.5}, "n_div"), ({"n_div": 0}, "n_div"),
        ({"alpha": -1.0}, "alpha"), ({"alpha": 0}, "alpha"),
        ({"w_a": float("nan")}, "w_a"), ({"u_a": float("inf")}, "u_a"),
        ({"zeta": "1"}, "zeta"), ({"u_obs": True}, "u_obs"),
        ({"y_d": None}, "y_d"),
    ])
    def test_bad_ioc_setting_rejected_before_solving(self, tmp_path,
                                                     no_solve, ioc, field):
        with pytest.raises(ValueError, match=rf"IocParams\.{field} must be"):
            main(["--config", self._write(tmp_path, {"ioc": ioc})])

    def test_seed_count_and_seed_list_flags_are_a_usage_error(self, no_solve,
                                                              capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--seeds", "3", "--seed-list", "2"])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["2.5", "two", ""])
    def test_seed_count_flag_of_a_non_integer_rejected(self, no_solve, capsys,
                                                       text):
        with pytest.raises(SystemExit) as exc:
            main(["--seeds", text])
        assert exc.value.code == 2
        assert "argument --seeds: invalid" in capsys.readouterr().err

    def test_seed_list_flag_of_non_integers_rejected(self, no_solve, capsys):
        with pytest.raises(SystemExit):
            main(["--seed-list", "1,1.5"])
        assert "not a comma-separated list of integers" in \
            capsys.readouterr().err

    def test_wa_with_a_file_instance_rejected_before_solving(
            self, toy_instance_path, tmp_path, no_solve):
        instance = f"file:{toy_instance_path}"
        with pytest.raises(ValueError, match="no effect on instance"):
            main(["--instance", instance, "--wa", "-0.05"])
        cfg_path = self._write(tmp_path, {"instance": instance,
                                          "ioc": {"w_a": -0.05}})
        with pytest.raises(ValueError, match="no effect on instance"):
            main(["--config", cfg_path])

    @pytest.mark.parametrize("doc, match", [
        ([], "must hold a JSON object, got list"),
        ("x", "must hold a JSON object, got str"),
        ({"ioc": 5}, "section 'ioc' must be a JSON object or null, got int"),
        ({"alm": [1]},
         "section 'alm' must be a JSON object or null, got list"),
    ], ids=["list", "string", "ioc-number", "alm-list"])
    def test_config_of_the_wrong_shape_rejected_before_solving(
            self, tmp_path, no_solve, doc, match):
        with pytest.raises(ValueError, match=match):
            main(["--config", self._write(tmp_path, doc)])

    @pytest.mark.parametrize("doc, flags", [
        ({"algorithm": "warmstart", "alm": {"tau_alm": 0.5}}, []),
        ({"alm": {"tau_alm": 1e-6}}, ["--algorithm", "warmstart"]),
    ], ids=["file", "flag"])
    def test_alm_tolerance_under_the_warm_start_rejected_before_solving(
            self, tmp_path, no_solve, doc, flags):
        with pytest.raises(ValueError,
                           match="alm.tau_alm has no effect.*warmstart_tau"):
            main(["--config", self._write(tmp_path, doc)] + flags)

    @pytest.mark.parametrize("doc, flags", [
        ({"ioc": {"n_div": 4, "w_a": 0.0}, "algorithm": "newton",
          "seeds": [1]}, []),
        ({"ioc": {}}, []),
        ({}, ["--wa", "0"]),
    ], ids=["ioc-section", "empty-ioc-section", "wa-zero"])
    def test_ioc_setting_with_a_file_instance_rejected_before_solving(
            self, toy_instance_path, tmp_path, no_solve, doc, flags):
        cfg_path = self._write(tmp_path, {
            "instance": f"file:{toy_instance_path}", **doc})
        with pytest.raises(ValueError, match="no effect on instance"):
            main(["--config", cfg_path] + flags)

    def test_unknown_format_rejected_before_solving(self, toy_instance_path,
                                                    tmp_path, no_solve):
        out = tmp_path / "rows.html"
        cfg_path = self._write(tmp_path, {
            "instance": f"file:{toy_instance_path}",
            "seeds": [1],
            "out": str(out),
        })
        with pytest.raises(ValueError, match="html"):
            main(["--config", cfg_path])
        assert not out.exists()

    @pytest.mark.parametrize("name", ["rows", "rows.csv.txt"])
    def test_out_name_without_a_table_suffix_rejected_before_solving(
            self, toy_instance_path, tmp_path, no_solve, name):
        out = tmp_path / name
        with pytest.raises(ValueError, match=r"ExperimentConfig\.out must be "
                           r"None or a name that ends in \.csv or \.md"):
            main(["--instance", f"file:{toy_instance_path}",
                  "--seed-list", "1", "--out", str(out)])
        assert list(tmp_path.iterdir()) == [tmp_path / "toy.json"]

    def test_format_flag_is_a_usage_error(self, no_solve, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--format", "md"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --format" in capsys.readouterr().err

    @pytest.mark.parametrize("doc", [{"wa": -0.05}, {"format": "csv"}],
                             ids=["wa", "format"])
    def test_former_wa_and_format_keys_are_unknown(self, tmp_path, no_solve,
                                                   doc):
        with pytest.raises(ValueError, match="unknown config key"):
            main(["--config", self._write(tmp_path, doc)])

    @pytest.mark.parametrize("doc, field", [
        ({"newton": {"tau_nsn": -1.0}}, "tau_nsn"),
        ({"newton": {"max_iters": -5}}, "max_iters"),
        ({"alm": {"gamma": 0.5}}, "gamma"),
        ({"alm": {"slack_mode": "nope"}}, "slack_mode"),
        ({"pgrad": {"memory_length": 0}}, "memory_length"),
        ({"algorithm": "warmstart", "warmstart_tau": -1.0}, _WARMSTART_TAU),
        ({"algorithm": "alm", "warmstart_tau": -1.0}, _WARMSTART_TAU),
        ({"algorithm": "newton", "seeds": [1], "classify_tol": -1.0},
         _CLASSIFY_TOL),
        ({"classify_tol": float("nan")}, _CLASSIFY_TOL),
        ({"classify_tol": "x"}, _CLASSIFY_TOL),
        ({"seeds": [-1]}, _SEEDS_ERROR),
    ], ids=["newton", "newton-count", "alm", "alm-mode", "pgrad",
            "warmstart-tau", "warmstart-tau-unused", "tol-negative",
            "tol-nan", "tol-string", "seed-negative"])
    def test_bad_solver_setting_rejected_before_solving(
            self, toy_instance_path, tmp_path, no_solve, doc, field):
        cfg_path = self._write(tmp_path, {
            "instance": f"file:{toy_instance_path}", **doc})
        with pytest.raises(ValueError, match=field):
            main(["--config", cfg_path])

    @pytest.mark.parametrize("file_seeds, flag, expected", [
        ({"seeds": [5, 6, 7]}, ["--seeds", "2"], ["1", "2"]),
        ({"seeds": [1, 2, 3]}, ["--seed-list", "7"], ["7"]),
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
