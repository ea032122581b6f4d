import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from corrbound import (
    BOUND_IDS,
    ProbVector,
    bound_derivative,
    bound_eta,
    bound_main,
    bound_multipoint,
    bound_onepoint,
    bound_pulse,
    bound_step,
    bound_tangent_tur,
    bound_zero_t,
    bounds,
    linear_response,
    load_model,
    pulse_shift,
    random_model,
    steady_state,
    step_shift,
    validate_rate_matrix,
)
from corrbound.bounds import fmt17
from corrbound.cli import (
    DEFAULT_BOUNDS,
    FIG2_RATIO_GRID,
    RunConfig,
    _json17,
    _parse_tgrid,
    _random_sweep,
    cmd_check,
    cmd_figure2,
    cmd_figure3,
    cmd_response,
    cmd_stress,
    evaluate_bounds,
    fig2_model,
    fig3_model,
    main,
)
from corrbound.errors import (
    CorrboundError,
    DimensionMismatchError,
    NegativeTimeError,
    NonFiniteError,
    NonUniqueSteadyStateError,
)

ROOT = Path(__file__).resolve().parents[1]
FIG2_JSON = '{"n": 2, "rates": [[0, 1], [0, 0]], "p0": [0, 1], "S": [-1, 1]}'


def read_csv(path):
    meta, header, rows = {}, None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition(":")
            meta[key.strip()] = value.strip()
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, header, rows


class TestTgridParsing:
    def test_linear(self):
        grid = _parse_tgrid("0:10:11:lin")
        assert np.allclose(grid, np.linspace(0, 10, 11))

    def test_log(self):
        grid = _parse_tgrid("1e-2:10:20:log")
        assert grid[0] == pytest.approx(1e-2) and grid[-1] == pytest.approx(10.0)
        assert grid.size == 20

    def test_bad_specs(self):
        for spec in (
            "1:2:3", "a:b:c:lin", "0:10:5:log", "5:1:3:lin", "1:2:0:lin",
            "nan:1:3:lin", "0:inf:3:lin",
        ):
            with pytest.raises(CorrboundError):
                _parse_tgrid(spec)


class TestJson17:
    def test_deterministic_and_parseable(self):
        payload = {"b": [1.0 / 3.0, 2], "a": {"x": True, "y": None}}
        text = _json17(payload)
        assert text == _json17(payload)
        parsed = json.loads(text)
        assert parsed["b"][0] == 1.0 / 3.0  # 17 digits round-trip

    def test_non_finite_floats_are_quoted_tokens(self):
        text = _json17({"x": [math.inf, -math.inf, math.nan, np.float64(math.inf)]})
        assert json.loads(text)["x"] == ["inf", "-inf", "nan", "inf"]


class TestEvaluateBounds:
    def test_bad_grid_times_rejected(self):
        W, p0, S = random_model(3, 5)
        with pytest.raises(NegativeTimeError):
            evaluate_bounds(W, p0, S, S, np.array([1.0, -1.0]), ("DERIV_EQ7",))
        with pytest.raises(NonFiniteError):
            evaluate_bounds(W, p0, S, S, np.array([1.0, math.nan]), ("ETA_EQ8",))

    def test_dimension_mismatch_rejected(self):
        W, p0, S = random_model(3, 5)
        _, _, S4 = random_model(4, 5)
        with pytest.raises(DimensionMismatchError):
            evaluate_bounds(W, p0, S4, S4, np.array([1.0]), ("ETA_EQ8",))

    def test_steady_state_only_for_response_bounds(self, monkeypatch):
        # a reducible chain has no unique stationary law
        W = validate_rate_matrix([[0, 1, 0], [0, 0, 0], [0, 1, 0]])
        _, p0, S = random_model(3, 5)
        calls = []
        real = bounds.steady_state
        monkeypatch.setattr(bounds, "steady_state", lambda w: calls.append(w) or real(w))
        grid = np.array([0.0, 1.0])
        reports = evaluate_bounds(W, p0, S, S, grid, bounds.BOUND_IDS[:10])
        assert len(reports) == 19 and not calls
        with pytest.raises(NonUniqueSteadyStateError):
            evaluate_bounds(W, p0, S, S, grid, ("ETA_EQ8", "STEP_EQ12"))
        assert len(calls) == 1

    def test_rows_match_single_point_bounds(self):
        # the grid plan integrates the activity over all knots at once; the
        # single-point functions integrate each interval on its own
        chi = 0.01
        for seed in range(6):
            W, p0, S = random_model(2 + seed % 3, seed)
            pst = steady_state(W)
            single = {
                "MAIN_EQ5": lambda t: bound_main(W, p0, S, S, t / 2.0, t),
                "ZERO_T_EQ6": lambda t: bound_zero_t(W, p0, S, S, t),
                "DERIV_EQ7": lambda t: bound_derivative(W, p0, S, S, t),
                "ETA_EQ8": lambda t: bound_eta(W, p0, S, S, t),
                "TANGENT_S29": lambda t: bound_tangent_tur(W, p0, S, S, t),
                "MULTI_SIN_S40": lambda t: bound_multipoint(W, p0, [S] * 3, (0, t / 2, t), "sin"),
                "MULTI_ETA_S39": lambda t: bound_multipoint(W, p0, [S] * 3, (0, t / 2, t), "eta"),
                "ONEPOINT_SIN_S42": lambda t: bound_onepoint(W, p0, S, t, "sin"),
                "ONEPOINT_ETA_S41": lambda t: bound_onepoint(W, p0, S, t, "eta"),
                "ONEPOINT_ACTIVITY_S45": lambda t: bound_onepoint(W, p0, S, t, "activity"),
                "PULSE_EQ11": lambda t: bound_pulse(W, pst, S, S, chi, t),
                "STEP_EQ12": lambda t: bound_step(W, pst, S, S, chi, t),
            }
            grid = np.array([0.0, 0.05, 0.3, 1.0, 4.0])
            reports = evaluate_bounds(W, p0, S, S, grid, bounds.BOUND_IDS, chi=chi)
            assert len(reports) == 12 * grid.size - 2
            for r in reports:
                ref = single[r.bound_id](r.t2)
                assert (r.t1, r.t2, r.in_validity_domain) == (ref.t1, ref.t2, ref.in_validity_domain)
                for x, y in ((r.lhs, ref.lhs), (r.rhs, ref.rhs), (r.ratio, ref.ratio)):
                    assert math.isclose(x, y, rel_tol=1e-12, abs_tol=1e-12), r.bound_id

    def test_rows_ordered_by_time_then_bound(self):
        W, p0, S = random_model(2, 8)
        bids = ("PULSE_EQ11", "MAIN_EQ5", "DERIV_EQ7")
        reports = evaluate_bounds(W, p0, S, S, np.array([0.0, 0.5, 2.0]), bids)
        assert [(r.bound_id, r.t1, r.t2) for r in reports] == [
            ("MAIN_EQ5", 0.0, 0.0),
            ("PULSE_EQ11", 0.5, 0.5), ("MAIN_EQ5", 0.25, 0.5), ("DERIV_EQ7", 0.5, 0.5),
            ("PULSE_EQ11", 2.0, 2.0), ("MAIN_EQ5", 1.0, 2.0), ("DERIV_EQ7", 2.0, 2.0),
        ]


class TestCmdCheck:
    def test_model_file_passes(self, tmp_path):
        model = tmp_path / "model.json"
        model.write_text(FIG2_JSON)
        config = RunConfig(
            t_grid=_parse_tgrid("1e-2:10:10:log"),
            bounds=("ZERO_T_EQ6", "ETA_EQ8", "DERIV_EQ7"),
            model_path=str(model),
            output_path=str(tmp_path / "out.csv"),
        )
        assert cmd_check(config) == 0
        meta, header, rows = read_csv(tmp_path / "out.csv")
        assert header == "bound_id,t1,t2,lhs,rhs,ratio,in_domain,cmax_mode".split(",")
        assert len(rows) == 30
        assert "artifact" in meta and "ratio_slack" in meta

    def test_malformed_json_exits_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n": 2, "rates": [[0, 1')
        code = main(["check", "--model", str(bad)])
        assert code == 2

    def test_corrupted_rhs_hook_exits_one(self, tmp_path):
        model = tmp_path / "model.json"
        model.write_text(FIG2_JSON)
        code = main(
            [
                "check",
                "--model",
                str(model),
                "--rhs-scale",
                "0.5",
                "--out",
                str(tmp_path / "out.csv"),
            ]
        )
        assert code == 1

    @pytest.mark.parametrize("scale", ["-0.5", "nan", "inf"])
    def test_unusable_rhs_scale_exits_two(self, tmp_path, scale, capsys):
        # a negative or infinite scale would pass every bound, and nan
        # would fail every one
        model = tmp_path / "model.json"
        model.write_text(FIG2_JSON)
        out = tmp_path / "out.csv"
        argv = ["check", "--model", str(model), "--rhs-scale", scale, "--out", str(out)]
        assert main(argv) == 2
        assert "rhs scale must be finite and >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_json_output(self, tmp_path):
        model = tmp_path / "model.json"
        model.write_text(FIG2_JSON)
        out = tmp_path / "out.json"
        config = RunConfig(
            t_grid=np.array([0.5, 1.0]),
            bounds=("ETA_EQ8",),
            model_path=str(model),
            output_path=str(out),
            output_format="json",
        )
        assert cmd_check(config) == 0
        payload = json.loads(out.read_text())
        assert len(payload["rows"]) == 2
        assert payload["rows"][0]["bound_id"] == "ETA_EQ8"

    @pytest.mark.parametrize(
        "extra, field",
        [((), "rhs"), (("--rhs-scale", "0"), "ratio")],
    )
    def test_json_output_with_infinite_values_parses(self, tmp_path, extra, field):
        # past arg = pi/2 the tangent bound's rhs is infinite; a zero rhs
        # scale makes every ratio infinite
        out = tmp_path / "out.json"
        argv = [
            "check", "--states", "3", "--seed", "1", "--tgrid", "1:10:2:lin",
            "--bounds", "TANGENT_S29", "--format", "json", "--out", str(out),
        ]
        main(argv + list(extra))
        rows = json.loads(out.read_text())["rows"]
        assert "inf" in [r[field] for r in rows]
        assert "nan" not in [v for r in rows for v in r.values()]

    def test_generated_model(self, tmp_path):
        config = RunConfig(
            t_grid=np.array([0.5, 2.0]),
            bounds=("ZERO_T_EQ6", "ONEPOINT_ACTIVITY_S45"),
            gen_states=3,
            seed=99,
            output_path=str(tmp_path / "out.csv"),
        )
        assert cmd_check(config) == 0

    def test_unknown_bound_id_exits_two(self, tmp_path):
        model = tmp_path / "model.json"
        model.write_text(FIG2_JSON)
        assert main(["check", "--model", str(model), "--bounds", "NOPE"]) == 2

    def test_missing_model_and_states_exits_two(self):
        assert main(["check"]) == 2

    def test_tight_mode_passes(self, tmp_path):
        model = tmp_path / "model.json"
        model.write_text(FIG2_JSON)
        assert (
            main(
                [
                    "check",
                    "--model",
                    str(model),
                    "--cmax",
                    "tight",
                    "--out",
                    str(tmp_path / "o.csv"),
                ]
            )
            == 0
        )


@pytest.fixture(scope="module")
def fig2_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig2")
    assert cmd_figure2(str(out), n_random=8, seed=4_321) == 0
    return out


@pytest.fixture(scope="module")
def fig3_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig3")
    assert cmd_figure3(str(out)) == 0
    return out


class TestCmdFigure2:
    def test_files_written(self, fig2_dir):
        for name in ("fig2a.csv", "fig2b.csv", "fig2c.csv", "fig2d.csv"):
            assert (fig2_dir / name).exists()
        sidecar = json.loads((fig2_dir / "fig2_models.json").read_text())
        assert len(sidecar["model_seeds"]) == 8
        assert sidecar["model_states"] == [2, 3, 4, 2, 3, 4, 2, 3]

    def test_fig2a_unit_time_closed_form(self, fig2_dir):
        _, _, rows = read_csv(fig2_dir / "fig2a.csv")
        row = min(rows, key=lambda r: abs(float(r[0]) - 1.0))
        t = float(row[0])
        assert float(row[1]) == pytest.approx(2.0 * (1.0 - math.exp(-t)), abs=1e-12)

    def test_fig2a_zero_row_vacuous(self, fig2_dir):
        _, _, rows = read_csv(fig2_dir / "fig2a.csv")
        assert float(rows[0][0]) == 0.0
        assert float(rows[0][1]) == 0.0

    def test_curves_below_bounds(self, fig2_dir):
        _, _, rows = read_csv(fig2_dir / "fig2a.csv")
        for r in rows:
            assert float(r[1]) <= min(float(r[2]), float(r[3])) + 1e-9
        _, _, rows = read_csv(fig2_dir / "fig2b.csv")
        for r in rows:
            assert float(r[1]) <= float(r[2]) + 1e-9

    def test_sweep_rows_equal_per_model_reports(self, fig2_dir):
        # the stacked sweep against each model's own BoundReports, row for row
        sidecar = json.loads((fig2_dir / "fig2_models.json").read_text())
        models = [fig2_model()[:3]] + [
            random_model(n, s) for n, s in zip(sidecar["model_states"], sidecar["model_seeds"])
        ]
        expect = {"ZERO_T_EQ6": [], "DERIV_EQ7": []}
        for idx, (W, p0, S) in enumerate(models):
            for r in evaluate_bounds(W, p0, S, S, FIG2_RATIO_GRID, tuple(expect)):
                flag = [str(r.in_validity_domain).lower()] if r.bound_id == "ZERO_T_EQ6" else []
                expect[r.bound_id].append([str(idx), fmt17(r.t2), fmt17(r.ratio), *flag])
        assert read_csv(fig2_dir / "fig2c.csv")[2] == expect["ZERO_T_EQ6"]
        assert read_csv(fig2_dir / "fig2d.csv")[2] == expect["DERIV_EQ7"]

    def test_one_plan_per_state_count(self, tmp_path, monkeypatch):
        # the curves' plan, then one plan per state count of the sweep: the
        # 2-state built-in model shares its plan with the 2-state random ones
        plans, _ = count_response_plans(monkeypatch)
        assert cmd_figure2(str(tmp_path), n_random=8, seed=4_321) == 0
        assert [p.W.w.shape for p in plans] == [(2, 2), (4, 2, 2), (3, 3, 3), (2, 4, 4)]

    def test_ratios_at_most_one(self, fig2_dir):
        for name in ("fig2c.csv", "fig2d.csv"):
            _, _, rows = read_csv(fig2_dir / name)
            assert rows, name
            for r in rows:
                assert float(r[2]) <= 1.0 + 1e-9


def count_response_plans(monkeypatch):
    """Lists that collect every plan built and every stationarity check run."""
    plans, steady = [], []
    init, check = bounds._Plan.__init__, linear_response._check_steady

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        plans.append(self)

    def counting_check(*args):
        steady.append(args)
        check(*args)

    monkeypatch.setattr(bounds._Plan, "__init__", counting_init)
    monkeypatch.setattr(linear_response, "_check_steady", counting_check)
    return plans, steady


class TestCmdFigure3:
    def test_pulse_values_at_unit_time(self, fig3_dir):
        _, _, rows = read_csv(fig3_dir / "fig3a.csv")
        row = min(rows, key=lambda r: abs(float(r[0]) - 1.0))
        assert abs(float(row[1])) == pytest.approx(0.02 * math.exp(-2.0), abs=1e-12)
        assert float(row[2]) == pytest.approx(0.01, abs=1e-12)

    def test_step_domain_switch(self, fig3_dir):
        _, _, rows = read_csv(fig3_dir / "fig3b.csv")
        edge = (math.pi / 2.0) ** 2
        for r in rows:
            t, rhs, flag = float(r[0]), float(r[2]), r[4] == "true"
            assert flag == (math.sqrt(t) <= math.pi / 2.0 + 1e-12)
            if t > edge + 0.05:
                assert rhs == pytest.approx(0.02, abs=1e-15)

    def test_step_early_rows_vanish(self, fig3_dir):
        _, _, rows = read_csv(fig3_dir / "fig3b.csv")
        assert float(rows[0][0]) == 0.0
        assert float(rows[0][1]) == 0.0
        assert float(rows[0][2]) == 0.0
        assert abs(float(rows[1][1])) < 2e-3 and float(rows[1][2]) < 5e-3

    def test_one_plan_per_sweep(self, tmp_path, monkeypatch):
        # every shift and bound report of a sweep reads one plan, and the
        # baseline is checked for stationarity once: one pulse, one step
        plans, steady = count_response_plans(monkeypatch)
        assert cmd_figure3(str(tmp_path)) == 0
        assert [p.knots.size for p in plans] == [100, 101]
        assert len(steady) == 2


class TestCmdStress:
    def test_small_sweep_no_violations(self, tmp_path):
        out = tmp_path / "tally.json"
        code, tally = cmd_stress(
            n_models=12,
            seed=777,
            t_grid=np.geomspace(1e-2, 10.0, 6),
            output_path=str(out),
        )
        assert code == 0
        assert set(tally) == {
            "MAIN_EQ5",
            "ZERO_T_EQ6",
            "DERIV_EQ7",
            "ETA_EQ8",
            "TANGENT_S29",
            "MULTI_SIN_S40",
            "MULTI_ETA_S39",
            "ONEPOINT_SIN_S42",
            "ONEPOINT_ETA_S41",
            "ONEPOINT_ACTIVITY_S45",
            "PULSE_EQ11",
            "STEP_EQ12",
        }
        for cell in tally.values():
            assert cell["violations"] == 0
            assert cell["evaluations"] > 0
            assert cell["max_ratio"] <= 1.0 + 1e-9

    def test_zero_models_empty_tally(self, tmp_path):
        code, tally = cmd_stress(
            n_models=0, t_grid=np.array([1.0]), output_path=str(tmp_path / "t.json")
        )
        assert code == 0
        assert all(c["evaluations"] == 0 for c in tally.values())

    def test_identical_seeds_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        grid = np.geomspace(1e-2, 10.0, 4)
        cmd_stress(n_models=6, seed=2_024, t_grid=grid, output_path=str(a))
        cmd_stress(n_models=6, seed=2_024, t_grid=grid, output_path=str(b))
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("command", ["stress", "figure2"])
    def test_negative_model_count_exits_two(self, tmp_path, command, capsys):
        assert main([command, "--models", "-3", "--out", str(tmp_path / "out")]) == 2
        assert "n_models must be >= 0" in capsys.readouterr().err

    def test_default_scale_sweep_has_no_violations(self, tmp_path):
        # the full randomized validity protocol: 500 models, 20-point
        # log grid, every implemented bound (~15 s single-threaded)
        out = tmp_path / "tally.json"
        code, tally = cmd_stress(n_models=500, seed=31_415, output_path=str(out))
        assert code == 0
        for bid, cell in tally.items():
            assert cell["violations"] == 0, bid
            assert cell["max_ratio"] <= 1.0 + 1e-9
            assert cell["evaluations"] >= 9_500  # pulse skips t = 0 rows only


def tally_from_reports(n_models, seed, t_grid, mode="standard", n_list=(2, 3, 4)):
    """The stress tally built one BoundReport at a time, model by model in
    sweep order: counts, Python's max over the ratios, and the first report
    that reaches it."""
    tally = {
        bid: {"evaluations": 0, "max_ratio": 0.0, "violations": 0, "worst": None}
        for bid in BOUND_IDS
    }
    for n, seed in zip(*_random_sweep(n_models, seed, n_list)):
        W, p0, S = random_model(n, seed)
        for r in evaluate_bounds(W, p0, S, S, t_grid, BOUND_IDS, mode):
            cell = tally[r.bound_id]
            cell["evaluations"] += 1
            cell["violations"] += not r.satisfied
            if not math.isnan(r.ratio) and (cell["worst"] is None or r.ratio > cell["max_ratio"]):
                cell["max_ratio"] = max(cell["max_ratio"], r.ratio)
                cell["worst"] = {"states": n, "seed": seed, "t1": r.t1, "t2": r.t2}
    return tally


class TestStressTally:
    GRID = np.geomspace(1e-2, 10.0, 6)
    # out to t = 1e3 the models of a stack refine the activity quadrature to
    # unequal open-panel counts, and the stack is evaluated at the union of
    # their panels; on the default grid they all converge at the first level
    WIDE_GRID = np.geomspace(1e-2, 1e3, 4)

    @pytest.mark.parametrize(
        "n_models, n_list, seed, mode, grid",
        [
            pytest.param(9, (2, 3, 4), 777, "standard", GRID, id="777-standard"),
            pytest.param(9, (2, 3, 4), 2_024, "tight", GRID, id="2024-tight"),
            # the 7-state group holds one model
            pytest.param(10, (2, 3, 4, 7), 777, "standard", GRID, id="777-standard-7states"),
            pytest.param(10, (2, 3, 4, 7), 2_024, "tight", GRID, id="2024-tight-7states"),
            pytest.param(9, (2, 3, 4), 2_024, "tight", WIDE_GRID, id="2024-tight-wide"),
            pytest.param(
                10, (2, 3, 4, 7), 2_024, "tight", WIDE_GRID, id="2024-tight-7states-wide"
            ),
        ],
    )
    def test_array_tally_equals_report_tally(
        self, tmp_path, monkeypatch, n_models, n_list, seed, mode, grid
    ):
        calls = {}
        real_activity = bounds._Plan._activity

        def spy(plan, ts):
            values = real_activity(plan, ts)
            # every call covers the whole stack
            assert values.shape[:-1] == plan.W.w.shape[:-2]
            calls.setdefault(plan, []).append(np.size(ts))
            return values

        monkeypatch.setattr(bounds._Plan, "_activity", spy)
        out = tmp_path / "tally.json"
        _, tally = cmd_stress(
            n_models=n_models, n_list=n_list, seed=seed, t_grid=grid, cmax_mode=mode,
            output_path=str(out),
        )
        stacked = set(calls)
        assert tally == tally_from_reports(n_models, seed, grid, mode, n_list)
        if grid is self.WIDE_GRID:
            # models of one stack refine to different node counts alone
            alone = {}
            for plan in set(calls) - stacked:
                alone.setdefault(plan.W.n, set()).add(tuple(calls[plan]))
            assert any(len(counts) > 1 for counts in alone.values())
        assert json.loads(out.read_text())["tally"] == tally

    def test_sweep_output_is_pinned(self, tmp_path):
        # sha256 of the default-grid sweep JSON as the per-model sweep wrote
        # it; the stacked evaluation must reproduce it byte for byte
        out = tmp_path / "tally.json"
        cmd_stress(n_models=60, seed=31415, output_path=str(out))
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == "41314db62f9b1ef1ae1effcd0d9818361c91a55e5d60e6bf800e3c9a31673342"

    def test_one_plan_per_state_count(self, tmp_path, monkeypatch):
        # 30 models cycling 2, 3, 4: one plan per state count (and its
        # stationary plan), and per plan one activity call at the knots and
        # one per quadrature level
        plans, _ = count_response_plans(monkeypatch)
        calls = []
        real_apply = bounds._integral_apply

        def counting(*args):
            calls.append(args)
            return real_apply(*args)

        monkeypatch.setattr(bounds, "_integral_apply", counting)
        cmd_stress(n_models=30, t_grid=self.GRID, output_path=str(tmp_path / "t.json"))
        assert sorted(p.W.w.shape for p in plans) == [(10, n, n) for n in (2, 2, 3, 3, 4, 4)]
        assert len(calls) <= 2 * 3

    def test_no_report_objects_built(self, tmp_path, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("stress built a BoundReport")

        monkeypatch.setattr(bounds, "BoundReport", forbidden)
        code, _ = cmd_stress(n_models=3, t_grid=self.GRID, output_path=str(tmp_path / "t.json"))
        assert code == 0

    def test_worst_case_replays_with_check(self, tmp_path):
        _, tally = cmd_stress(
            n_models=9, seed=777, t_grid=self.GRID, output_path=str(tmp_path / "t.json")
        )
        for bid, cell in tally.items():
            worst = cell["worst"]
            t2 = bounds.fmt17(worst["t2"])
            out = tmp_path / f"{bid}.json"
            main([
                "check", "--states", str(worst["states"]), "--seed", str(worst["seed"]),
                "--tgrid", f"{t2}:{t2}:1:lin", "--bounds", bid,
                "--format", "json", "--out", str(out),
            ])
            (row,) = json.loads(out.read_text())["rows"]
            assert (row["t1"], row["t2"]) == (worst["t1"], worst["t2"]), bid
            assert row["ratio"] == pytest.approx(cell["max_ratio"], rel=1e-8, abs=0), bid

    def test_nan_ratios_never_worst(self, tmp_path, monkeypatch):
        # every ratio of the first model is NaN and every later one is 0:
        # the NaNs count as violations, and the worst case is the first 0.
        # The first model is the first of the stack of the first plan.
        real_sides = bounds._Plan.sides
        first = {}

        def nan_then_zero(plan, bid, t1, t2):
            lhs, rhs, ratio, in_domain, arg = real_sides(plan, bid, t1, t2)
            got = np.zeros(ratio.shape)
            if first.setdefault(bid, plan.W) is plan.W:
                # the first model's ratios: row 0 of a stack, all of one model
                got[(0,) * (ratio.ndim - 1)] = math.nan
            return lhs, rhs, got, in_domain, arg

        monkeypatch.setattr(bounds._Plan, "sides", nan_then_zero)
        _, tally = cmd_stress(n_models=3, t_grid=self.GRID, output_path=str(tmp_path / "t.json"))
        sizes, seeds = _random_sweep(3, 31415)
        for bid, cell in tally.items():
            assert cell["violations"] == cell["evaluations"] // 3, bid
            assert cell["max_ratio"] == 0.0, bid
            assert (cell["worst"]["states"], cell["worst"]["seed"]) == (sizes[1], seeds[1]), bid
            assert cell["worst"]["t2"] == self.GRID[0], bid
        first.clear()
        assert tally == tally_from_reports(3, 31415, self.GRID)

    def test_no_evaluations_no_worst(self, tmp_path):
        out = tmp_path / "t.json"
        _, tally = cmd_stress(n_models=0, t_grid=np.array([1.0]), output_path=str(out))
        assert all(cell["worst"] is None for cell in tally.values())
        assert json.loads(out.read_text())["tally"] == tally


class TestCmdResponse:
    def test_pulse_sweep(self, tmp_path):
        out = tmp_path / "resp.csv"
        assert cmd_response("pulse", output_path=str(out)) == 0
        _, header, rows = read_csv(out)
        assert header == ["t", "shift", "bound_rhs", "ratio", "in_domain"]
        for r in rows:
            assert float(r[3]) <= 1.0 + 1e-9

    def test_step_sweep_json(self, tmp_path):
        out = tmp_path / "resp.json"
        assert cmd_response("step", output_path=str(out), output_format="json") == 0
        payload = json.loads(out.read_text())
        assert payload["rows"][0]["t"] == 0.0

    def test_model_file(self, tmp_path):
        model = tmp_path / "model.json"
        model.write_text(FIG2_JSON)
        out = tmp_path / "resp.csv"
        assert (
            main(["response", "--drive", "step", "--model", str(model), "--out", str(out)])
            == 0
        )


# A chain in detailed balance with T = S: its pulse response keeps one sign
# and its step response is monotone, so relative errors stay well posed.
THREE_STATE_JSON = json.dumps({
    "n": 3,
    "rates": [[0, 1.4, 0.6], [0.7, 0, 0.5], [0.9, 1.5, 0]],
    "p0": [1, 0, 0],
    "S": [0.8, -1.0, 0.3],
})


def response_rows(tmp_path, drive, args=()):
    """The JSON rows of `response` under one drive and the extra arguments."""
    out = tmp_path / f"{drive}.json"
    assert main(["response", "--drive", drive, *args, "--format", "json", "--out", str(out)]) == 0
    return json.loads(out.read_text())["rows"]


def scalar_response(W, S, T, drive, t):
    """The shift and bound report of the public scalar functions at time t."""
    pst = steady_state(W)
    if drive == "pulse":
        return pulse_shift(W, pst, S, T, 0.01, t), bound_pulse(W, pst, S, T, 0.01, t)
    return step_shift(W, pst, S, T, 0.01, t), bound_step(W, pst, S, T, 0.01, t)


class TestResponseSweepMatchesScalarCalls:
    @pytest.mark.parametrize("drive", ["pulse", "step"])
    def test_built_in_model_bit_for_bit(self, tmp_path, drive):
        rows = response_rows(tmp_path, drive)
        assert len(rows) == (100 if drive == "pulse" else 101)
        for row in rows:
            shift, rep = scalar_response(*fig3_model(), drive, row["t"])
            assert (row["shift"], row["bound_rhs"], row["ratio"], row["in_domain"]) == (
                shift, rep.rhs, rep.ratio, rep.in_validity_domain
            )

    @pytest.mark.parametrize("drive", ["pulse", "step"])
    def test_three_state_file_model(self, tmp_path, drive):
        # row batching in the matrix products may move the last bits of a
        # pulse shift (185 of 399 rows, up to 1e-15 relative on x86-64)
        path = tmp_path / "model.json"
        path.write_text(THREE_STATE_JSON)
        W, _, S, T = load_model(str(path))
        rows = response_rows(tmp_path, drive, ["--model", str(path), "--tgrid", "0:8:400:lin"])
        assert len(rows) == (399 if drive == "pulse" else 400)
        for row in rows:
            shift, rep = scalar_response(W, S, T, drive, row["t"])
            assert row["shift"] == pytest.approx(shift, rel=1e-14, abs=0)
            assert row["ratio"] == pytest.approx(rep.ratio, rel=1e-14, abs=0)
            assert row["bound_rhs"] == rep.rhs

    def test_one_plan_per_response(self, tmp_path, monkeypatch):
        plans, steady = count_response_plans(monkeypatch)
        assert cmd_response("step", output_path=str(tmp_path / "step.csv")) == 0
        assert len(plans) == len(steady) == 1


class TestMainEntry:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize("command", ["check", "stress"])
    @pytest.mark.parametrize("chi", ["nan", "inf"])
    def test_non_finite_strength_exits_two(self, tmp_path, command, chi):
        args = ["--states", "3"] if command == "check" else ["--models", "2"]
        out = tmp_path / "out.txt"
        assert main([command, *args, "--chi", chi, "--out", str(out)]) == 2

    @pytest.mark.parametrize("states", ["", ","])
    def test_empty_state_list_exits_two(self, states):
        assert main(["stress", "--models", "3", "--states", states]) == 2

    def test_non_finite_grid_ends_exit_two_without_warnings(self, tmp_path):
        # a NaN start once gave a pulse sweep of one row out of three, and
        # an infinite stop numpy RuntimeWarnings before the exit
        out = str(tmp_path / "out.csv")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["response", "--drive", "pulse", "--tgrid", "nan:1:3:lin", "--out", out]) == 2
            assert main(["check", "--states", "3", "--tgrid", "0:inf:3:lin", "--out", out]) == 2

    @pytest.mark.parametrize(
        "command, blocked", [("figure2", "fig2a.csv"), ("figure3", "fig3a.csv")]
    )
    def test_unwritable_figure_exits_two(self, tmp_path, command, blocked, capsys):
        # a directory in the place of a figure file: main maps the OSError to 2
        (tmp_path / blocked).mkdir()
        args = ["--models", "2"] if command == "figure2" else []
        assert main([command, *args, "--out", str(tmp_path)]) == 2
        assert blocked in capsys.readouterr().err

    def test_stress_subcommand_writes_the_bytes_of_a_direct_call(self, tmp_path):
        via_main, direct = tmp_path / "main.json", tmp_path / "direct.json"
        args = ["--models", "6", "--seed", "2024", "--tgrid", "0.01:10:4:log"]
        assert main(["stress", *args, "--out", str(via_main)]) == 0
        grid = np.geomspace(1e-2, 10.0, 4)
        assert cmd_stress(n_models=6, seed=2_024, t_grid=grid, output_path=str(direct))[0] == 0
        assert via_main.read_bytes() == direct.read_bytes()

    def test_repeated_bound_id_is_written_once(self, tmp_path):
        # each row was once written as often as its id was listed
        once, twice = tmp_path / "once.csv", tmp_path / "twice.csv"
        args = ["check", "--states", "3", "--tgrid", "1:2:2:lin"]
        assert main([*args, "--bounds", "MAIN_EQ5", "--out", str(once)]) == 0
        assert main([*args, "--bounds", "MAIN_EQ5,MAIN_EQ5", "--out", str(twice)]) == 0
        assert twice.read_bytes() == once.read_bytes()

    def test_check_runs_without_scipy(self, tmp_path):
        # the Jordan chain 0 -> 1 -> 2 -> 3 is defective, so every product
        # takes the expm path; a fresh interpreter in which importing scipy
        # fails must still check it
        rates = [[0.0] * 4 for _ in range(4)]
        for i in range(3):
            rates[i + 1][i] = 1.3
        model = {"n": 4, "rates": rates, "p0": [0.4, 0.3, 0.2, 0.1], "S": [1, -0.5, 0.25, -1]}
        path, out = tmp_path / "model.json", tmp_path / "out.csv"
        path.write_text(json.dumps(model))
        script = (
            "import sys; sys.modules['scipy'] = None\n"
            "from corrbound import cli\n"
            "sys.exit(cli.main(sys.argv[1:]))"
        )
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        args = ["check", "--model", str(path), "--tgrid", "0.01:10:20:log", "--out", str(out)]
        proc = subprocess.run(
            [sys.executable, "-c", script, *args], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert out.read_text()


def check_rows(tmp_path, model: dict, t: float, bound_ids=None):
    """Exit code and JSON rows of `check` on one model at the one time t."""
    path, out = tmp_path / "model.json", tmp_path / "out.json"
    path.write_text(json.dumps(model))
    args = ["check", "--model", str(path), "--tgrid", f"{t!r}:{t!r}:1:lin"]
    if bound_ids:
        args += ["--bounds", ",".join(bound_ids)]
    code = main([*args, "--format", "json", "--out", str(out)])
    return code, json.loads(out.read_text())["rows"]


def decay_chain(rate: float, S) -> dict:
    """State 1 decays into state 2 at ``rate``, starting in state 1."""
    return {"n": 2, "rates": [[0, 0], [rate, 0]], "p0": [1, 0], "S": S}


STIFF_CHAIN = {
    "n": 3,
    "rates": [
        [0, 0.6726373598215467, 6.682599195426244],
        [0.9344090639659682, 0, 0.33104227312181395],
        [0.12959294692925413, 145563431034.58908, 0],
    ],
    "p0": [0, 1, 0],
    "S": [0.9454828756428364, -0.9454828756502844, 0.9454828756487182],
}


class TestDefectReplays:
    """Models on which `check` reported false violations. The bounds are
    theorems, so a ratio above 1 + RATIO_SLACK is a numerical defect."""

    def test_sub_unit_rates_give_the_ratios_of_unit_rates(self, tmp_path):
        # rate 3.3e-16 at t = 2e15 is rate 3.3 at t = 0.2 in other time
        # units; no eigenvalue or tolerance may depend on the unit
        code, slow = check_rows(tmp_path, decay_chain(3.3e-16, [-1, 1]), 2e15)
        assert code == 0
        _, fast = check_rows(tmp_path, decay_chain(3.3, [-1, 1]), 0.2)
        assert [r["bound_id"] for r in slow] == [r["bound_id"] for r in fast]
        for a, b in zip(slow, fast):
            assert abs(float(a["ratio"]) - float(b["ratio"])) <= 1e-10, a["bound_id"]
        assert min(float(r["lhs"]) for r in slow if r["bound_id"] != "DERIV_EQ7") > 0.4

    @pytest.mark.xfail(
        strict=True,
        reason="<S>(0) - <S>(t) is a difference of two O(1) levels, relative "
        "error eps / (rate t): ratio 1.0000112 at t = 1e-11; ROADMAP item 2 "
        "(cancellation-free bound sides)",
    )
    def test_decay_chain_at_short_time(self, tmp_path):
        code, rows = check_rows(tmp_path, decay_chain(1.0, [1, -1]), 1e-11, ["ONEPOINT_ACTIVITY_S45"])
        assert code == 0, rows

    def test_stiff_chain(self, tmp_path):
        # the reconstruction check rejects a basis of cond 3.2, so this takes
        # the expm path
        code, rows = check_rows(tmp_path, STIFF_CHAIN, 0.17587951097468535, ["ETA_EQ8"])
        assert code == 0, rows

    @pytest.mark.parametrize("seed, ratio", [(3, 2.456), (4, 2.008), (15, 4.417)])
    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="corr_slope forms W v in state space, an error of eps max|W|: "
        "DERIV_EQ7 ratios 2.456, 2.008 and 4.417 on the eigenbasis path; "
        "ROADMAP item 2 (cancellation-free bound sides)",
    )
    def test_stiff_slope(self, seed, ratio):
        W, _, S = random_model(3, seed)
        w = W.w.copy()
        w[2, 1] = 1.4556e12 * (1 + 0.1 * seed)
        W, p0 = validate_rate_matrix(w), ProbVector(np.array([0.0, 1.0, 0.0]))
        if W._spectral is None:
            pytest.fail("the eigenbasis is no longer trusted; the replay needs a new model")
        rows = evaluate_bounds(W, p0, S, S, np.geomspace(1e-2, 10.0, 20), ("DERIV_EQ7",))
        worst = max(r.ratio for r in rows)
        if worst > 1.0 + bounds.RATIO_SLACK and worst != pytest.approx(ratio, abs=1e-3):
            pytest.fail(f"the slope fails another way: ratio {worst}")
        assert worst <= 1.0 + bounds.RATIO_SLACK, worst

    @pytest.mark.parametrize("k", range(6, 13))
    def test_stiffness_ladder(self, k):
        # defect 4's recipe with one rate at 10^k, seeds 0-19: the activity
        # quadrature converges and every bound but DERIV_EQ7 (defect 4
        # itself) holds
        grid = np.geomspace(1e-2, 10.0, 20)
        for seed in range(20):
            W, _, S = random_model(3, seed)
            w = W.w.copy()
            w[2, 1] = 1.4556 * 10.0**k * (1 + 0.1 * seed)
            W, p0 = validate_rate_matrix(w), ProbVector(np.array([0.0, 1.0, 0.0]))
            for r in evaluate_bounds(W, p0, S, S, grid, DEFAULT_BOUNDS):
                if r.bound_id != "DERIV_EQ7":
                    assert r.ratio <= 1.0 + bounds.RATIO_SLACK, (seed, r)

    def test_stiff_chain_quadrature(self, tmp_path, capsys):
        # A(t) on the expm path must be accurate below the halved panel
        # tolerance, or the activity quadrature stops at its panel cap
        path = tmp_path / "model.json"
        path.write_text(json.dumps(STIFF_CHAIN))
        out = str(tmp_path / "out.csv")
        code = main(["check", "--model", str(path), "--tgrid", "0.01:10:20:log", "--out", out])
        assert code == 0, capsys.readouterr().err
