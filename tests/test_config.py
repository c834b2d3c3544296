import json
from pathlib import Path

import numpy as np
import pytest

from conftest import TWO_STATE_COST, make_instance

from evbandit.arm import build_arm_mdp
from evbandit.config import (
    MEMORY_BUDGET,
    WORK_BUDGET,
    ConfigError,
    arm_entries,
    check_size,
    instance_from_dict,
    load_instance,
    load_run_config,
)
from evbandit.sim import _BLOCK

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
FIXTURE_CSV = Path(__file__).resolve().parent.parent / "data" / "sample_rt_prices.csv"


def write_config(tmp_path, doc, name="run.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


class TestDefaults:
    def test_empty_config_gets_the_benchmark_setup(self, tmp_path):
        cfg = load_run_config(write_config(tmp_path, {}))
        inst = cfg.instance
        assert inst.n_chargers == 10 and inst.capacity == 5
        assert inst.discount == 0.999
        assert inst.t_max == 12 and inst.b_max == 9
        assert inst.cost.n_levels == 1 and inst.cost.values[0] == 0.5
        assert inst.penalty(3) == pytest.approx(0.2 * 9)
        assert cfg.policies == ["whittle+lllp", "edf", "llf"]
        assert cfg.seeds == list(range(20))
        assert cfg.horizon is None and cfg.baseline is None
        assert cfg.truncation_tol == 1e-3
        assert cfg.verify_oracle is False

    def test_load_instance_shortcut(self, tmp_path):
        p = write_config(tmp_path, {"instance": {"n_chargers": 3, "capacity": 2}})
        assert load_instance(p).n_chargers == 3


class TestStrictKeys:
    def test_unknown_top_level_key(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown key"):
            load_run_config(write_config(tmp_path, {"polices": []}))

    def test_unknown_instance_key(self, tmp_path):
        with pytest.raises(ConfigError, match="n_charger"):
            load_run_config(write_config(tmp_path, {"instance": {"n_charger": 5}}))

    def test_unknown_cost_key(self):
        with pytest.raises(ConfigError):
            instance_from_dict({"cost": {"constant": 0.5, "spread": 1}})

    def test_not_json(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError, match="valid JSON"):
            load_run_config(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_run_config(tmp_path / "absent.json")


class TestPenaltyBlock:
    def test_table_form(self):
        inst = instance_from_dict(
            {"b_max": 2, "t_max": 3, "penalty": {"table": [0.0, 0.5, 1.5]}}
        )
        assert inst.penalty(2) == 1.5

    def test_exactly_one_form_required(self):
        with pytest.raises(ConfigError):
            instance_from_dict({"penalty": {}})
        with pytest.raises(ConfigError):
            instance_from_dict({"penalty": {"quadratic": 0.2, "table": [0, 1]}})

    def test_invalid_table_reported_as_config_error(self):
        with pytest.raises(ConfigError, match="bad penalty"):
            instance_from_dict({"b_max": 1, "t_max": 2, "penalty": {"table": [1.0, 0.0]}})


class TestArrivalsBlock:
    def test_explicit_pmf(self):
        pmf = [[0.0, 0.0], [0.0, 0.5], [0.0, 0.5]]
        inst = instance_from_dict(
            {"t_max": 2, "b_max": 1, "arrivals": {"pmf": pmf, "rho": 0.3}}
        )
        assert inst.arrivals.pmf_for(0)[2, 1] == 0.5

    def test_explicit_kind_with_pmf(self):
        pmf = [[0.0, 0.0], [0.0, 0.5], [0.0, 0.5]]
        inst = instance_from_dict(
            {"t_max": 2, "b_max": 1, "arrivals": {"kind": "explicit", "pmf": pmf}}
        )
        assert inst.arrivals.pmf_for(0)[1, 1] == 0.5

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="kind"):
            instance_from_dict({"arrivals": {"kind": "poisson"}})

    @pytest.mark.parametrize("arrivals, match", [
        ({"kind": "uniform_feasible", "pmf": [[0.0, 0.0], [0.0, 1.0], [0.0, 0.0]]},
         "'uniform_feasible' takes no pmf"),
        ({"kind": "explicit"}, "'explicit' needs a pmf"),
    ], ids=["uniform-with-pmf", "explicit-without-pmf"])
    def test_kind_contradicting_the_pmf(self, arrivals, match):
        with pytest.raises(ConfigError, match=match):
            instance_from_dict({"t_max": 2, "b_max": 1, "arrivals": arrivals})

    def test_bad_rho_reported_as_config_error(self):
        with pytest.raises(ConfigError, match="bad arrivals"):
            instance_from_dict({"arrivals": {"rho": 1.7}})


class TestCostBlock:
    def test_levels_with_matrix(self):
        inst = instance_from_dict(
            {"cost": {"levels": [0.2, 0.8], "matrix": [[0.9, 0.1], [0.5, 0.5]]}}
        )
        assert inst.cost.n_levels == 2

    def test_levels_with_per_period_matrices(self):
        eye = [[1.0, 0.0], [0.0, 1.0]]
        inst = instance_from_dict(
            {
                "arrivals": {"n_periods": 2},
                "cost": {"levels": [0.2, 0.8], "matrices": [eye, eye]},
            }
        )
        assert inst.cost.P.shape == (2, 2, 2)

    def test_exactly_one_mode(self):
        with pytest.raises(ConfigError, match="exactly one"):
            instance_from_dict({"cost": {}})
        with pytest.raises(ConfigError, match="exactly one"):
            instance_from_dict({"cost": {"constant": 0.5, "levels": [0.5]}})

    def test_levels_need_exactly_one_matrix_key(self):
        with pytest.raises(ConfigError, match="matrix"):
            instance_from_dict({"cost": {"levels": [0.2, 0.8]}})

    def test_file_mode_resolves_relative_to_the_config(self, tmp_path):
        rel = "prices.csv"
        (tmp_path / rel).write_text(FIXTURE_CSV.read_text())
        cfg = load_run_config(
            write_config(tmp_path, {"instance": {"cost": {"file": rel, "k": 3}}})
        )
        assert cfg.instance.cost.n_levels == 3

    def test_file_missing_is_a_config_error(self, tmp_path):
        doc = {"instance": {"cost": {"file": "nope.csv"}}}
        with pytest.raises(ConfigError, match="bad cost"):
            load_run_config(write_config(tmp_path, doc))


class TestRunFields:
    def test_seed_list(self, tmp_path):
        cfg = load_run_config(write_config(tmp_path, {"seeds": [3, 1, 9]}))
        assert cfg.seeds == [3, 1, 9]

    def test_bad_seeds(self, tmp_path):
        with pytest.raises(ConfigError, match="seeds"):
            load_run_config(write_config(tmp_path, {"seeds": "many"}))

    def test_bad_policies(self, tmp_path):
        with pytest.raises(ConfigError, match="policies"):
            load_run_config(write_config(tmp_path, {"policies": "edf"}))

    def test_horizon_bounds(self, tmp_path):
        with pytest.raises(ConfigError, match="horizon"):
            load_run_config(write_config(tmp_path, {"horizon": 0}))

    def test_baseline_membership(self, tmp_path):
        doc = {"policies": ["edf"], "baseline": "llf"}
        with pytest.raises(ConfigError, match="baseline"):
            load_run_config(write_config(tmp_path, doc))

    def test_truncation_tol_positive(self, tmp_path):
        with pytest.raises(ConfigError, match="truncation_tol"):
            load_run_config(write_config(tmp_path, {"truncation_tol": 0}))

    def test_verify_oracle_flag(self, tmp_path):
        cfg = load_run_config(write_config(tmp_path, {"verify_oracle": True}))
        assert cfg.verify_oracle is True


class TestSizeBudget:
    def test_budget_is_inclusive(self):
        # t_max = b_max = 1: 3 charger states, so the move table and the pmf
        # hold 2 * 9 + 4 floats; each seed of one charger holds a block of 3
        # uniforms a slot, and the arm entries take the rest of the budget
        seeds = 1 << 18
        arm = MEMORY_BUDGET // 8 - 22 - seeds * 3 * _BLOCK
        check_size(1, 1, 1, n_chargers=1, n_seeds=seeds, horizon=1, arm=arm)
        with pytest.raises(ConfigError, match="run too large: its arrays"):
            check_size(1, 1, 1, n_chargers=1, n_seeds=seeds + 1, horizon=1, arm=arm)
        with pytest.raises(ConfigError, match="run too large: its arrays"):
            check_size(1, 1, 1, n_chargers=1, n_seeds=seeds, horizon=1, arm=arm + 1)

    def test_work_budget_is_inclusive(self):
        # no array grows with the horizon, but the charger-slots do
        check_size(1, 1, 1, n_chargers=2, n_seeds=4, horizon=WORK_BUDGET // 8)
        with pytest.raises(ConfigError, match="run too large: it would simulate"):
            check_size(1, 1, 1, n_chargers=2, n_seeds=4, horizon=WORK_BUDGET // 8 + 1)

    def test_default_horizon_is_counted(self, tmp_path):
        # two seeds, but the discount-tail cutoff is about 7e11 slots
        doc = {"seeds": 2, "instance": {"discount": 1 - 1e-9}, "truncation_tol": 1e-300}
        with pytest.raises(ConfigError, match="run too large"):
            load_run_config(write_config(tmp_path, doc))

    @pytest.mark.parametrize("rho", [0.0, 0.7, 1.0])
    def test_arm_entries_count_the_built_matrices(self, rho):
        inst = make_instance(t_max=4, b_max=3, rho=rho, cost=TWO_STATE_COST)
        arm = build_arm_mdp(inst)
        assert arm_entries(inst) == arm.P0.nnz + arm.P1.nnz

    def test_fitted_periods_must_match_the_arrivals(self):
        doc = {"cost": {"file": str(FIXTURE_CSV), "k": 2, "n_periods": 24}}
        with pytest.raises(ConfigError, match="n_periods"):
            instance_from_dict(doc)


@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.json")), ids=lambda p: p.name)
def test_shipped_configs_load(path):
    cfg = load_run_config(path)
    assert cfg.instance.n_chargers >= 1
    for p in cfg.policies:
        assert p in ("whittle", "whittle+lllp", "edf", "llf", "valley")
