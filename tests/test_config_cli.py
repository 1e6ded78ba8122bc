import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spincim
from spincim import ConfigError
from spincim.cli import main
from spincim import ArrayGeometry, Collapse, CostTable, CurrentLevelModel, SenseConfig
from spincim.config import (
    _RUN_LEAVES,
    DEFAULT_CONFIG,
    build_collapse,
    build_cost_table,
    build_geometry,
    build_model,
    build_sense,
    canonical_json,
    config_hash,
    load_config,
)

from _oracles import binomial_3sigma, collapse_pair_exceed

class TestConfig:
    def test_defaults_build_shipped_model(self):
        config = load_config()
        model = build_model(config)
        assert model.margins() == {"read": 5.5, "pair_lower": 3.2, "pair_upper": 2.5}
        sense = build_sense(config)
        sense.validate_against(model)

    def test_unknown_top_level_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"devize": {}}')
        with pytest.raises(ConfigError, match="devize"):
            load_config(path)

    def test_unknown_nested_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"device": {"sigmaa": 0.4}}')
        with pytest.raises(ConfigError, match="device.sigmaa"):
            load_config(path)

    def test_scalar_object_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"device": 3}')
        with pytest.raises(ConfigError):
            load_config(path)
        path.write_text('{"seed": {"x": 1}}')
        with pytest.raises(ConfigError):
            load_config(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.json")

    def test_override_merges(self, tmp_path):
        path = tmp_path / "ok.json"
        path.write_text('{"device": {"sigma": 0.25}, "trials": 50}')
        config = load_config(path)
        assert config["device"]["sigma"] == 0.25
        assert config["trials"] == 50
        assert config["array"]["rows_per_bank"] == 64  # untouched default

    def test_bad_cost_row_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"cost": {"enhanced": {"CimFOO": [1, 2]}}}')
        with pytest.raises(ConfigError):
            build_cost_table(load_config(path))

    def test_non_finite_config_value_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        for constant in ("NaN", "Infinity", "-Infinity", "1e999", "1" * 400):
            path.write_text('{"attack": {"zone_temp": %s}}' % constant)
            with pytest.raises(ConfigError, match="finite"):
                load_config(path)

    def test_canonical_json_refuses_nan(self):
        with pytest.raises(ValueError):
            canonical_json({"zone_temp": float("nan")})

    def test_hash_ignores_runtime_keys(self):
        base = load_config()
        noisy = load_config()
        noisy["threads"] = 8
        noisy["out_dir"] = "elsewhere"
        assert config_hash(base) == config_hash(noisy)
        changed = load_config()
        changed["seed"] = 1
        assert config_hash(changed) != config_hash(base)

    def test_builders_equal_dataclass_defaults(self):
        config = load_config()
        assert build_model(config) == CurrentLevelModel()
        assert build_sense(config) == SenseConfig()
        assert build_geometry(config) == ArrayGeometry()
        assert build_collapse(config) == Collapse()
        assert build_cost_table(config) == CostTable()

    def test_default_config_hash_pinned(self):
        # moved only by removing the unread sca.sigma_energy leaf
        assert config_hash(load_config()) == (
            "f4b257df4870f797ec3025760da650f0f96bd93e92745f27f139d2584ea61a71"
        )

    def test_every_leaf_is_checked(self):
        def leaves(node, path=()):
            if not isinstance(node, dict):
                yield path
                return
            for key, value in node.items():
                yield from leaves(value, (*path, key))

        unchecked = [
            path for path in leaves(DEFAULT_CONFIG)
            if path[:2] != ("device", "metadata") and path not in _RUN_LEAVES
        ]
        assert unchecked == []


def run_cli(capsys, *argv) -> tuple[int, dict | None]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


class TestCli:
    def test_margins_exact(self, capsys, tmp_path):
        code, report = run_cli(capsys, "margins", "--out", str(tmp_path))
        assert code == 0
        assert report["report"]["margins_ua"] == {
            "read": 5.5, "pair_lower": 3.2, "pair_upper": 2.5,
        }
        assert report["seed"] == DEFAULT_CONFIG["seed"]
        assert len(report["config_hash"]) == 64

    @pytest.mark.parametrize(
        "op,expected", [("CimAND", [0, 0, 0, 1]), ("CimOR", [0, 1, 1, 1]),
                        ("CimXOR", [0, 1, 1, 0]), ("CimNOR", [1, 0, 0, 0])]
    )
    def test_truth_table_zero_noise(self, capsys, tmp_path, op, expected):
        code, report = run_cli(
            capsys, "truth-table", "--op", op, "--noise", "0", "--out", str(tmp_path)
        )
        assert code == 0
        rows = report["report"]["rows"]
        assert [r["output"] for r in rows] == expected
        assert [r["states"] for r in rows] == ["AP,AP", "AP,P", "P,AP", "P,P"]
        assert [r["nominal_current_ua"] for r in rows] == [17.0, 20.2, 20.2, 22.7]

    def test_mc_failure_matches_reference_rate(self, capsys, tmp_path):
        code, report = run_cli(
            capsys, "mc-failure", "--pair", "AP,P", "--temp", "100",
            "--trials", "3000", "--out", str(tmp_path),
        )
        assert code == 0
        payload = report["report"]
        assert payload["analytic_rate"] == pytest.approx(0.044, abs=0.002)
        assert abs(payload["rate"] - payload["analytic_rate"]) < 0.012

    @pytest.mark.parametrize("command", ["mc-failure", "auth-attack", "mitigate"])
    @pytest.mark.parametrize("temp", ["nan", "inf", "-inf"])
    def test_non_finite_temperature_exits_one(self, capsys, tmp_path, command, temp):
        assert main([command, f"--temp={temp}", "--out", str(tmp_path)]) == 1
        assert "must be a finite number" in capsys.readouterr().err
        assert not (tmp_path / f"{command}.json").exists()

    def test_nan_config_temperature_exits_one(self, capsys, tmp_path):
        config = tmp_path / "nan.json"
        config.write_text('{"attack": {"zone_temp": NaN}}')
        code = main(["mc-failure", "--config", str(config), "--out", str(tmp_path)])
        assert code == 1
        assert "finite" in capsys.readouterr().err

    def test_extreme_temperature_saturates_collapse(self, capsys, tmp_path):
        # rho = exp(a + b*dT) would overflow; it saturates at 1 instead, so
        # both AP cells always collapse and the pair senses at the P,P level
        code, report = run_cli(
            capsys, "mc-failure", "--pair", "AP,AP", "--temp", "20000",
            "--trials", "2000", "--out", str(tmp_path),
        )
        assert code == 0
        payload = report["report"]
        model = build_model(load_config())
        oracle = collapse_pair_exceed(model.pair_ladder, 0, model.sigma, 21.45, 1.0)
        assert payload["analytic_rate"] == pytest.approx(oracle, rel=1e-12)
        assert abs(payload["rate"] - oracle) <= binomial_3sigma(oracle, 2000)

    def test_reports_byte_identical_across_runs_and_threads(self, capsys, tmp_path):
        args = ["mc-failure", "--pair", "AP,P", "--temp", "100",
                "--trials", "2000", "--out", str(tmp_path)]
        assert main(args) == 0
        capsys.readouterr()
        first = (tmp_path / "mc-failure.json").read_bytes()
        assert main(args) == 0
        capsys.readouterr()
        assert (tmp_path / "mc-failure.json").read_bytes() == first
        for threads in ("2", "3", "4"):
            assert main(args + ["--threads", threads]) == 0
            capsys.readouterr()
            assert (tmp_path / "mc-failure.json").read_bytes() == first

    def test_isa_run_compare_lowered(self, capsys, tmp_path):
        program = tmp_path / "add.cim"
        program.write_text("CimADD @0, @1, @2\n")
        init = tmp_path / "init.hex"
        words = ["0007", "0009"] + ["0000"] * 62
        init.write_text("\n".join(words) + "\n")
        code, report = run_cli(
            capsys, "isa-run", "--program", str(program), "--init-hex", str(init),
            "--compare-lowered", "--zero-noise", "--out", str(tmp_path),
        )
        assert code == 0
        payload = report["report"]
        assert payload["direct"]["memory_access_count"] == 1
        assert payload["lowered"]["memory_access_count"] == 3
        assert payload["memory_access_delta"] == 2
        assert payload["final_memory_equal"] is True
        assert (tmp_path / "isa-run-trace.csv").exists()
        assert (tmp_path / "isa-run-lowered-trace.csv").exists()

    def test_calibrate_matches_shipped_defaults(self, capsys, tmp_path):
        code, report = run_cli(capsys, "calibrate", "--out", str(tmp_path))
        assert code == 0
        deltas = report["report"]["relative_delta"]
        assert all(delta < 0.01 for delta in deltas.values())

    def test_sca_sweep(self, capsys, tmp_path):
        config = tmp_path / "small.json"
        config.write_text(
            '{"sca": {"samples_per_class": 400, "sweep_sigma_energy": [1.0, 5.0]}}'
        )
        code, report = run_cli(
            capsys, "sca", "--config", str(config), "--out", str(tmp_path)
        )
        assert code == 0
        rows = report["report"]["rows"]
        assert len(rows) == 2
        for row in rows:
            assert row["enhanced_11_class"] <= row["standard_4_class"]
        assert (tmp_path / "sca.csv").exists()

    def test_sca_report_golden(self, capsys, tmp_path):
        # captured before labels became integer codes: any change to the
        # noise stream or the classifier arithmetic moves these digits
        config = tmp_path / "tiny.json"
        config.write_text('{"sca": {"samples_per_class": 200}}')
        code, report = run_cli(
            capsys, "sca", "--config", str(config), "--seed", "7", "--out", str(tmp_path)
        )
        assert code == 0
        assert report["report"] == {"samples_per_class": 200, "rows": [
            {"sigma_duration": 0.05, "sigma_energy": 0.5,
             "standard_4_class": 0.92625, "enhanced_11_class": 0.7186363636363636},
            {"sigma_duration": 0.05, "sigma_energy": 1.0,
             "standard_4_class": 0.83125, "enhanced_11_class": 0.6127272727272727},
            {"sigma_duration": 0.05, "sigma_energy": 2.0,
             "standard_4_class": 0.79875, "enhanced_11_class": 0.5377272727272727},
            {"sigma_duration": 0.05, "sigma_energy": 5.0,
             "standard_4_class": 0.78, "enhanced_11_class": 0.4622727272727273},
        ]}
        assert (tmp_path / "sca.csv").read_bytes().decode() == (
            'sigma_duration,sigma_energy,standard_4_class,enhanced_11_class\r\n'
            '0.05,0.5,0.92625,0.7186363636363636\r\n'
            '0.05,1.0,0.83125,0.6127272727272727\r\n'
            '0.05,2.0,0.79875,0.5377272727272727\r\n'
            '0.05,5.0,0.78,0.4622727272727273\r\n'
        )

    def test_auth_attack_smoke(self, capsys, tmp_path):
        code, report = run_cli(
            capsys, "auth-attack", "--variant", "XnorLevel", "--temp", "100",
            "--trials", "300", "--out", str(tmp_path),
        )
        assert code == 0
        assert report["report"]["trials"] == 300

    def test_auth_attack_integer_levels(self, capsys, tmp_path):
        config = tmp_path / "int.json"
        config.write_text(json.dumps({"device": {
            "single_levels": {"AP": 10, "P": 15},
            "pair_levels": {"AP,AP": 17, "AP,P": 20, "P,P": 23},
        }}))
        code, report = run_cli(
            capsys, "auth-attack", "--config", str(config), "--variant", "XnorLevel",
            "--temp", "100", "--trials", "50", "--out", str(tmp_path),
        )
        assert code == 0
        assert report["report"]["trials"] == 50

    def test_mitigate_smoke(self, capsys, tmp_path):
        code, report = run_cli(
            capsys, "mitigate", "--family", "collapse", "--trials", "2000",
            "--out", str(tmp_path),
        )
        assert code == 0
        payload = report["report"]
        assert payload["after"]["rate"] < payload["before"]["rate"]

    def test_usage_error_exits_one(self, capsys):
        assert main(["mc-failure", "--no-such-flag"]) == 1
        assert main([]) == 1

    def test_config_error_exits_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"devize": 1}')
        assert main(["margins", "--config", str(bad)]) == 1

    @pytest.mark.parametrize("overlay,flags,key", [
        ({"seed": 1.5}, [], "seed"),
        ({"seed": True}, [], "seed"),
        ({}, ["--seed", "-1"], "seed"),
        ({"trials": "many"}, [], "trials"),
        ({}, ["--trials", "0"], "trials"),
        ({}, ["--threads", "-3"], "threads"),
        ({"sca": {"samples_per_class": "x"}}, [], "sca.samples_per_class"),
        ({"sca": {"samples_per_class": 2.5}}, [], "sca.samples_per_class"),
        ({"sca": {"sigma_duration": -0.1}}, [], "sca.sigma_duration"),
        ({"sca": {"sweep_sigma_energy": [1.0, -2.0]}}, [], "sca.sweep_sigma_energy"),
        ({"sca": {"sweep_sigma_energy": "1.0"}}, [], "sca.sweep_sigma_energy"),
        ({"device": {"sigma": "x"}}, [], "device.sigma"),
        ({"device": {"sigma": -0.5}}, [], "device.sigma"),
        ({"device": {"single_levels": {"P": "15.5"}}}, [], "device.single_levels.P"),
        ({"device": {"pair_levels": {"AP,P": None}}}, [], "device.pair_levels.AP,P"),
        ({"device": {"ambient_temp": True}}, [], "device.ambient_temp"),
        ({"device": {"collapse": {"b": [0.07]}}}, [], "device.collapse.b"),
        ({"array": {"cols_per_row": "x"}}, [], "array.cols_per_row"),
        ({"array": {"banks": 0}}, [], "array.banks"),
        ({"array": {"rows_per_bank": 64.0}}, [], "array.rows_per_bank"),
        ({"array": {"i_ref_and": "21.45"}}, [], "array.i_ref_and"),
        ({"attack": {"zone_temp": "hot"}}, [], "attack.zone_temp"),
        ({"attack": {"force_flip": 1}}, [], "attack.force_flip"),
        ({"attack": {"credential_width": 0}}, [], "attack.credential_width"),
        ({"attack": {"password": -1}}, [], "attack.password"),
        ({"mitigation": {"zone_temp": "100"}}, [], "mitigation.zone_temp"),
        ({"mitigation": {"collapse_estimate": {"beta": None}}}, [],
         "mitigation.collapse_estimate.beta"),
        ({"device": {"pair_levels": {"AP,AP": 30}}}, [], "device.pair_levels"),
        ({"device": {"single_levels": {"P": 9.5}}}, [], "device.single_levels"),
        ({"array": {"i_ref_or": 22.0}}, [], "array"),
        ({"cost": {"standard": {"Write1": ["a", 1]}}}, [], "cost.standard.Write1"),
        ({"cost": {"enhanced": {"CimAND": [0.55]}}}, [], "cost.enhanced.CimAND"),
        ({"cost": {"enhanced": {"Read0": [0.67, -1.0]}}}, [], "cost.enhanced.Read0"),
        ({"attack": {"variant": "Bogus"}}, [], "attack.variant"),
        ({"attack": {"policy": {"user": "sometimes"}}}, [], "attack.policy.user"),
        ({"attack": {"policy": {"password": ["random"]}}}, [], "attack.policy.password"),
        ({"cost": {"mode": "Bogus"}}, [], "cost.mode"),
        ({"mitigation": {"collapse_estimate": {"alpha": 0.5}}}, [],
         "mitigation.collapse_estimate"),
        ({"mitigation": {"collapse_estimate": {"alpha": 0}}}, [],
         "mitigation.collapse_estimate"),
        ({"mitigation": {"shift_estimate": {"gamma": 0.2}}}, [],
         "mitigation.shift_estimate"),
    ])
    @pytest.mark.parametrize("command", ["mc-failure", "sca"])
    def test_out_of_range_run_leaf_exits_one(
        self, capsys, tmp_path, command, overlay, flags, key
    ):
        config = tmp_path / "overlay.json"
        config.write_text(json.dumps(overlay))
        code = main([command, "--config", str(config), *flags, "--out", str(tmp_path)])
        assert code == 1
        assert f"error: {key} must be" in capsys.readouterr().err
        assert not (tmp_path / f"{command}.json").exists()

    @pytest.mark.parametrize("argv,overlay,key", [
        (["isa-run", "--program", "absent.cim"], {"array": {"cols_per_row": "x"}},
         "array.cols_per_row"),
        (["auth-attack"], {"attack": {"zone_temp": "hot"}}, "attack.zone_temp"),
        (["truth-table", "--noise", "-1"], {}, "device.sigma"),
        (["auth-attack"], {"attack": {"variant": "Bogus"}}, "attack.variant"),
        (["auth-attack"], {"attack": {"policy": {"user": "sometimes"}}},
         "attack.policy.user"),
        (["sca"], {"cost": {"standard": {"Write1": ["a", 1]}}}, "cost.standard.Write1"),
        (["mitigate"], {"cost": {"mode": "Bogus"}}, "cost.mode"),
        (["mitigate"], {"mitigation": {"collapse_estimate": {"alpha": 0.5}}},
         "mitigation.collapse_estimate"),
    ])
    def test_bad_leaf_exits_one_on_the_command_that_reads_it(
        self, capsys, tmp_path, argv, overlay, key
    ):
        config = tmp_path / "overlay.json"
        config.write_text(json.dumps(overlay))
        assert main([*argv, "--config", str(config), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert f"error: {key} must be" in err and "Traceback" not in err

    # --out overrides out_dir, so these run without it, from an empty directory
    @pytest.mark.parametrize("overlay,flags", [
        ({"out_dir": 5}, []),
        ({"out_dir": None}, []),
        ({}, ["--out", ""]),
    ])
    @pytest.mark.parametrize("command", ["margins", "sca"])
    def test_bad_out_dir_exits_one(
        self, capsys, tmp_path, monkeypatch, command, overlay, flags
    ):
        monkeypatch.chdir(tmp_path)
        Path("overlay.json").write_text(json.dumps(overlay))
        assert main([command, "--config", "overlay.json", *flags]) == 1
        err = capsys.readouterr().err
        assert "error: out_dir must be" in err and "Traceback" not in err
        assert sorted(os.listdir()) == ["overlay.json"]

    def test_golden_mc_failure_and_mitigate_reports(self, capsys, tmp_path):
        # captured before trial streams were seeded from precomputed blocks:
        # every trial stream must stay default_rng((seed, i)), and these runs
        # cross block edges, a two-word seed and two threads
        cases = [
            (["mc-failure", "--pair", "AP,P", "--temp", "100", "--trials", "2500"],
             {"analytic_rate": 0.044094963944199136, "failures": 102, "pair": "AP,P",
              "rate": 0.0408, "seed": 20240, "trials": 2500,
              "wilson_95_ci": [0.033723846141628544, 0.04928518707351247],
              "zone_temp": 100.0}),
            (["mc-failure", "--pair", "AP,P", "--temp", "50", "--trials", "2500",
              "--seed", str(2**40 + 5), "--threads", "2"],
             {"analytic_rate": 0.005999893291382333, "failures": 15, "pair": "AP,P",
              "rate": 0.006, "seed": 2**40 + 5, "trials": 2500,
              "wilson_95_ci": [0.0036394868761728013, 0.009876328472868269],
              "zone_temp": 50.0}),
            (["mitigate", "--family", "collapse", "--trials", "1500"],
             {"after": {"analytic_rate": 0.03722573287327257, "failures": 52,
                        "rate": 0.034666666666666665, "seed": 20240, "trials": 1500,
                        "wilson_95_ci": [0.026533490787242278, 0.04517716606967329]},
              "before": {"analytic_rate": 0.044094963944199136, "failures": 61,
                         "rate": 0.04066666666666666, "seed": 20240, "trials": 1500,
                         "wilson_95_ci": [0.031788512536601546, 0.05189149115167185]},
              "family": "collapse", "natural_rate": 0.005000030400268099,
              "pair": "AP,P", "ref_after": 21.95, "ref_before": 21.45,
              "zone_temp": 100.0}),
            (["mitigate", "--family", "meanshift", "--trials", "1500", "--seed", "11"],
             {"after": {"analytic_rate": 0.00430271770132473, "failures": 11,
                        "rate": 0.007333333333333333, "seed": 11, "trials": 1500,
                        "wilson_95_ci": [0.004099723207137281, 0.013083909195814881]},
              "before": {"analytic_rate": 0.01524388830113826, "failures": 31,
                         "rate": 0.020666666666666667, "seed": 11, "trials": 1500,
                         "wilson_95_ci": [0.014597274166911008, 0.029184906750169652]},
              "family": "meanshift", "natural_rate": 0.005000030400268099,
              "pair": "AP,P", "ref_after": 21.675, "ref_before": 21.45,
              "zone_temp": 100.0}),
        ]
        for argv, payload in cases:
            code, report = run_cli(capsys, *argv, "--out", str(tmp_path))
            assert code == 0
            assert report["report"] == payload

    def test_python_dash_m_runs_the_cli(self, tmp_path):
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]
        )}
        done = subprocess.run(
            [sys.executable, "-m", "spincim", "margins", "--out", str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["command"] == "margins"
        assert (tmp_path / "margins.json").is_file()
        done = subprocess.run(
            [sys.executable, "-m", "spincim", "--version"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == f"spincim {spincim.__version__}\n"

    def test_version_flag_needs_no_command(self, capsys):
        with pytest.raises(SystemExit) as done:
            main(["--version"])
        assert done.value.code == 0
        assert capsys.readouterr().out == f"spincim {spincim.__version__}\n"

    def test_experiment_error_exits_two(self, capsys, tmp_path):
        assert main(
            ["isa-run", "--program", str(tmp_path / "absent.cim"),
             "--out", str(tmp_path)]
        ) == 2

    @pytest.mark.parametrize("word", ["-1", "zz", "0x1F", "+7", "1_0"])
    def test_bad_hex_word_exits_two_naming_its_line(self, capsys, tmp_path, word):
        (tmp_path / "p.cim").write_text("LOAD R1, @0\n")
        dump = ["# banks=1 rows_per_bank=64 cols_per_row=16", word] + ["0000"] * 63
        (tmp_path / "dump.hex").write_text("\n".join(dump) + "\n")
        code = main(
            ["isa-run", "--program", str(tmp_path / "p.cim"), "--init-hex",
             str(tmp_path / "dump.hex"), "--zero-noise", "--out", str(tmp_path)]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"experiment error: hex dump line 2: {word!r} is not a hex word\n"
        assert "Traceback" not in err


_LEAF = st.one_of(
    st.integers(-2, 50), st.floats(-5.0, 50.0), st.booleans(), st.none(), st.text(max_size=2)
)


@settings(max_examples=40, deadline=None)
@given(
    command=st.sampled_from(["mc-failure", "sca"]),
    overlay=st.fixed_dictionaries({}, optional={
        "seed": _LEAF,
        "trials": _LEAF,
        "threads": st.one_of(st.integers(-2, 4), st.floats(-1.0, 4.0), st.text(max_size=2)),
        "sca": st.fixed_dictionaries({}, optional={
            "samples_per_class": _LEAF,
            "sigma_duration": _LEAF,
            "sweep_sigma_energy": st.one_of(_LEAF, st.lists(_LEAF, max_size=3)),
        }),
        "device": st.fixed_dictionaries({}, optional={"sigma": _LEAF}),
        "array": st.fixed_dictionaries({}, optional={"cols_per_row": _LEAF}),
        "attack": st.fixed_dictionaries({}, optional={"zone_temp": _LEAF}),
    }),
    flags=st.lists(st.tuples(
        st.sampled_from(["--seed", "--trials", "--threads"]), st.integers(-2, 4)
    ), max_size=2),
)
def test_any_run_overlay_exits_cleanly(command, overlay, flags):
    with tempfile.TemporaryDirectory() as out:
        config = f"{out}/overlay.json"
        with open(config, "w") as handle:
            json.dump(overlay, handle)
        argv = [command, "--config", config, "--out", out]
        argv += [str(part) for flag in flags for part in flag]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
