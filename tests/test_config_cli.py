import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import threading
import tracemalloc
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spincim
from spincim import cli
from spincim.analytic import binomial_stderr
from spincim.array import TWO_ROW_OPS, ArrayGeometry, CimOp, SenseConfig
from spincim.attack import AttackVariant
from spincim.cli import build_parser, main
from spincim.config import (
    _SCHEMA,
    DEFAULT_CONFIG,
    POLICY_MODES,
    build_collapse,
    build_cost_table,
    build_geometry,
    build_model,
    build_sense,
    canonical_json,
    config_hash,
    load_config,
    validate_run,
)
from spincim.cost import CostTable
from spincim.device import Collapse, CurrentLevelModel, column_law
from spincim.errors import ConfigError

from _oracles import binomial_3sigma, collapse_pair_exceed


def leaves(node, path=()):
    """Each leaf of a nested config as (its path of keys, its value)."""
    if not isinstance(node, dict):
        yield path, node
        return
    for key, value in node.items():
        yield from leaves(value, (*path, key))


def dotted_leaves(config: dict) -> list[str]:
    return [".".join(path) for path, _ in leaves(config)]


class TestConfig:
    def test_defaults_build_shipped_model(self):
        config = load_config()
        model = build_model(config)
        assert model.margins() == {"read": 5.5, "pair_lower": 3.2, "pair_upper": 2.5}
        sense = build_sense(config)
        sense.validate_against(model)

    @pytest.mark.parametrize("order", [list, reversed], ids=["listed", "reversed"])
    def test_level_overlay_in_any_key_order_reaches_the_law(self, tmp_path, order):
        levels = {"single_levels": {"AP": 9.5, "P": 15.0},
                  "pair_levels": {"AP,AP": 16.5, "AP,P": 19.5, "P,P": 23.0}}
        overlay = {key: dict(order(list(section.items()))) for key, section in levels.items()}
        path = tmp_path / "levels.json"
        path.write_text(json.dumps({"device": overlay}))
        model = build_model(load_config(path))
        assert model == CurrentLevelModel(single_levels=(9.5, 15.0),
                                          pair_levels=(16.5, 19.5, 23.0))
        assert model.margins() == {"read": 5.5, "pair_lower": 3.0, "pair_upper": 3.5}
        assert column_law(2, model) == ((16.5, 19.5, 23.0), ())
        assert column_law(1, model) == ((9.5, 15.0), ())

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

    @pytest.mark.parametrize("text,key", [
        ('{"seed": 1, "seed": 2}', "seed"),
        ('{"device": {"sigma": 0.5, "sigma": 0.6}}', "sigma"),
        ('{"cost": {"enhanced": {"Read1": [1, 2], "Read1": [1, 2]}}}', "Read1"),
        ('{"sca": {}, "seed": 3, "sca": {}}', "sca"),
    ])
    def test_repeated_key_rejected_at_any_depth(self, capsys, tmp_path, text, key):
        path = tmp_path / "twice.json"
        path.write_text(text)
        with pytest.raises(ConfigError, match=f"config key '{key}' is repeated"):
            load_config(path)
        assert main(["margins", "--config", str(path), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error: config key '{key}' is repeated\n"
        assert not (tmp_path / "margins.json").exists()

    def test_a_key_in_two_objects_is_not_repeated(self, tmp_path):
        path = tmp_path / "siblings.json"
        path.write_text('{"cost": {"standard": {"Read1": [0.7, 9.0]}, '
                        '"enhanced": {"Read1": [0.8, 9.5]}}}')
        config = load_config(path)
        assert config["cost"]["standard"]["Read1"] == [0.7, 9.0]
        assert config["cost"]["enhanced"]["Read1"] == [0.8, 9.5]

    def test_non_utf8_config_exits_one_naming_the_file(self, capsys, tmp_path):
        path = tmp_path / "latin.json"
        path.write_bytes(b'{"seed": "\xff"}')
        assert main(["margins", "--config", str(path), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: cannot read config file {path}: ")

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
        # moved only by removing the unread sca.sigma_energy leaf, then the ten
        # unread device.metadata leaves
        assert config_hash(load_config()) == (
            "ce30563aec2f23b9e6d18bdafb1b2a576548e0ed9069efd35e489d10b6256a14"
        )

    def test_every_leaf_is_checked(self):
        validate_run(load_config())  # the defaults pass
        for path, default in leaves(DEFAULT_CONFIG):
            config = load_config()
            section = config
            for key in path[:-1]:
                section = section[key]
            section[path[-1]] = 5 if isinstance(default, str) else "x"
            with pytest.raises(ConfigError) as raised:
                validate_run(config)
            assert str(raised.value).startswith(f"{'.'.join(path)} must be ")

    @pytest.mark.parametrize("path,value,message", [
        (("mitigation", "zone_tmp"), 140.0, "unknown configuration key: mitigation.zone_tmp"),
        (("device", "collapse", "tmr"), 1, "unknown configuration key: device.collapse.tmr"),
        (("extra",), {}, "unknown configuration key: extra"),
        (("device", "collapse"), 3, "device.collapse must be an object, got 3"),
        (("cost", "standard"), [], "cost.standard must be an object, got []"),
    ], ids=["misspelt_leaf", "nested_extra", "top_level_extra", "number_section", "list_section"])
    def test_undeclared_key_or_scalar_section_refused(self, path, value, message):
        config = load_config()
        section = config
        for key in path[:-1]:
            section = section[key]
        section[path[-1]] = value
        with pytest.raises(ConfigError) as raised:
            validate_run(config)
        assert str(raised.value) == message
        with pytest.raises(ConfigError, match="^the config must be an object, got \\[\\]$"):
            validate_run([])

    @pytest.mark.parametrize("path", [("seed",), ("sca", "samples_per_class"),
                                      ("attack", "policy", "user")], ids=".".join)
    def test_missing_key_refused(self, path):
        config = load_config()
        section = config
        for key in path[:-1]:
            section = section[key]
        del section[path[-1]]
        with pytest.raises(ConfigError) as raised:
            validate_run(config)
        assert str(raised.value) == f"missing configuration key: {'.'.join(path)}"

    def test_a_device_metadata_block_exits_one_naming_it(self, capsys, tmp_path):
        # the fabrication numbers are documented in the README, not read as inputs
        path = tmp_path / "metadata.json"
        path.write_text('{"device": {"metadata": {"tmr_percent": 100}}}')
        assert main(["margins", "--config", str(path), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == "error: unknown configuration key: device.metadata\n"
        assert not (tmp_path / "margins.json").exists()

    def test_cli_refuses_an_undeclared_key(self, monkeypatch, capsys, tmp_path):
        def misspelt(path):   # as if a flag named the leaf mitigation.zone_tmp
            config = load_config(path)
            config["mitigation"]["zone_tmp"] = 140.0
            return config

        monkeypatch.setattr(spincim.config, "load_config", misspelt)
        assert main(["mitigate", "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            "error: unknown configuration key: mitigation.zone_tmp\n"
        )
        assert not (tmp_path / "out").exists()


def run_cli(capsys, *argv) -> tuple[int, dict | None]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    return next(action.choices for action in build_parser()._actions
                if isinstance(action, argparse._SubParsersAction))


def _dotted(overlay: dict) -> str:
    """The dotted path of the one leaf an overlay sets."""
    (key, value), = overlay.items()
    return f"{key}.{_dotted(value)}" if isinstance(value, dict) else key


_AUTH = ["auth-attack", "--trials", "20"]
# every flag that names a config leaf, each as (command, the flag, the overlay
# giving its leaf the same value); each value differs from the shipped default
_FLAG_IS_LEAF = [
    (["mc-failure", "--trials", "20"], ["--seed", "3"], {"seed": 3}),
    (["mc-failure"], ["--trials", "20"], {"trials": 20}),
    (["truth-table"], ["--noise", "0.7"], {"device": {"sigma": 0.7}}),
    (["isa-run", "--program", "p.cim"], ["--zero-noise"], {"device": {"sigma": 0.0}}),
    (["mc-failure", "--trials", "20"], ["--temp", "140"], {"attack": {"zone_temp": 140.0}}),
    (_AUTH, ["--temp", "140"], {"attack": {"zone_temp": 140.0}}),
    (["mitigate", "--trials", "20"], ["--temp", "140"], {"mitigation": {"zone_temp": 140.0}}),
    (_AUTH, ["--variant", "GateLevel"], {"attack": {"variant": "GateLevel"}}),
    (_AUTH, ["--force-flip"], {"attack": {"force_flip": True}}),
    (_AUTH, ["--user-policy", "random"], {"attack": {"policy": {"user": "random"}}}),
    (_AUTH, ["--password-policy", "correct"], {"attack": {"policy": {"password": "correct"}}}),
]


def _report_files(capsys, argv, out: Path) -> dict[str, bytes]:
    """The bytes of each file one in-process report writes to ``out``."""
    assert main([*argv, "--out", str(out)]) == 0, capsys.readouterr().err
    capsys.readouterr()
    return {path.name: path.read_bytes() for path in out.iterdir()}


@pytest.fixture(scope="module")
def every_command(tmp_path_factory):
    """A small run of every command, and the files each writes in a fresh process."""
    inputs = tmp_path_factory.mktemp("inputs")
    (inputs / "sca.json").write_text('{"sca": {"samples_per_class": 50}}')
    (inputs / "p.cim").write_text("CimAND @0, @1, @2\nCimADD @0, @1, @3\nCimNOT @2, @4\n")
    runs = {
        "margins": ["margins"],
        "truth-table": ["truth-table", "--op", "CimXOR", "--seed", "5"],
        "mc-failure": ["mc-failure", "--temp", "100", "--trials", "1500"],
        "mitigate": ["mitigate", "--trials", "1500", "--seed", "11"],
        "auth-attack": ["auth-attack", "--temp", "140", "--trials", "40"],
        "isa-run": ["isa-run", "--program", str(inputs / "p.cim"), "--compare-lowered",
                    "--seed", "7"],
        "sca": ["sca", "--config", str(inputs / "sca.json"), "--seed", "3"],
        "calibrate": ["calibrate"],
    }
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]
    )}
    fresh = {}
    for tag, argv in runs.items():
        out = inputs / "fresh" / tag
        done = subprocess.run([sys.executable, "-m", "spincim", *argv, "--out", str(out)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        fresh[tag] = {path.name: path.read_bytes() for path in out.iterdir()}
    return runs, fresh


@pytest.fixture
def parser_builds(monkeypatch) -> list:
    """One entry for each call of ``cli.build_parser`` while the test runs."""
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    return built


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
        oracle = collapse_pair_exceed(model.pair_levels, 0, model.sigma, 21.45, 1.0)
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

    def test_a_process_running_many_reports_writes_the_bytes_of_a_fresh_one(
            self, capsys, tmp_path, every_command):
        # A B A B from a cold stream cache: a cache entry or a stream that one
        # report leaves behind must not reach the next
        runs, fresh = every_command
        spincim.device._stream_seeds.cache_clear()
        files = {tag: [] for tag in runs}
        for _ in range(2):
            for tag, argv in runs.items():
                files[tag].append(_report_files(capsys, argv, tmp_path / tag))
        for tag, (first, second) in files.items():
            assert first == second == fresh[tag], tag

    def test_commands_outside_monte_carlo_runs_cache_no_trial_streams(
            self, capsys, tmp_path, every_command):
        # each seeds np.random.default_rng((seed, i)) itself, the stream
        # trial_rng would give, and leaves the Monte Carlo block cache empty
        runs, _ = every_command
        spincim.device._stream_seeds.cache_clear()
        for tag in ("truth-table", "isa-run", "sca"):
            _report_files(capsys, runs[tag], tmp_path / tag)
        assert spincim.device._stream_seeds.cache_info().currsize == 0

    def test_a_shared_parser_stays_stateless(self, capsys, tmp_path, every_command,
                                             parser_builds):
        # every way a parse can end, each followed by a report that must carry
        # the bytes of a fresh process, all through one parser
        runs, fresh = every_command
        cli._parser.cache_clear()
        bad = tmp_path / "bad.json"
        bad.write_text('{"device": {"sigma": "x"}}')
        cold = tmp_path / "cold.json"
        cold.write_text('{"device": {"ambient_temp": 120}}')
        endings = [
            (["mc-failure", "--pair", "AP,Q"], 1),
            (["margins", "--config", str(bad)], 1),
            (["mc-failure", "--help"], SystemExit),
            (["--version"], SystemExit),
            (["calibrate", "--config", str(cold), "--out", str(tmp_path / "no")], 2),
        ]
        for k, (tag, argv) in enumerate(runs.items()):
            ending, code = endings[k % len(endings)]
            if code is SystemExit:
                with pytest.raises(SystemExit) as done:
                    main(ending)
                assert done.value.code == 0
            else:
                assert main(ending) == code
            capsys.readouterr()
            assert _report_files(capsys, argv, tmp_path / tag) == fresh[tag], tag
        assert len(parser_builds) == 1

    def test_reports_after_the_first_reuse_its_parser(self, capsys, tmp_path, parser_builds):
        for _ in range(51):  # one warm-up, then 50
            assert main(["margins", "--out", str(tmp_path)]) == 0
            capsys.readouterr()
        assert len(parser_builds) <= 1

    def test_isa_run_bytes_do_not_depend_on_how_its_inputs_are_named(
            self, capsys, tmp_path, monkeypatch):
        inputs, elsewhere = tmp_path / "inputs", tmp_path / "elsewhere"
        inputs.mkdir()
        elsewhere.mkdir()
        program = b"CimAND @0, @1, @2\nCimADD @0, @1, @3\nCimNOT @2, @4\n"
        dump = "\n".join(["00ff", "0f0f"] + ["0000"] * 62).encode() + b"\n"
        (inputs / "p.cim").write_bytes(program)
        (inputs / "d.hex").write_bytes(dump)
        (inputs / "noisy.json").write_text('{"device": {"sigma": 0.9}}')
        files = []
        for cwd, prefix in ((inputs, ""), (elsewhere, f"{inputs}{os.sep}")):
            monkeypatch.chdir(cwd)
            argv = ["isa-run", "--program", f"{prefix}p.cim", "--init-hex", f"{prefix}d.hex",
                    "--config", f"{prefix}noisy.json", "--compare-lowered", "--seed", "5",
                    "--out", "out"]
            assert main(argv) == 0, capsys.readouterr().err
            capsys.readouterr()
            files.append({path.name: path.read_bytes() for path in Path("out").iterdir()})
        assert files[0] == files[1]
        report = json.loads(files[0]["isa-run.json"])["report"]
        assert report["program_sha256"] == hashlib.sha256(program).hexdigest()
        assert report["init_hex_sha256"] == hashlib.sha256(dump).hexdigest()
        assert "program" not in report

        code, doc = run_cli(capsys, "isa-run", "--program", str(inputs / "p.cim"),
                            "--out", "bare")
        assert code == 0
        assert doc["report"]["init_hex_sha256"] is None
        assert doc["report"]["program_sha256"] == report["program_sha256"]

    @pytest.mark.parametrize("flag", ["--program", "--init-hex"])
    def test_isa_run_names_the_input_it_cannot_decode(self, capsys, tmp_path, flag):
        inputs = {"--program": tmp_path / "p.cim", "--init-hex": tmp_path / "d.hex"}
        inputs["--program"].write_text("CimNOT @0, @1\n")
        inputs["--init-hex"].write_text("\n".join(["00ff"] * 64) + "\n")
        inputs[flag].write_bytes(inputs[flag].read_bytes() + b"\xff\n")
        argv = ["isa-run", "--out", str(tmp_path / "out")]
        assert main([*argv, *(part for pair in inputs.items() for part in map(str, pair))]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"experiment error: {inputs[flag]} is not UTF-8 text: 'utf-8' ")
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize("reg", ["R6", "R7"])
    def test_compare_lowered_refuses_a_scratch_register(self, capsys, tmp_path, reg):
        # row 0 differs from AND(row 1, row 2), so a clobbered register would
        # store the wrong word in row 4
        program = f"LOAD {reg}, @0\nCimAND @1, @2, @3\nSTORE {reg}, @4\n"
        (tmp_path / "p.cim").write_text(program)
        dump = ["# banks=1 rows_per_bank=64 cols_per_row=16", "00ff", "0f0f", "3333"]
        (tmp_path / "d.hex").write_text("\n".join(dump + ["0000"] * 61) + "\n")
        out = tmp_path / "out"
        code = main(
            ["isa-run", "--program", str(tmp_path / "p.cim"), "--init-hex",
             str(tmp_path / "d.hex"), "--compare-lowered", "--zero-noise", "--out", str(out)]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == (
            f"experiment error: cannot lower instruction 0 (LOAD): {reg} is a scratch "
            "register of the lowered Cim instructions\n"
        )
        assert captured.out == ""
        assert not out.exists()

    def test_failed_companion_write_leaves_no_report(self, capsys, tmp_path):
        (tmp_path / "sca.csv").mkdir()
        (tmp_path / "tiny.json").write_text('{"sca": {"samples_per_class": 20}}')
        code = main(["sca", "--config", str(tmp_path / "tiny.json"), "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("experiment error: [Errno 21] Is a directory")
        assert captured.out == ""
        assert not (tmp_path / "sca.json").exists()

    def test_calibrate_matches_shipped_defaults(self, capsys, tmp_path):
        code, report = run_cli(capsys, "calibrate", "--out", str(tmp_path))
        assert code == 0
        deltas = report["report"]["relative_delta"]
        assert all(delta < 0.01 for delta in deltas.values())

    @pytest.mark.parametrize("overlay,key", [
        ({"device": {"sigma": 0}}, "sigma"),
        ({"device": {"collapse": {"b": 0}}}, "b"),
    ])
    def test_calibrate_zero_shipped_value_has_null_delta(
        self, capsys, tmp_path, overlay, key
    ):
        config = tmp_path / "overlay.json"
        config.write_text(json.dumps(overlay))
        code = main(["calibrate", "--config", str(config), "--out", str(tmp_path)])
        out, err = capsys.readouterr()
        assert code == 0 and "Traceback" not in err
        deltas = json.loads(out)["report"]["relative_delta"]
        assert deltas[key] is None
        assert all(value is not None for name, value in deltas.items() if name != key)

    @pytest.mark.parametrize("ambient", [100, 120])
    def test_calibrate_unfittable_ambient_exits_two(self, capsys, tmp_path, ambient):
        # every heated target sits at or below ambient, so every floored dT is
        # zero and no residual reads b: the fit is refused before it starts
        config = tmp_path / "overlay.json"
        config.write_text(json.dumps({"device": {"ambient_temp": ambient}}))
        out = tmp_path / "out"
        code = main(["calibrate", "--config", str(config), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and not out.exists()
        assert captured.err == (
            "experiment error: cannot fit b: the heated AP,P targets span fewer than "
            f"two distinct temperatures once floored at ambient_temp {ambient} C\n"
        )

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
        # recaptured when every noise level began to read one stream (the
        # sigma_E = 0.5 row kept its digits): any change to the noise stream
        # or the classifier arithmetic moves these digits
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
             "standard_4_class": 0.87, "enhanced_11_class": 0.6154545454545455},
            {"sigma_duration": 0.05, "sigma_energy": 2.0,
             "standard_4_class": 0.8, "enhanced_11_class": 0.5345454545454545},
            {"sigma_duration": 0.05, "sigma_energy": 5.0,
             "standard_4_class": 0.7725, "enhanced_11_class": 0.46},
        ]}
        assert (tmp_path / "sca.csv").read_bytes().decode() == (
            'sigma_duration,sigma_energy,standard_4_class,enhanced_11_class\r\n'
            '0.05,0.5,0.92625,0.7186363636363636\r\n'
            '0.05,1.0,0.87,0.6154545454545455\r\n'
            '0.05,2.0,0.8,0.5345454545454545\r\n'
            '0.05,5.0,0.7725,0.46\r\n'
        )

    @pytest.mark.parametrize("sigma", [1e160, 1e308])
    def test_overflowing_sca_sigma_exits_two(self, capsys, tmp_path, sigma):
        # 1e160 overflows the pooled variance, 1e308 the observations themselves
        config = tmp_path / "loud.json"
        config.write_text(json.dumps({"sca": {"sweep_sigma_energy": [sigma]}}))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["sca", "--config", str(config), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("experiment error: ") and "finite" in captured.err
        assert "Traceback" not in captured.err
        assert not (out / "sca.json").exists() and not (out / "sca.csv").exists()

    def test_overflowing_sca_observations_name_the_sigmas(self, capsys, tmp_path):
        config = tmp_path / "loud.json"
        config.write_text(json.dumps({"sca": {"sweep_sigma_energy": [0.5, 1e308]}}))
        assert main(["sca", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "experiment error: features must be finite; sigmas 0.05, 1e+308 overflow\n"
        )

    @staticmethod
    def _traced_peak(capsys, *argv) -> int:
        # numpy reports its buffers to tracemalloc, so the peak is a count, not a timing
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            assert main(list(argv)) == 0
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        capsys.readouterr()
        return peak

    def test_sca_traced_peak_at_most_8_mib(self, capsys, tmp_path):
        peak = self._traced_peak(capsys, "sca", "--out", str(tmp_path))
        assert peak <= 8 * 2**20, f"traced peak {peak / 2**20:.2f} MiB"

    def test_sca_peak_does_not_grow_with_the_class_count(self, capsys, tmp_path):
        # a whole 11-class training set of 20 000 rows a class would be 3.4 MiB alone;
        # fitted one class at a time, the sweep holds 20 000 rows at most
        config = tmp_path / "large.json"
        config.write_text(json.dumps(
            {"sca": {"samples_per_class": 20000, "sweep_sigma_energy": [2.0]}}))
        peak = self._traced_peak(capsys, "sca", "--config", str(config), "--out", str(tmp_path))
        assert peak < 3 * 2**20, f"traced peak {peak / 2**20:.2f} MiB"

    def test_sca_peak_does_not_grow_with_the_level_count(self, capsys, tmp_path):
        # the levels share one class of unit normals, one observed class and one
        # distance scratch, so four levels hold what one level holds
        config = tmp_path / "large.json"
        config.write_text(json.dumps(
            {"sca": {"samples_per_class": 20000, "sweep_sigma_energy": [0.5, 1.0, 2.0, 5.0]}}))
        peak = self._traced_peak(capsys, "sca", "--config", str(config), "--out", str(tmp_path))
        assert peak < 3 * 2**20, f"traced peak {peak / 2**20:.2f} MiB"

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

    @pytest.mark.parametrize("pair", ["AP,X", "AP", "P,P,P", ""])
    def test_bad_pair_is_a_usage_error(self, capsys, tmp_path, pair):
        assert main(["mc-failure", "--pair", pair, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: argument --pair: ") and "AP, P" in err
        assert not (tmp_path / "mc-failure.json").exists()

    @pytest.mark.parametrize("pair", ["P,AP", " P , AP", "P ,AP"])
    def test_pair_echoed_by_its_name_in_the_order_typed(self, capsys, tmp_path, pair):
        code, report = run_cli(
            capsys, "mc-failure", "--pair", pair, "--trials", "20", "--out", str(tmp_path)
        )
        assert code == 0 and report["report"]["pair"] == "P,AP"

    def test_pair_spellings_write_identical_bytes(self, capsys, tmp_path):
        blobs = []
        for pair in ("AP,P", " AP , P"):
            out = tmp_path / str(len(blobs))
            assert main(["mc-failure", "--pair", pair, "--trials", "20", "--out", str(out)]) == 0
            capsys.readouterr()
            blobs.append((out / "mc-failure.json").read_bytes())
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("argv", [
        ["mc-failure", "--pair", "AP,P", "--temp", "100"],
        ["auth-attack", "--variant", "XnorLevel", "--temp", "100"],
        ["mitigate", "--family", "collapse"],
    ])
    def test_threads_flag_starts_no_thread(self, capsys, tmp_path, monkeypatch, argv):
        def refuse(_thread):
            raise AssertionError("a Monte Carlo run started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        blobs = []
        for threads in ("1", "1000000"):
            code = main([*argv, "--trials", "40", "--threads", threads,
                         "--out", str(tmp_path)])
            assert code == 0, capsys.readouterr().err
            capsys.readouterr()
            blobs.append((tmp_path / f"{argv[0]}.json").read_bytes())
        assert blobs[0] == blobs[1]

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
        ({"attack": {"credential_width": 4}}, [], "attack"),
        ({"attack": {"credential_width": 65}}, [], "attack.credential_width"),
        ({"attack": {"credential_width": 10**12}}, [], "attack.credential_width"),
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

    @pytest.mark.parametrize("argv,overlay", [
        (["mc-failure", "--temp", "10"], {}),
        (["mc-failure"], {"attack": {"zone_temp": 19.5}}),
        (["auth-attack", "--temp", "10"], {}),
        (["auth-attack"], {"attack": {"zone_temp": 19.5}}),
        (["mitigate", "--family", "collapse", "--temp", "10"], {}),
        (["mitigate", "--family", "collapse"], {"mitigation": {"zone_temp": 19.5}}),
        (["mitigate", "--family", "meanshift", "--temp", "10"], {}),
        (["mitigate", "--family", "meanshift"], {"mitigation": {"zone_temp": 19.5}}),
        (["mitigate"], {"mitigation": {"zone_temp": 50.0}, "device": {"ambient_temp": 60.0}}),
        (["auth-attack", "--variant", "None", "--temp", "10"], {}),
        (["auth-attack"], {"attack": {"variant": "None", "zone_temp": 19.5}}),
    ])
    def test_zone_below_ambient_exits_two(self, capsys, tmp_path, argv, overlay):
        config = tmp_path / "overlay.json"
        config.write_text(json.dumps(overlay))
        out = tmp_path / "out"
        code = main([*argv, "--config", str(config), "--trials", "10", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == "experiment error: zone temperature cannot be below ambient\n"
        assert captured.out == ""
        assert not out.exists()

    def test_credential_width_64_tracks_oracle(self, capsys, tmp_path):
        config = tmp_path / "wide.json"
        config.write_text(json.dumps({"attack": {
            "credential_width": 64, "username": 2**64 - 1, "password": 2**63 + 5,
            "policy": {"user": "correct", "password": "random"},
        }}))
        code, report = run_cli(capsys, "auth-attack", "--config", str(config),
                               "--trials", "200", "--out", str(tmp_path))
        assert code == 0
        payload = report["report"]
        p, n = payload["analytic_rate"], payload["trials"]
        assert abs(payload["rate"] - p) <= 6 * binomial_stderr(p, n) + 36 / (3 * n)

    def test_choices_come_from_their_sources(self):
        commands = next(
            action.choices for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )

        def choices(command, flag):
            return next(action.choices for action in commands[command]._actions
                        if flag in action.option_strings)

        assert choices("truth-table", "--op") == [
            op.value for op in CimOp if op in TWO_ROW_OPS
        ]
        assert choices("auth-attack", "--variant") == [v.value for v in AttackVariant]
        assert choices("auth-attack", "--user-policy") == POLICY_MODES
        assert choices("auth-attack", "--password-policy") == POLICY_MODES

        # every flag of every command as (option strings, required, choices,
        # default), so that none is dropped, renamed or re-defaulted
        surface = {
            name: [(a.option_strings, a.required, a.choices, a.default) for a in p._actions]
            for name, p in commands.items()
        }
        common = [(["-h", "--help"], False, None, argparse.SUPPRESS)] + [
            ([flag], False, None, None)
            for flag in ("--config", "--seed", "--trials", "--threads", "--out")
        ]
        temp = (["--temp"], False, None, None)
        assert surface == {
            "margins": common,
            "truth-table": [
                *common,
                (["--op"], False, ["CimAND", "CimOR", "CimNAND", "CimNOR", "CimXOR"],
                 "CimAND"),
                (["--noise"], False, None, None),
            ],
            "mc-failure": [*common, (["--pair"], False, None, "AP,P"), temp],
            "auth-attack": [
                *common,
                (["--variant"], False, ["None", "GateLevel", "XnorLevel"], None),
                temp,
                (["--force-flip"], False, None, False),
                (["--user-policy"], False, ("correct", "random"), None),
                (["--password-policy"], False, ("correct", "random"), None),
            ],
            "isa-run": [
                *common,
                (["--program"], True, None, None),
                (["--compare-lowered"], False, None, False),
                (["--init-hex"], False, None, None),
                (["--zero-noise"], False, None, False),
            ],
            "sca": common,
            "mitigate": [
                *common, (["--family"], False, ["meanshift", "collapse"], "collapse"), temp,
            ],
            "calibrate": common,
        }

    def test_every_flag_leaf_is_a_schema_leaf(self):
        declared = set()
        for command, parser in _subcommands().items():
            for action in parser._actions:
                if not action.dest.startswith("config."):
                    continue
                leaf = action.dest.removeprefix("config.")
                node = _SCHEMA
                for name in leaf.split("."):
                    assert isinstance(node, dict) and name in node, (command, leaf)
                    node = node[name][0]
                assert not isinstance(node, dict), (command, leaf)
                declared.add((action.option_strings[0], leaf))
        # test_flag_is_its_leaf runs every one but the two unhashed runtime keys
        covered = {(flag[0], _dotted(overlay)) for _, flag, overlay in _FLAG_IS_LEAF}
        assert declared == covered | {("--threads", "threads"), ("--out", "out_dir")}

    def test_usage_lines_name_the_flags(self):
        usage = {name: " ".join(parser.format_usage().split())
                 for name, parser in _subcommands().items()}
        common = ("[-h] [--config CONFIG] [--seed SEED] [--trials TRIALS] "
                  "[--threads THREADS] [--out OUT]")
        assert usage == {
            "margins": f"usage: spincim margins {common}",
            "truth-table": f"usage: spincim truth-table {common} "
                           "[--op {CimAND,CimOR,CimNAND,CimNOR,CimXOR}] [--noise NOISE]",
            "mc-failure": f"usage: spincim mc-failure {common} [--pair PAIR] [--temp TEMP]",
            "auth-attack": f"usage: spincim auth-attack {common} "
                           "[--variant {None,GateLevel,XnorLevel}] [--temp TEMP] "
                           "[--force-flip] [--user-policy {correct,random}] "
                           "[--password-policy {correct,random}]",
            "isa-run": f"usage: spincim isa-run {common} --program PROGRAM "
                       "[--compare-lowered] [--init-hex INIT_HEX] [--zero-noise]",
            "sca": f"usage: spincim sca {common}",
            "mitigate": f"usage: spincim mitigate {common} "
                        "[--family {meanshift,collapse}] [--temp TEMP]",
            "calibrate": f"usage: spincim calibrate {common}",
        }

    @pytest.mark.parametrize("argv,flag,overlay", _FLAG_IS_LEAF,
                             ids=[f"{a[0]} {' '.join(f)}" for a, f, _ in _FLAG_IS_LEAF])
    def test_flag_is_its_leaf(self, capsys, tmp_path, monkeypatch, argv, flag, overlay):
        monkeypatch.chdir(tmp_path)
        Path("p.cim").write_text("CimAND @0, @1, @2\nCimXOR @0, @1, @3\n")
        Path("overlay.json").write_text(json.dumps(overlay))
        files = {}
        for tag, given in (("flag", flag), ("config", ["--config", "overlay.json"])):
            assert main([*argv, *given, "--out", tag]) == 0, capsys.readouterr().err
            capsys.readouterr()
            files[tag] = {path.name: path.read_bytes() for path in Path(tag).iterdir()}
        assert files["flag"] == files["config"]
        assert json.loads(files["flag"][f"{argv[0]}.json"])["config_hash"] != (
            config_hash(DEFAULT_CONFIG)
        )

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

    def test_hex_dump_of_another_geometry_exits_two(self, capsys, tmp_path):
        (tmp_path / "p.cim").write_text("LOAD R1, @0\n")
        # 2 x 32 words of 16 bits fit the default 1 x 64 array but for the header
        dump = ["# banks=2 rows_per_bank=32 cols_per_row=16"] + ["0000"] * 64
        (tmp_path / "dump.hex").write_text("\n".join(dump) + "\n")
        code = main(
            ["isa-run", "--program", str(tmp_path / "p.cim"), "--init-hex",
             str(tmp_path / "dump.hex"), "--zero-noise", "--out", str(tmp_path)]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err == (
            "experiment error: hex dump line 1: dump geometry banks=2 rows_per_bank=32 "
            "cols_per_row=16 does not match the array's banks=1 rows_per_bank=64 "
            "cols_per_row=16\n"
        )
        assert "Traceback" not in err


class LeafReads:
    """The dotted paths of the config leaves read through the configs it logs."""

    def __init__(self):
        self.read: set[str] = set()
        self.paused = 0

    def log(self, config: dict) -> dict:
        return _LoggedSection(config, self, "")

    def unlogged(self, fn):
        """``fn``, with no read logged while it runs."""
        def call(*args, **kwargs):
            self.paused += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self.paused -= 1
        return call


class _LoggedSection(dict):
    """A config section that logs each leaf read through it.

    Indexing and ``items`` log the leaves they return. ``__iter__`` and
    ``keys`` are overridden too: CPython copies an exact dict's items
    directly for ``**section`` and ``dict(section)``, and would read past the
    log. A leaf read another way (``get``, ``values``) goes unlogged, so the
    guard below fails on it rather than passing it unseen.
    """

    def __init__(self, section: dict, reads: LeafReads, path: str):
        super().__init__({
            key: _LoggedSection(value, reads, f"{path}{key}.") if isinstance(value, dict)
            else value
            for key, value in section.items()
        })
        self._reads, self._path = reads, path

    def __getitem__(self, key):
        value = super().__getitem__(key)
        if not isinstance(value, _LoggedSection) and not self._reads.paused:
            self._reads.read.add(self._path + key)
        return value

    def __iter__(self):
        return iter(self.keys())

    def keys(self):
        return list(super().keys())

    def items(self):
        return [(key, self[key]) for key in self.keys()]


def test_leaf_log_sees_every_way_a_section_is_read():
    config = {"a": 1, "b": {"c": 2, "d": 3}, "e": {"f": 4}, "g": {"h": 5, "i": {"j": 6}},
              "k": {"m": 7}, "o": 9, "p": {"q": 10}}
    reads = LeafReads()
    logged = reads.log(config)
    assert logged == config and dotted_leaves(config) == [
        "a", "b.c", "b.d", "e.f", "g.h", "g.i.j", "k.m", "o", "p.q",
    ]
    assert logged["a"] == 1
    assert (lambda **kw: kw)(**logged["b"]) == {"c": 2, "d": 3}
    assert {**logged["e"]} == dict(logged["e"]) == {"f": 4}
    assert dict(logged["g"].items())["h"] == 5       # a section is not a leaf read
    assert reads.unlogged(canonical_json)(logged["k"]) == '{\n  "m": 7\n}\n'
    assert list(logged["p"]) == ["q"]                  # a key name is not a value
    assert reads.read == {"a", "b.c", "b.d", "e.f", "g.h"}
    assert [leaf for leaf in dotted_leaves(config) if leaf not in reads.read] == [
        "g.i.j", "k.m", "o", "p.q",
    ]


# Config leaves that no command reads, kept with a reason each.
KEPT_LEAVES = {
    "threads": "the bench's mc-failure threads=2 rerun passes --threads, so the flag "
               "stays a validated no-op until that rerun is retired",
}


def test_every_config_leaf_is_read_or_kept(monkeypatch, capsys, tmp_path):
    """Each leaf of the default config is read by some command's runner, a
    builder it calls or the report emitter, or is on ``KEPT_LEAVES``; a kept
    leaf is read by none. Reads made to hash or serialise the config do not
    count: they would count every leaf."""
    reads = LeafReads()
    resolve = spincim.cli._resolve
    monkeypatch.setattr(spincim.cli, "_resolve", lambda args: reads.log(resolve(args)))
    for name in ("config_hash", "canonical_json"):
        monkeypatch.setattr(spincim.config, name, reads.unlogged(getattr(spincim.config, name)))
    (tmp_path / "p.cim").write_text("CimAND @0, @1, @2\nCimADD @0, @1, @3\nCimNOT @2, @4\n")
    (tmp_path / "d.hex").write_text("\n".join(["0007", "0009"] + ["0000"] * 62) + "\n")
    (tmp_path / "sca.json").write_text('{"sca": {"samples_per_class": 20}}')
    tiny = ["--trials", "20"]
    runs = [
        ["margins"],
        ["truth-table", "--op", "CimXOR"],
        ["mc-failure", *tiny],
        *(["auth-attack", "--variant", variant.value, *tiny, *flip]
          for variant in AttackVariant for flip in ([], ["--force-flip"])),
        ["isa-run", "--program", str(tmp_path / "p.cim"), "--init-hex", str(tmp_path / "d.hex"),
         "--compare-lowered"],
        ["sca", "--config", str(tmp_path / "sca.json")],
        *(["mitigate", "--family", family, *tiny] for family in ("meanshift", "collapse")),
        ["calibrate"],
    ]
    for index, argv in enumerate(runs):
        assert main([*argv, "--out", str(tmp_path / str(index))]) == 0, capsys.readouterr().err
    unread = [leaf for leaf in dotted_leaves(DEFAULT_CONFIG) if leaf not in reads.read]
    assert sorted(set(unread) - set(KEPT_LEAVES)) == []
    assert sorted(set(KEPT_LEAVES) - set(unread)) == []


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
    flags=st.lists(st.one_of(
        st.tuples(st.sampled_from(["--seed", "--trials", "--threads"]), st.integers(-2, 4)),
        st.tuples(st.just("--temp"), st.one_of(st.integers(-300, 30000), st.floats())),
    ), max_size=2),
)
def test_any_run_overlay_exits_cleanly(command, overlay, flags):
    with tempfile.TemporaryDirectory() as out:
        config = f"{out}/overlay.json"
        with open(config, "w") as handle:
            json.dump(overlay, handle)
        argv = [command, "--config", config, "--out", out]
        argv += [f"{flag}={value}" for flag, value in flags]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


def _readme_cli_examples() -> list[list[str]]:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [line.split("#", 1)[0].split() for line in block.splitlines()
            if line.startswith("spincim ")]


@pytest.mark.parametrize("line", _readme_cli_examples(), ids=" ".join)
def test_readme_cli_example_parses(line):
    args = build_parser().parse_args(line[1:])
    assert args.command == line[1]
