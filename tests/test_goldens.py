"""Pinned report payloads of the sense-heavy commands and of a large sca sweep.

The auth-attack and isa-run payloads were captured before the array sense
path dropped its per-call setup: every sense must keep its draws, in the same
order, so these payloads and trace files stay byte for byte what they were.
The sca payload was captured before the classifier ran in row blocks.
"""
import hashlib
import json

import numpy as np
import pytest

from spincim import CimArray, RowAddress, disassemble
from spincim.cli import main

from _progs import random_cim_program


def run_cli(capsys, *argv):
    code = main(list(argv))
    assert code == 0, capsys.readouterr().err
    return json.loads(capsys.readouterr().out)["report"]


_POLICY = {"password": "random", "user": "correct"}


@pytest.mark.parametrize("argv,payload", [
    (["--variant", "XnorLevel", "--temp", "100"],
     {"analytic_rate": 0.00481263708361666, "failures": 1, "force_flip": False,
      "policy": _POLICY, "rate": 0.0033333333333333335, "seed": 20240, "trials": 300,
      "variant": "XnorLevel",
      "wilson_95_ci": [0.0005886577218511591, 0.018636693694531237], "zone_temp": 100.0}),
    (["--variant", "GateLevel", "--force-flip", "--threads", "2"],
     {"analytic_rate": 0.9564989619774168, "failures": 284, "force_flip": True,
      "policy": _POLICY, "rate": 0.9466666666666667, "seed": 20240, "trials": 300,
      "variant": "GateLevel",
      "wilson_95_ci": [0.9151308582251687, 0.9669080874809034], "zone_temp": 100.0}),
    (["--variant", "None", "--seed", "7"],
     {"analytic_rate": 0.004799858673504512, "failures": 3, "force_flip": False,
      "policy": _POLICY, "rate": 0.01, "seed": 7, "trials": 300, "variant": "None",
      "wilson_95_ci": [0.003406618437715286, 0.02898349336233983], "zone_temp": 100.0}),
    # hot enough that about one attempt in ten gets in: the count moves with
    # any change to the collapse draws
    (["--variant", "XnorLevel", "--temp", "140", "--threads", "2"],
     {"analytic_rate": 0.10412195897175175, "failures": 24, "force_flip": False,
      "policy": _POLICY, "rate": 0.08, "seed": 20240, "trials": 300,
      "variant": "XnorLevel",
      "wilson_95_ci": [0.054346855395144764, 0.11627324043347391], "zone_temp": 140.0}),
])
def test_auth_attack_payload(capsys, tmp_path, argv, payload):
    report = run_cli(capsys, "auth-attack", *argv, "--trials", "300", "--out", str(tmp_path))
    assert report == payload


def test_noisy_isa_run_compare_lowered(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rng = np.random.default_rng(31)
    program = random_cim_program(rng, rows=8, max_instructions=50)
    (tmp_path / "prog.cim").write_text(disassemble(program))
    array = CimArray()
    for row in range(8):
        array.write_word(RowAddress(0, row), int(rng.integers(0, 1 << 16)))
    array.export_hex("init.hex")
    # nearly double the shipped noise, so that senses misread often
    (tmp_path / "noisy.json").write_text('{"device": {"sigma": 0.9}}')

    report = run_cli(
        capsys, "isa-run", "--program", "prog.cim", "--init-hex", "init.hex",
        "--compare-lowered", "--seed", "5", "--config", "noisy.json", "--out", ".",
    )
    assert report == {
        "direct": {"instruction_count": 28, "memory_access_count": 28,
                   "total_delay_ns": 14.859999999999996, "total_energy_fj": 659.1},
        "final_memory_equal": False,
        "fingerprint": "3d7fc3d9250bafb89006d40de4eaa5921f935437ee75edb3cf7f90bc48150092",
        "lowered": {"instruction_count": 112, "memory_access_count": 80,
                    "total_delay_ns": 143.39999999999992,
                    "total_energy_fj": 6543.273999999998},
        "memory_access_delta": 52,
        "program": "prog.cim",
    }
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("isa-run-trace.csv", "isa-run-lowered-trace.csv")
    }
    assert digests == {
        "isa-run-trace.csv":
            "34bb19a27d6633019508817513dff62324525b19c645a0419d712eaa4f9f969d",
        "isa-run-lowered-trace.csv":
            "7d172517e2d2bd7f5a5e2beb2c83019eecf1d5bbb45719812ee01d2dde8291f9",
    }


def test_multi_block_sca_report(capsys, tmp_path):
    # 33 000 rows in the 11-class set: many predict blocks and large class
    # subsets, so block edges and the class split are both exercised
    (tmp_path / "big.json").write_text('{"sca": {"samples_per_class": 3000}}')
    report = run_cli(
        capsys, "sca", "--config", str(tmp_path / "big.json"), "--seed", "7",
        "--out", str(tmp_path),
    )
    assert report == {"samples_per_class": 3000, "rows": [
        {"sigma_duration": 0.05, "sigma_energy": 0.5,
         "standard_4_class": 0.9095833333333333, "enhanced_11_class": 0.7154545454545455},
        {"sigma_duration": 0.05, "sigma_energy": 1.0,
         "standard_4_class": 0.84175, "enhanced_11_class": 0.6176363636363637},
        {"sigma_duration": 0.05, "sigma_energy": 2.0,
         "standard_4_class": 0.7958333333333333, "enhanced_11_class": 0.5283636363636364},
        {"sigma_duration": 0.05, "sigma_energy": 5.0,
         "standard_4_class": 0.76425, "enhanced_11_class": 0.45815151515151514},
    ]}
    assert hashlib.sha256((tmp_path / "sca.csv").read_bytes()).hexdigest() == (
        "cd36e1b911c9d26e846cd68d8285a52aa542e18cdfe72aa29983f1c1e3a247d8"
    )
