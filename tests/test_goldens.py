"""Pinned report payloads of the sense-heavy commands and of a large sca sweep.

The auth-attack and isa-run payloads were captured before the array sense
path dropped its per-call setup: every sense must keep its draws, in the same
order, so these payloads and trace files stay byte for byte what they were.
The isa-run payload's input echo, the sha256 of each input file, was added
later. The multi-block sca payload was captured before the classifier ran in
row blocks, the default-size one before the sweep's observations became columns;
both were recaptured when every noise level began to read one stream.
"""
import hashlib
import json

import numpy as np
import pytest

from spincim.array import CimArray, RowAddress
from spincim.cli import main
from spincim.config import canonical_json
from spincim.isa import disassemble
from spincim.sca import obscuring_experiment

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
        # sha256sum of the two files written above
        "init_hex_sha256": "f01988afd25283a39f14203ccc745275447ea618dc3fa62a521ba34ca3301ce7",
        "program_sha256": "c8d6355f1a148490efa1678c2b2c8b88cddb2fd14f04a3a5cbf2aaf8b24ce8c9",
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


def test_default_size_sca_report(capsys, tmp_path):
    # 10 000 rows a class, each drawn and scored as blocks of 4 096, 4 096 and
    # 1 808 rows: every class spans two block edges. Recaptured when the levels
    # began to share one stream; the sigma_E = 0.5 row kept its digits
    report = run_cli(capsys, "sca", "--seed", "7", "--out", str(tmp_path))
    assert report == {"samples_per_class": 10000, "rows": [
        {"sigma_duration": 0.05, "sigma_energy": 0.5,
         "standard_4_class": 0.912225, "enhanced_11_class": 0.7141818181818181},
        {"sigma_duration": 0.05, "sigma_energy": 1.0,
         "standard_4_class": 0.84005, "enhanced_11_class": 0.6187090909090909},
        {"sigma_duration": 0.05, "sigma_energy": 2.0,
         "standard_4_class": 0.7956, "enhanced_11_class": 0.5263909090909091},
        {"sigma_duration": 0.05, "sigma_energy": 5.0,
         "standard_4_class": 0.7681, "enhanced_11_class": 0.4596636363636364},
    ]}
    assert hashlib.sha256((tmp_path / "sca.json").read_bytes()).hexdigest() == (
        "cbac8dfc3b96c7de7f4822bb017b2f13c4031c8df0571f5eac223c9dd4b0d65c"
    )
    assert hashlib.sha256((tmp_path / "sca.csv").read_bytes()).hexdigest() == (
        "50342f90432d6c211a6ed0f8dc647397da7cfc63de09303390195ae646f2d880"
    )


def test_multi_block_sca_report(capsys, tmp_path):
    # 33 000 rows in the 11-class set: each 3 000-row class is one block, and
    # the class subsets are large, so the class split is exercised at size
    (tmp_path / "big.json").write_text('{"sca": {"samples_per_class": 3000}}')
    report = run_cli(
        capsys, "sca", "--config", str(tmp_path / "big.json"), "--seed", "7",
        "--out", str(tmp_path),
    )
    assert report == {"samples_per_class": 3000, "rows": [
        {"sigma_duration": 0.05, "sigma_energy": 0.5,
         "standard_4_class": 0.9095833333333333, "enhanced_11_class": 0.7154545454545455},
        {"sigma_duration": 0.05, "sigma_energy": 1.0,
         "standard_4_class": 0.8344166666666667, "enhanced_11_class": 0.6196969696969697},
        {"sigma_duration": 0.05, "sigma_energy": 2.0,
         "standard_4_class": 0.7924166666666667, "enhanced_11_class": 0.5294545454545454},
        {"sigma_duration": 0.05, "sigma_energy": 5.0,
         "standard_4_class": 0.7651666666666667, "enhanced_11_class": 0.4616969696969697},
    ]}
    assert hashlib.sha256((tmp_path / "sca.csv").read_bytes()).hexdigest() == (
        "0d0bc3559a7703249e7a4663b007b45176a159c607fcb027f83039496d4a3268"
    )


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# each command's arguments at tiny sizes; every file it writes is hashed
_WRITER_RUNS = {
    "margins": ["margins"],
    "truth-table": ["truth-table", "--op", "CimXOR", "--noise", "0.9", "--seed", "3"],
    "calibrate": ["calibrate"],
    "mc-failure": ["mc-failure", "--pair", "AP,P", "--temp", "100", "--trials", "200"],
    "mitigate-collapse": ["mitigate", "--family", "collapse", "--trials", "200"],
    "mitigate-meanshift": ["mitigate", "--family", "meanshift", "--trials", "200",
                           "--seed", "11"],
    "auth-attack": ["auth-attack", "--variant", "XnorLevel", "--temp", "140",
                    "--trials", "40"],
    "isa-run": ["isa-run", "--program", "prog.cim", "--init-hex", "init.hex",
                "--compare-lowered", "--seed", "5"],
    "sca": ["sca", "--config", "sca.json", "--seed", "3"],
}


def test_writer_bytes(capsys, tmp_path, monkeypatch):
    """sha256 of every report and CSV writer's bytes, captured before the
    result types serialised from their own fields and the CSV writers shared
    one loop; the calibrate digest since the collapse fit runs in numpy, the
    isa-run and sca files before each command became one run function, and the
    auth-attack report since its --temp 140 is attack.zone_temp in the hashed
    config (its payload kept its bytes), the isa-run report since it echoes
    the sha256 of its input files instead of the --program path, every
    report since the unread device.metadata leaves left the hashed config (only
    config_hash moved), and the sca files since every noise level reads one
    stream (the sigma_E = 0.5 row kept its digits)."""
    monkeypatch.chdir(tmp_path)
    rng = np.random.default_rng(12)
    (tmp_path / "prog.cim").write_text(disassemble(random_cim_program(rng, rows=8)))
    array = CimArray()
    for row in range(8):
        array.write_word(RowAddress(0, row), int(rng.integers(0, 1 << 16)))
    array.export_hex("init.hex")
    (tmp_path / "sca.json").write_text('{"sca": {"samples_per_class": 200}}')
    digests = {}
    for tag, argv in _WRITER_RUNS.items():
        out = tmp_path / tag
        assert main([*argv, "--out", str(out)]) == 0, capsys.readouterr().err
        capsys.readouterr()
        for path in sorted(out.iterdir()):
            digests[f"{tag}/{path.name}"] = _sha(path.read_bytes())
    result = obscuring_experiment([(0.05, 2.0)], samples=300, seed=9)[0]
    digests["obscuring.json"] = _sha(canonical_json(result.as_dict()).encode())
    assert digests == {
        "margins/margins.json":
            "0b837a81658472e95a81537354250222514fe4c609ea18c4de5bf358601b82d7",
        "truth-table/truth-table.json":
            "cfbb9549f70009ee32f1dca50f6afb274b96458f8d090845af59b5fba6f4db9e",
        "calibrate/calibrate.json":
            "2d4f1d6cd639e61aea0e79bf119596a3a7268ca4a3f0b2613e5ae4a135de4f35",
        "mc-failure/mc-failure.json":
            "737a7b6f19a54fc1a4ee6ea988805f8bab75b9211971dc6d77d3ad8a1c51c1b7",
        "mitigate-collapse/mitigate.json":
            "e76c3ca2ff5c2c0f6620e4e0ec94fe6c9a60c108342c6e32ce2c76853ab812b7",
        "mitigate-meanshift/mitigate.json":
            "67d80c7848d8df6759d227e774ca271760c4cc78353658154ea89fd5214860f5",
        "auth-attack/auth-attack.json":
            "7b2fe1fdcbc85ebb401ac34896b2d2bc1c75e8d5e2ee7a0dc18749ad48efd3d3",
        "isa-run/isa-run.json":
            "167f9b43dde794f0dbd5a74fcdba256891139ff5f2b7f82f98120e468be7384e",
        "isa-run/isa-run-trace.csv":
            "1e6af4c9d406da31008b747e11411f4dcbff9842f476a4ce92dda94f27aefcb2",
        "isa-run/isa-run-lowered-trace.csv":
            "0aee46b07b3e3202cf65115ffb3d285b917af62b7cd2597ba39ca41ab3704b13",
        "sca/sca.json":
            "9d70d437c388e2dabc9b833cd38dc53286621666640be5b7303b25336e4aca38",
        "sca/sca.csv":
            "187892c996b5a8b2f7c1730406609b318b55a1de8ad5da41e901e20552993917",
        "obscuring.json":
            "621f83c3cf4e86cdc4fec8f1b8b7addf589c8335d309b1d24a6a7cd77e002856",
    }
