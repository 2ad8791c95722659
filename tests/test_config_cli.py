import argparse
import json
import os
import re
import subprocess
import sys
import threading
import time
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import biphoton as bp
from biphoton import dispersion
from biphoton.cli import main, read_tomography_records
from biphoton.config import config_to_dict
from biphoton.errors import ConfigError, DegenerateInputError, InputError
from conftest import split_worker_threads

#: a two-set registry with constant indices, enough to bind the KTP axis names
CONSTANT_REGISTRY = {
    "schema_version": 1,
    "sets": [
        {"name": name, "formula": "constant", "coefficients": [index],
         "valid_range_nm": [400.0, 2000.0]}
        for name, index in (("ktp_y", 1.7), ("ktp_z", 1.8))
    ],
}
#: the required pump and crystal fields, every other field at its default
MINIMAL = (
    "pump: {center_wavelength_nm: 785.0, intensity_fwhm_bandwidth_nm: 5.35}\n"
    "crystal: {length_mm: 2.0, poling_period_um: 46.15}\n"
)


class TestConfig:
    def test_default_profile_is_paper_parameter_set(self, default_config):
        cfg = default_config
        assert cfg.pump.center_wavelength_nm == 785.0
        assert cfg.pump.intensity_fwhm_bandwidth_nm == 5.35
        assert cfg.pump.repetition_rate_mhz == 81.0
        assert cfg.crystal.length_mm == 2.0
        assert cfg.crystal.poling_period_um == 46.15
        assert cfg.crystal.temperature_c == 20.0
        assert cfg.grid.points_per_axis == 512

    def test_missing_crystal_length_names_field(self, tmp_path, default_config):
        raw = config_to_dict(default_config)
        del raw["crystal"]["length_mm"]
        path = tmp_path / "broken.yaml"
        path.write_text(yaml.safe_dump(raw))
        with pytest.raises(ConfigError, match="length_mm"):
            bp.load_config(path)

    def test_round_trip(self, tmp_path, default_config):
        path = tmp_path / "roundtrip.yaml"
        bp.save_config(default_config, path)
        loaded = bp.load_config(path)
        # output_dir is part of the file; everything round-trips
        assert loaded == default_config

    def test_parse_error_reported(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("pump: [unclosed")
        with pytest.raises(ConfigError, match="parse"):
            bp.load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="does not exist"):
            bp.load_config(tmp_path / "nope.yaml")

    def test_digest_stable_and_sensitive(self, default_config):
        digest_a = bp.config_digest(default_config)
        digest_b = bp.config_digest(default_config)
        assert digest_a == digest_b
        from dataclasses import replace

        changed = replace(default_config, seed=default_config.seed + 1)
        assert bp.config_digest(changed) != digest_a

    def test_dispersion_file_reference(self, tmp_path, default_config):
        registry_path = tmp_path / "registry.yaml"
        registry_path.write_text(yaml.safe_dump(CONSTANT_REGISTRY))
        cfg_path = tmp_path / "run.yaml"
        raw = config_to_dict(default_config)
        raw["dispersion_file"] = "registry.yaml"
        cfg_path.write_text(yaml.safe_dump(raw))
        loaded = bp.load_config(cfg_path)
        assert loaded.crystal.axes.pump.formula == "constant"
        # the flag also applies when running on the shipped default profile
        flagged = bp.default_config(dispersion_file=registry_path)
        assert flagged.crystal.axes.pump.formula == "constant"

    @pytest.mark.parametrize("given_by", ["flag", "key"])
    def test_relative_dispersion_file_base(self, tmp_path, monkeypatch, given_by):
        # the flag is a path from the working directory, the key one from the config's
        # directory; the registry in the other place is malformed
        (tmp_path / "sub").mkdir()
        good, bad = ("reg.yaml", "sub/reg.yaml") if given_by == "flag" else (
            "sub/reg.yaml", "reg.yaml")
        (tmp_path / good).write_text(yaml.safe_dump(CONSTANT_REGISTRY))
        (tmp_path / bad).write_text("sets: 5\n")
        key = "dispersion_file: reg.yaml\n" if given_by == "key" else ""
        (tmp_path / "sub" / "run.yaml").write_text(MINIMAL + key)
        monkeypatch.chdir(tmp_path)
        flag = "reg.yaml" if given_by == "flag" else None
        loaded = bp.load_config("sub/run.yaml", dispersion_file=flag)
        assert loaded.crystal.axes.pump.formula == "constant"

    def test_default_profile_dcf_blocks_match_presets(self, default_config):
        # the profile spells the arms out as schema documentation; a config
        # without them gets the presets, so the two must not drift apart
        assert default_config.signal_dcf == bp.signal_arm_preset()
        assert default_config.idler_dcf == bp.idler_arm_preset()

    def test_exponent_without_dot_is_a_float(self, tmp_path):
        # PyYAML reads 6e1 as the string '6e1'; float fields coerce it
        path = tmp_path / "exponent.yaml"
        path.write_text(MINIMAL + "grid: {half_span_nm: 6e1}\n")
        assert bp.load_config(path).grid.half_span_nm == 60.0

    @pytest.mark.parametrize(
        "text, match",
        [
            ("pump: {center_wavelength_nm: 785.0, intensity_fwhm_bandwidth_nm: 5.35}\n"
             "crystal: {length_mm: 2.0, poling_period_um: 46.15, temperature: 60}\n",
             r"unknown field crystal\.temperature$"),
            (MINIMAL + "filters: {signal: {center_nm: 1570.0, fwhm_nm: 8.0}, sigal: {}}\n",
             r"unknown field filters\.sigal$"),
            (MINIMAL + "grid: {points_per_axis: 64.9}\n", r"grid\.points_per_axis: 64\.9"),
            (MINIMAL + "seed: 1.5\n", r"seed: 1\.5"),
            ("pump: {center_wavelength_nm: 785.0, intensity_fwhm_bandwidth_nm: 5.35}\n"
             "crystal: {poling_period_um: 46.15}\n",
             r"^missing required field crystal\.length_mm$"),
            (MINIMAL.replace("5.35}", "5.35, repetition_rate_mhz: true}"),
             r"pump\.repetition_rate_mhz: True is not of type float$"),
            (MINIMAL + "grid: {points_per_axis: yes}\n",
             r"grid\.points_per_axis: True is not of type int$"),
            ("schema_version: true\n" + MINIMAL,
             r"^bad value for schema_version: True is not of type int$"),
            ("schema_version: 1.0\n" + MINIMAL,
             r"^bad value for schema_version: 1\.0 is not of type int$"),
            (MINIMAL + "filters: {idler: {center_nm: 1570.0, fwhm_nm: 8.0, shape: off}}\n",
             r"filters\.idler\.shape: False is not of type str$"),
        ],
        ids=["unknown-crystal-key", "unknown-filter-arm", "fractional-points", "fractional-seed",
             "missing-length", "bool-float", "bool-int", "bool-str", "bool-schema-version",
             "float-schema-version"],
    )
    def test_rejection_names_the_field(self, tmp_path, text, match):
        path = tmp_path / "run.yaml"
        path.write_text(text)
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: ") as caught:
            bp.load_config(path)
        # the field's own message follows the file's name
        assert re.search(match, str(caught.value).removeprefix(f"{path}: "))


PINNED_DIGESTS = {
    "default": "baec72e855d7",
    "filters": "09f96d81e798",
    "grid": "761d51bc5dde",
    "minimal": "254824252518",
    "registry": "728ac8d7a184",
}


@pytest.mark.parametrize("variant", PINNED_DIGESTS)
def test_config_digest_pinned_and_round_trips(tmp_path, default_config, variant):
    raw = config_to_dict(default_config)
    if variant == "filters":
        raw["filters"] = {
            "signal": {"center_nm": 1570.0, "fwhm_nm": 8.0},
            "idler": {"center_nm": 1570.0, "fwhm_nm": 8.0, "shape": "rectangular",
                      "peak_transmission": 0.9},
        }
    elif variant == "grid":
        raw["grid"].update(points_per_axis=64, half_span_nm=40.0)
    elif variant == "minimal":
        raw = yaml.safe_load(MINIMAL)
    elif variant == "registry":
        (tmp_path / "registry.yaml").write_text(yaml.safe_dump(CONSTANT_REGISTRY))
        raw["dispersion_file"] = "registry.yaml"
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(raw))
    loaded = bp.load_config(path)
    assert bp.config_digest(loaded) == PINNED_DIGESTS[variant]
    saved = tmp_path / "saved.yaml"
    bp.save_config(loaded, saved)
    assert bp.load_config(saved) == loaded


class TestCliContracts:
    def test_design_defaults_contains_poling(self, tmp_path, capsys):
        assert main(["--out", str(tmp_path), "--json", "design"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["poling_period_um"] == pytest.approx(46.15, abs=0.4)
        assert report["gvm_wavelength_nm"] == pytest.approx(1582.0, abs=3.0)

    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2

    def test_computation_error_exits_one(self, tmp_path, capsys, default_config):
        raw = config_to_dict(default_config)
        raw["grid"]["half_span_nm"] = 500.0  # escapes the dispersion validity range
        raw["grid"]["points_per_axis"] = 16
        path = tmp_path / "bad_grid.yaml"
        path.write_text(yaml.safe_dump(raw))
        code = main(["--config", str(path), "--out", str(tmp_path), "jsa", "compute"])
        assert code == 1
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "WavelengthRangeError"

    def test_design_rerun_byte_identical(self, tmp_path, capsys):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["--out", str(out_a), "design"]) == 0
        assert main(["--out", str(out_b), "design"]) == 0
        capsys.readouterr()
        assert (out_a / "design.json").read_bytes() == (out_b / "design.json").read_bytes()

    def test_spectro_rerun_byte_identical_and_seed_sensitive(self, tmp_path, capsys):
        small = {
            "pump": {"center_wavelength_nm": 785.0, "intensity_fwhm_bandwidth_nm": 5.35},
            "crystal": {"length_mm": 2.0, "poling_period_um": 46.15},
            "grid": {"points_per_axis": 64},
            "seed": 7,
        }
        cfg = tmp_path / "small.yaml"
        cfg.write_text(yaml.safe_dump(small))
        args = ["--config", str(cfg), "--out", str(tmp_path), "spectro", "simulate",
                "--pairs", "20000"]
        assert main(args + ["--out", str(tmp_path / "h1.csv")]) == 0
        assert main(args + ["--out", str(tmp_path / "h2.csv")]) == 0
        assert main(args + ["--seed", "8", "--out", str(tmp_path / "h3.csv")]) == 0
        capsys.readouterr()
        assert (tmp_path / "h1.csv").read_bytes() == (tmp_path / "h2.csv").read_bytes()
        assert (tmp_path / "h1.csv").read_bytes() != (tmp_path / "h3.csv").read_bytes()

    def test_outputs_embed_config_digest(self, tmp_path, capsys, default_config):
        small = config_to_dict(default_config)
        small["grid"]["points_per_axis"] = 64
        cfg_path = tmp_path / "small.yaml"
        cfg_path.write_text(yaml.safe_dump(small))
        assert main(["--config", str(cfg_path), "--out", str(tmp_path), "jsa", "compute"]) == 0
        capsys.readouterr()
        cfg = bp.load_config(cfg_path)
        digest = bp.config_digest(cfg)
        for name in ("jsa_amplitudes.csv", "jsa_intensity.csv", "schmidt_report.json"):
            assert digest in (tmp_path / name).read_text()

    def test_hom_emits_visibility_and_curve(self, tmp_path, capsys, default_config):
        small = config_to_dict(default_config)
        small["grid"]["points_per_axis"] = 128
        cfg_path = tmp_path / "small.yaml"
        cfg_path.write_text(yaml.safe_dump(small))
        code = main(
            [
                "--config", str(cfg_path), "--out", str(tmp_path), "--json",
                "hom", "--delays=-300:300:150", "--pair-probability", "0.0015",
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["multipair_bound"] == 0.997
        lines = (tmp_path / "hom_curve.csv").read_text().splitlines()
        header_idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
        assert lines[header_idx] == "delay_fs,coincidence_probability"
        assert len(lines) - header_idx - 1 == 5

    def test_tomo_simulate_reconstruct_round_trip(self, tmp_path, capsys):
        records_path = tmp_path / "records.csv"
        assert main(
            [
                "--out", str(tmp_path), "--seed", "11",
                "tomo", "simulate",
                "--depolarization", "0.028", "--mean-counts", "20000",
                "--out", str(records_path),
            ]
        ) == 0
        records = read_tomography_records(records_path)
        assert len(records) == 36
        assert main(
            ["--out", str(tmp_path), "--json",
             "tomo", "reconstruct", "--in", str(records_path)]
        ) == 0
        captured = capsys.readouterr().out
        report = json.loads(captured[captured.index("{"):])
        assert report["fidelity_singlet"] == pytest.approx(0.979, abs=0.01)

    def test_efficiency_counts_and_budget(self, tmp_path, capsys):
        counts_path = tmp_path / "counts.csv"
        counts_path.write_text(
            "singles_signal,singles_idler,coincidences,integration_s\n"
            "38000.0,38000.0,24300.0,1.0\n"
        )
        budget_path = tmp_path / "budget.yaml"
        budget_path.write_text("detector_efficiency: 0.85\noptics_transmission: 0.75\n")
        code = main(
            ["--out", str(tmp_path), "--json", "efficiency",
             "--counts", str(counts_path), "--budget", str(budget_path)]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["klyshko_signal"] == pytest.approx(24300.0 / 38000.0)
        assert report["predicted_heralding"] == pytest.approx(0.6375)

    def test_budget_exponent_without_dot_is_a_float(self, tmp_path, capsys):
        # the budget is read as a config section is: PyYAML's string '6e-1' is 0.6
        budget_path = tmp_path / "budget.yaml"
        budget_path.write_text("detector_efficiency: 6e-1\n")
        assert main(["--out", str(tmp_path), "efficiency", "--budget", str(budget_path)]) == 0
        capsys.readouterr()
        report = json.loads((tmp_path / "efficiency.json").read_text())
        assert report["predicted_heralding"] == 0.6

    def test_efficiency_requires_input(self, tmp_path, capsys):
        assert main(["--out", str(tmp_path), "efficiency"]) == 1
        capsys.readouterr()

    def test_spectro_csv_layout(self, tmp_path, capsys):
        small = {
            "pump": {"center_wavelength_nm": 785.0, "intensity_fwhm_bandwidth_nm": 5.35},
            "crystal": {"length_mm": 2.0, "poling_period_um": 46.15},
            "grid": {"points_per_axis": 64},
            "seed": 3,
        }
        cfg = tmp_path / "small.yaml"
        cfg.write_text(yaml.safe_dump(small))
        out_csv = tmp_path / "hist.csv"
        assert main(["--config", str(cfg), "--out", str(tmp_path), "spectro", "simulate",
                     "--pairs", "5000", "--out", str(out_csv)]) == 0
        capsys.readouterr()
        lines = [l for l in out_csv.read_text().splitlines() if not l.startswith("#")]
        header_cells = lines[0].split(",")
        assert header_cells[0] == ""  # corner, then idler bin centers
        first_row = lines[1].split(",")
        assert float(first_row[0]) == pytest.approx(0.064, abs=1e-9)
        assert len(header_cells) == len(first_row)


def _python(*args, **env_vars):
    """Run a fresh interpreter that imports this checkout's biphoton, with ``env_vars`` set."""
    src = str(Path(bp.__file__).resolve().parents[1])
    env = {**os.environ, **env_vars, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, *map(str, args)], env=env, capture_output=True,
                          text=True, timeout=120)


IN = object()  # stands for the input file written from the case's content
UNDER_IN = object()  # stands for a path inside the input file, which cannot be made
#: leads a command that must fail before any physics: it runs with compute_jsa and
#: reconstruct_mle replaced by a function that exits 3
NO_PHYSICS = object()
FORBID_PHYSICS = (
    "import sys\n"
    "from biphoton import cli, jsa, polarization\n"
    "def called(*args, **kwargs):\n"
    "    raise SystemExit(3)\n"
    "jsa.compute_jsa = polarization.reconstruct_mle = called\n"
    "sys.exit(cli.main(sys.argv[1:]))\n"
)
BUDGET = ["efficiency", "--budget", IN]
COUNTS = ["efficiency", "--counts", IN]
RECORDS = ["tomo", "reconstruct", "--in", IN]
HOM_PAST_REVIVAL = ["hom", "--delays=0:40000:5000"]  # 2*pi/d_omega is 34961 fs
CONFIG = ["--config", IN]
REGISTRY = ["--dispersion-file", IN, "design"]
CONSTANT_SET = "{name: ktp_y, formula: constant, coefficients: [1.7], valid_range_nm: [400, 2000]"


def _shipped_registry_with(old: str, new: str) -> str:
    """The shipped registry with its first ``old`` spelled ``new``."""
    text = resources.files("biphoton.data").joinpath("ktp_dispersion.yaml").read_text()
    assert old in text
    return text.replace(old, new, 1)


#: misspellings of the shipped registry, each with the end of the ConfigError it gives
REGISTRY_REJECTIONS = {
    "registry-unknown-set-key": (
        _shipped_registry_with("\n    source:", "\n    sourse:"),
        r"unknown field sets\[0\]\.sourse"),
    "registry-unknown-thermal-key": (
        _shipped_registry_with("\n      first_order:", "\n      frist_order:"),
        r"unknown field sets\[0\]\.thermal\.frist_order"),
    "registry-unknown-top-level-key": (
        _shipped_registry_with("\nsets:", "\nset: []\nsets:"), r"unknown field set"),
    "registry-schema-version-2": (
        _shipped_registry_with("\nschema_version: 1", "\nschema_version: 2"),
        r"unsupported schema_version 2 \(expected 1\)"),
    "registry-schema-version-true": (
        _shipped_registry_with("\nschema_version: 1", "\nschema_version: true"),
        r"bad value for schema_version: True is not of type int"),
    "registry-schema-version-float": (
        _shipped_registry_with("\nschema_version: 1", "\nschema_version: 1.0"),
        r"bad value for schema_version: 1\.0 is not of type int"),
    "registry-bool-coefficient": (
        _shipped_registry_with("[2.09930,", "[true,"),
        r"bad value for sets\[0\]\.coefficients\[0\]: True is not of type float"),
    "registry-bool-reference-temperature": (
        _shipped_registry_with("reference_temperature_c: 25.0", "reference_temperature_c: true"),
        r"bad value for sets\[0\]\.reference_temperature_c: True is not of type float"),
    "registry-number-name": (
        _shipped_registry_with("name: ktp_y", "name: 5"),
        r"bad value for sets\[0\]\.name: 5 is not of type str"),
    "registry-thermal-not-a-number": (
        _shipped_registry_with("first_order: [6.2897e-6, 6.3061e-6, -6.0629e-6, 2.6486e-6]",
                               "first_order: [abc]"),
        r"bad value for sets\[0\]\.thermal\.first_order\[0\]: "
        r"could not convert string to float: 'abc'"),
}
VALID_RECORDS = "setting_a,setting_b,counts,integration_s\n" + "".join(
    f"{a},{b},100,1.0\n" for a, b in bp.full_settings())
NAN_PUMP_BANDWIDTH = (
    "pump:\n  center_wavelength_nm: 785.0\n  intensity_fwhm_bandwidth_nm: .nan\n"
    "crystal:\n  length_mm: 2.0\n  poling_period_um: 46.15\n"
)


def _with_input(command, path):
    return [path if arg is IN else path / "x.csv" if arg is UNDER_IN else arg
            for arg in command]


@pytest.mark.parametrize(
    "command, content, error",
    [
        (BUDGET, "detector_efficiency: 0.85\nlaser_magic: 0.5\n", "InputError"),
        (BUDGET, "detector_efficiency: [0.85\n", "InputError"),
        (BUDGET, "detector_efficiency: true\n", "InputError"),
        (BUDGET, "detector_efficiency: abc\n", "InputError"),
        (COUNTS, "38000.0,n/a,24300.0\n", "InputError"),
        (COUNTS, "singles_signal,singles_idler,coincidences\n0.0,0.0,0.0\n",
         "DegenerateInputError"),
        (COUNTS, "38000.0,nan,24300.0\n", "InputError"),
        (COUNTS, "1000,1000,300,1.0,5\n", "InputError"),
        (COUNTS, "1000,1000,300,1.0\n2000,2000,600\n", "InputError"),
        (["tomo", "simulate", "--mean-counts", "100000000000000000000"], None, "InputError"),
        (["spectro", "simulate", "--pairs", "100000000000000000000"], None, "InputError"),
        (["--seed", "-5", "tomo", "simulate"], None, "InputError"),
        (["spectro", "simulate", "--pairs", "1000", "--seed", "-1"], None, "InputError"),
        ([*CONFIG, "tomo", "simulate"], MINIMAL + "seed: -3\n", "InputError"),
        (["tomo", "simulate", "--phase-error", "nan"], None, "InputError"),
        (RECORDS, "setting_a,setting_b,counts,integration_s\nH,H,12.5,1.0\n", "InputError"),
        (RECORDS, None, "InputError"),  # the file does not exist
        (HOM_PAST_REVIVAL, None, "InputError"),
        (["hom", "--delays=nan:0:1"], None, "InputError"),
        (["hom", "--delays=0:inf:1"], None, "InputError"),
        (["hom", "--filter-nm", "nan"], None, "InputError"),
        (["jsa", "compute", "--filter-nm", "1e-160"], None, "EmptyResultError"),
        (["jsa", "compute", "--filter-nm", "1e-300"], None, "EmptyResultError"),
        (["hom", "--filter-nm", "1e-300"], None, "EmptyResultError"),
        ([*CONFIG, "hom"], NAN_PUMP_BANDWIDTH, "InputError"),
        ([*CONFIG, "spectro", "simulate", "--pairs", "1000"], NAN_PUMP_BANDWIDTH,
         "InputError"),
        (["hom", "--delays=0:1e300:1"], None, "InputError"),
        (["hom", "--delays=0:1e300:1e290"], None, "InputError"),
        ([*CONFIG, "design"], "- 1\n", "ConfigError"),
        ([*CONFIG, "design"], MINIMAL + "grid: [1, 2]\n", "ConfigError"),
        ([*CONFIG, "design"], MINIMAL + "spectrometer: [1]\n", "ConfigError"),
        ([*CONFIG, "design"], MINIMAL + "filters: [1]\n", "ConfigError"),
        ([*CONFIG, "design"], MINIMAL + "seed: abc\n", "ConfigError"),
        ([*CONFIG, "design"], MINIMAL + "spectrometer: {bin_size_ns: abc}\n", "ConfigError"),
        ([*CONFIG, "design"], MINIMAL + "dispersion_file: 5\n", "ConfigError"),
        ([*CONFIG, "design"], MINIMAL + "dispersion_file: .\n", "ConfigError"),
        (["--config", ".", "design"], None, "ConfigError"),
        ([*CONFIG, "design"], MINIMAL.replace("46.15}", "46.15, temperature: 60}"),
         "ConfigError"),
        ([*CONFIG, "design"], MINIMAL + "grid: {points_per_axis: 64.9}\n", "ConfigError"),
        ([*CONFIG, "design"], MINIMAL + "seed: 1.5\n", "ConfigError"),
        ([*CONFIG, "design"], "schema_version: true\n" + MINIMAL, "ConfigError"),
        ([*CONFIG, "design"], MINIMAL.replace("5.35}", "5.35, pulse_duration_fs: 100.0}"),
         "InputError"),
        ([*CONFIG, "design"], MINIMAL.replace("5.35}", "5.35, repetition_rate_mhz: true}"),
         "ConfigError"),
        ([*CONFIG, "design"],
         MINIMAL + "filters: {signal: {center_nm: 1570.0, fwhm_nm: 8.0, peak_transmission: on}}\n",
         "ConfigError"),
        (REGISTRY, "sets: 5\n", "ConfigError"),
        (REGISTRY, "sets: [1]\n", "ConfigError"),
        (REGISTRY, f"sets: [{CONSTANT_SET}, thermal: [1]}}]\n", "ConfigError"),
        *((REGISTRY, text, "ConfigError") for text, _ in REGISTRY_REJECTIONS.values()),
        (REGISTRY, _shipped_registry_with("[2.09930,", "[.nan,"), "InputError"),
        (REGISTRY, _shipped_registry_with("[2.09930, 0.922683, 0.0467695, 0.0138408]", "[]"),
         "InputError"),
        (REGISTRY, _shipped_registry_with("0.0467695, 0.0138408]", "0.0467695, 0.0138408, 0.01]"),
         "InputError"),
        (BUDGET, b"detector_efficiency: 0.85 \xe9\n", "InputError"),
        (COUNTS, b"38000.0,41000.0,24300.0 \xe9\n", "InputError"),
        (RECORDS, b"setting_a,setting_b,counts,integration_s \xe9\n", "InputError"),
        (["--out", IN, "design"], "a file\n", "InputError"),
        (["--out", IN, "jsa", "compute"], "a file\n", "InputError"),
        (["tomo", "simulate", "--out", UNDER_IN], "a file\n", "InputError"),
        (["spectro", "simulate", "--pairs", "1000", "--out", UNDER_IN], "a file\n",
         "InputError"),
        ([NO_PHYSICS, "--out", IN, "jsa", "compute"], "a file\n", "InputError"),
        ([NO_PHYSICS, "--out", IN, "hom", "--filter-nm", "8"], "a file\n", "InputError"),
        ([NO_PHYSICS, "spectro", "simulate", "--out", UNDER_IN], "a file\n", "InputError"),
        ([NO_PHYSICS, "spectro", "simulate", "--seed", "-1"], None, "InputError"),
        ([NO_PHYSICS, *RECORDS, "--out", UNDER_IN], VALID_RECORDS, "InputError"),
    ],
    ids=[
        "budget-unknown-key", "budget-not-yaml", "budget-bool", "budget-not-a-number",
        "counts-not-numeric",
        "counts-zero-singles", "counts-nan-singles", "counts-five-columns", "counts-two-rows",
        "tomo-mean-counts-past-poisson-limit",
        "spectro-pairs-past-int64", "negative-global-seed", "negative-spectro-seed",
        "negative-config-seed", "tomo-phase-error-nan", "tomo-fractional-count", "tomo-missing-in",
        "hom-delay-past-revival", "hom-delay-nan", "hom-delay-inf", "hom-filter-nan",
        "jsa-filter-fwhm-squared-subnormal", "jsa-filter-fwhm-squared-zero",
        "hom-filter-fwhm-squared-zero",
        "config-nan-bandwidth-hom", "config-nan-bandwidth-spectro",
        "hom-delay-count-past-int64", "hom-delay-count-past-memory",
        "config-top-level-list", "config-grid-list", "config-spectrometer-list",
        "config-filters-list", "config-seed-not-a-number", "config-bin-size-not-a-number",
        "config-dispersion-file-not-a-string", "config-dispersion-file-is-a-directory",
        "config-is-a-directory", "config-unknown-key", "config-fractional-points",
        "config-fractional-seed", "config-bool-schema-version", "config-pulse-below-transform-limit",
        "config-bool-rate", "config-bool-transmission",
        "registry-sets-not-a-list", "registry-set-not-a-mapping",
        "registry-thermal-not-a-mapping", *REGISTRY_REJECTIONS, "registry-nan-coefficient",
        "registry-no-coefficients", "registry-fifth-coefficient",
        "budget-not-utf8", "counts-not-utf8", "records-not-utf8",
        "design-out-is-a-file", "jsa-out-is-a-file",
        "tomo-out-under-a-file", "spectro-out-under-a-file",
        "jsa-out-is-a-file-before-the-jsa", "hom-out-is-a-file-before-the-herald",
        "spectro-out-under-a-file-before-the-jsa", "spectro-negative-seed-before-the-jsa",
        "tomo-reconstruct-out-under-a-file-before-the-mle",
    ],
)
def test_bad_input_exits_one_with_json_record(tmp_path, command, content, error):
    path = tmp_path / "input"
    if isinstance(content, bytes):
        path.write_bytes(content)
    elif content is not None:
        path.write_text(content)
    runner = ["-m", "biphoton.cli"]
    if command[0] is NO_PHYSICS:
        runner, command = ["-c", FORBID_PHYSICS], command[1:]
    proc = _python(*runner, "--out", tmp_path / "out", *_with_input(command, path))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["error"] == error
    assert record["message"]
    if isinstance(content, bytes):
        assert str(path) in record["message"]


@pytest.mark.parametrize("text, match", REGISTRY_REJECTIONS.values(),
                         ids=list(REGISTRY_REJECTIONS))
def test_registry_rejection_names_the_file_and_key(tmp_path, text, match):
    path = tmp_path / "custom.yaml"
    path.write_text(text)
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: {match}$"):
        bp.load_registry(path)


def test_config_error_names_the_config_file(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text("crystal: {length_mm: true}\n")
    message = f"{path}: missing required field pump.center_wavelength_nm"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        bp.load_config(path)
    assert main(["--config", str(path), "--out", str(tmp_path / "out"), "design"]) == 1
    assert json.loads(capsys.readouterr().err) == {"error": "ConfigError", "message": message}


@pytest.mark.parametrize("via", ["key", "flag", "flag-default-profile"])
def test_registry_error_through_a_config_names_only_the_registry(tmp_path, via):
    registry = tmp_path / "badreg.yaml"
    registry.write_text("sets: 5\n")
    path = tmp_path / "run.yaml"
    path.write_text(MINIMAL + ("dispersion_file: badreg.yaml\n" if via == "key" else ""))
    with pytest.raises(ConfigError) as caught:
        if via == "flag-default-profile":
            bp.default_config(dispersion_file=registry)
        else:
            bp.load_config(path, dispersion_file=registry if via == "flag" else None)
    assert str(caught.value) == f"{registry}: sets must be a list of set entries, not int"


@pytest.mark.parametrize("probability", ["0.3", "-0.1", "nan"])
def test_bad_pair_probability_exits_before_the_curve(tmp_path, capsys, monkeypatch, probability):
    def no_physics(*args, **kwargs):
        raise AssertionError("the JSA was computed")

    monkeypatch.setattr(bp.jsa, "compute_jsa", no_physics)
    argv = ["--out", str(tmp_path), "hom", "--pair-probability", probability]
    assert main(argv) == 1
    record = json.loads(capsys.readouterr().err)
    assert record == {"error": "InputError",
                      "message": f"pair probability must be in [0, 0.25), got {float(probability)}"}
    assert not (tmp_path / "hom_curve.csv").exists()


#: the options whose file biphoton reads as YAML
YAML_OPTIONS = ("--config", "--budget", "--dispersion-file")


def _yaml_texts() -> list[str]:
    """The shipped YAML files and every YAML text that this file gives biphoton."""
    data = resources.files("biphoton.data")
    rows = test_bad_input_exits_one_with_json_record.pytestmark[0].args[1]
    rejections = TestConfig.test_rejection_names_the_field.pytestmark[0].args[1]
    return [
        data.joinpath("default_profile.yaml").read_text(),
        data.joinpath("ktp_dispersion.yaml").read_text(),
        MINIMAL,
        yaml.safe_dump(CONSTANT_REGISTRY),
        *(text for text, _ in rejections),
        *(content for command, content, _ in rows
          if isinstance(content, str) and any(option in command for option in YAML_OPTIONS)),
    ]


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML is built without libyaml")
@pytest.mark.parametrize("text", _yaml_texts())
def test_libyaml_and_pure_python_parsers_agree(text):
    read = []
    for loader in (yaml.SafeLoader, yaml.CSafeLoader):
        try:
            read.append(repr(yaml.load(text, Loader=loader)))  # repr: nan equals nan
        except yaml.YAMLError:
            read.append("YAMLError")
    assert read[0] == read[1]


@pytest.mark.parametrize("variant", PINNED_DIGESTS)
def test_config_digest_pinned_under_pure_python_parser(tmp_path, monkeypatch, variant):
    made = []

    class PurePython(yaml.SafeLoader):
        def __init__(self, stream):
            made.append(stream)
            super().__init__(stream)

    monkeypatch.setattr(dispersion, "_YAML_LOADER", PurePython)
    monkeypatch.setattr(dispersion, "_builtin_cache", None)  # the shipped registry too
    test_config_digest_pinned_and_round_trips(tmp_path, bp.default_config(), variant)
    assert made


def test_parser_follows_libyaml_availability(tmp_path, capsys):
    assert dispersion._YAML_LOADER is (
        yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader)
    forced = (
        "import sys, yaml\n"
        "yaml.__with_libyaml__ = False\n"
        "from biphoton import cli, dispersion\n"
        "assert dispersion._YAML_LOADER is yaml.SafeLoader\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    proc = _python("-c", forced, "--out", tmp_path / "pure", "design")
    assert proc.returncode == 0, proc.stderr
    assert main(["--out", str(tmp_path / "default"), "design"]) == 0
    capsys.readouterr()
    assert ((tmp_path / "pure" / "design.json").read_bytes()
            == (tmp_path / "default" / "design.json").read_bytes())


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "spec, fields",
    [
        (bp.PumpSpec, {"center_wavelength_nm": NAN, "intensity_fwhm_bandwidth_nm": 5.35}),
        (bp.PumpSpec, {"center_wavelength_nm": 785.0, "intensity_fwhm_bandwidth_nm": NAN}),
        (bp.PumpSpec, {"center_wavelength_nm": 785.0, "intensity_fwhm_bandwidth_nm": 5.35,
                       "repetition_rate_mhz": INF}),
        (bp.PumpSpec, {"center_wavelength_nm": 785.0, "intensity_fwhm_bandwidth_nm": 5.35,
                       "pulse_duration_fs": NAN}),
        (bp.CrystalSpec, {"length_mm": NAN, "poling_period_um": 46.15}),
        (bp.CrystalSpec, {"length_mm": 2.0, "poling_period_um": INF}),
        (bp.CrystalSpec, {"length_mm": 2.0, "poling_period_um": 46.15, "temperature_c": NAN}),
        (bp.FilterSpec, {"center_nm": 1570.0, "fwhm_nm": NAN}),
        (bp.FilterSpec, {"center_nm": NAN, "fwhm_nm": 8.0}),
        (bp.FrequencyGrid, {"half_span_nm": NAN}),
        (bp.FrequencyGrid, {"center_signal_nm": NAN}),
        (bp.DcfSpec, {"total_dispersion_ps_per_nm": NAN}),
        (bp.DcfSpec, {"total_dispersion_ps_per_nm": -413.0, "insertion_delay_ns": INF}),
        (bp.SellmeierSet, {"name": "n", "formula": "constant", "coefficients": (NAN,),
                           "valid_range_nm": (400.0, 2000.0)}),
        (bp.SellmeierSet, {"name": "n", "formula": "constant", "coefficients": (1.7,),
                           "valid_range_nm": (400.0, INF)}),
        (bp.ThermalModel, {"first_order": (1e-5, NAN)}),
        (bp.ThermalModel, {"poling_expansion_per_c": INF}),
    ],
)
def test_non_finite_spec_fields_rejected(ktp, spec, fields):
    if spec is bp.CrystalSpec:
        fields = {"axes": ktp, **fields}
    with pytest.raises(InputError):
        spec(**fields)


#: runs biphoton.cli.main on each argv list of the JSON in argv[1] with scipy
#: unimportable; prints the loaded scipy, multiprocessing and concurrent modules
#: after ``import biphoton.cli`` and again after the commands (no subcommand
#: starts a process)
WITHOUT_SCIPY = (
    "import json, sys\n"
    "class NoScipy:\n"
    "    def find_spec(self, name, path=None, target=None):\n"
    "        if name.split('.')[0] == 'scipy':\n"
    "            raise ImportError(f'{name} is not available')\n"
    "sys.meta_path.insert(0, NoScipy())\n"
    "def loaded():\n"
    "    return sorted(m for m in sys.modules\n"
    "                  if m.split('.')[0] in ('scipy', 'multiprocessing', 'concurrent'))\n"
    "import biphoton.cli\n"
    "print(json.dumps(loaded()))\n"
    "for argv in json.loads(sys.argv[1]):\n"
    "    assert biphoton.cli.main(argv) == 0, argv\n"
    "print(json.dumps(loaded()))\n"
)


@pytest.mark.parametrize(
    "commands",
    [
        [["design"]],
        [["--config", "{config}", "jsa", "compute"]],
        [["hom", "--filter-nm", "8"]],
        [["spectro", "simulate", "--pairs", "10000"]],
        [["tomo", "simulate"], ["tomo", "reconstruct", "--in", "{out}/tomography.csv"]],
        [["efficiency", "--counts", "{counts}"]],
    ],
    ids=["design", "jsa-compute", "hom", "spectro", "tomo", "efficiency"],
)
def test_subcommands_run_without_scipy(tmp_path, default_config, commands):
    small = config_to_dict(default_config)
    small["grid"]["points_per_axis"] = 64
    config_path = tmp_path / "small.yaml"
    config_path.write_text(yaml.safe_dump(small))
    counts_path = tmp_path / "counts.csv"
    counts_path.write_text("singles_signal,singles_idler,coincidences\n38000.0,41000.0,24300.0\n")
    out = tmp_path / "out"
    places = {"config": config_path, "out": out, "counts": counts_path}
    argvs = [["--out", str(out), *(arg.format(**places) for arg in argv)] for argv in commands]
    proc = _python("-c", WITHOUT_SCIPY, json.dumps(argvs))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    after_import, after_commands = json.loads(lines[0]), json.loads(lines[-1])
    assert after_import == after_commands == []


def test_jsa_csv_tokens_are_float_reprs(tmp_path, capsys, default_config):
    small = config_to_dict(default_config)
    small["grid"]["points_per_axis"] = 64
    cfg_path = tmp_path / "small.yaml"
    cfg_path.write_text(yaml.safe_dump(small))
    assert main(["--config", str(cfg_path), "--out", str(tmp_path), "jsa", "compute"]) == 0
    capsys.readouterr()
    cfg = bp.load_config(cfg_path)
    f = bp.compute_jsa(cfg.pump, cfg.crystal, cfg.grid).amplitudes
    n = f.shape[0]
    expected = {
        "jsa_amplitudes.csv": [
            [repr(float(part)) for k in range(n) for part in (f[j, k].real, f[j, k].imag)]
            for j in range(n)
        ],
        "jsa_intensity.csv": [[repr(float(v)) for v in row] for row in np.abs(f) ** 2],
    }
    for name, rows in expected.items():
        lines = [l for l in (tmp_path / name).read_text().splitlines() if not l.startswith("#")]
        assert {len(l.split(",")) for l in lines} == {len(rows[0])}
        assert len(rows[0]) in (n, 2 * n)
        assert [l.split(",") for l in lines[1:]] == rows


def repr_csv(path, header, comments, array):
    """Reference writer of a JSA CSV: each float as its ``repr``, row by row."""
    with open(path, "w") as out:
        out.write("".join(f"# {c}\n" for c in comments) + header + "\n")
        for row in array.tolist():
            out.write(",".join(map(repr, row)) + "\n")


@pytest.mark.parametrize("filter_nm", [None, 8.0, 3.0], ids=["unfiltered", "8nm", "3nm"])
def test_jsa_csvs_match_repr_writer(tmp_path, capsys, default_config, filter_nm):
    from biphoton import cli

    small = config_to_dict(default_config)
    small["grid"]["points_per_axis"] = 128
    cfg_path = tmp_path / "small.yaml"
    cfg_path.write_text(yaml.safe_dump(small))
    argv = ["--config", str(cfg_path), "--out", str(tmp_path / "cli"), "jsa", "compute"]
    if filter_nm is not None:
        argv += ["--filter-nm", str(filter_nm)]
    assert main(argv) == 0
    capsys.readouterr()
    cfg = bp.load_config(cfg_path)
    f = cli._jsa(argparse.Namespace(filter_nm=filter_nm), cfg).amplitudes
    n = len(f)
    comments = cli._grid_comments(cfg, bp.config_digest(cfg))
    reference = tmp_path / "reference"
    reference.mkdir()
    repr_csv(reference / "jsa_amplitudes.csv",
             ",".join(f"re_idler{k},im_idler{k}" for k in range(n)), comments,
             f.view(np.float64))
    repr_csv(reference / "jsa_intensity.csv", ",".join(f"idler{k}" for k in range(n)),
             comments, np.abs(f) ** 2)
    for name in ("jsa_amplitudes.csv", "jsa_intensity.csv"):
        assert (tmp_path / "cli" / name).read_bytes() == (reference / name).read_bytes()


def _small_config(tmp_path, default_config):
    """The default profile on a 128² grid, written to ``tmp_path``."""
    small = config_to_dict(default_config)
    small["grid"]["points_per_axis"] = 128
    cfg_path = tmp_path / "small.yaml"
    cfg_path.write_text(yaml.safe_dump(small))
    return cfg_path


def _solved(monkeypatch, solve):
    """Route ``np.linalg.eigvalsh`` through ``solve``; returns the list of solves that returned."""
    eigvalsh, finished = np.linalg.eigvalsh, []

    def recorded(gram):
        solve()
        values = eigvalsh(gram)
        finished.append(values)
        return values

    monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
    return finished


def test_failed_jsa_csv_write_exits_one(tmp_path, capsys, default_config, monkeypatch):
    finished = _solved(monkeypatch, lambda: time.sleep(0.05))
    cfg_path = _small_config(tmp_path, default_config)
    (tmp_path / "jsa_intensity.csv").mkdir()  # the second CSV cannot be opened
    threads = split_worker_threads()
    assert main(["--config", str(cfg_path), "--out", str(tmp_path), "jsa", "compute"]) == 1
    assert len(finished) == 1
    assert threading.active_count() == threads
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "InputError"
    assert "jsa_intensity.csv" in record["message"]


def test_failed_amplitude_csv_beside_eigen_solve_exits_one(tmp_path, capsys, default_config,
                                                          monkeypatch):
    # the amplitude CSV fails while the worker still runs the (slowed) eigen-solve
    finished = _solved(monkeypatch, lambda: time.sleep(0.2))
    cfg_path = _small_config(tmp_path, default_config)
    (tmp_path / "jsa_amplitudes.csv").mkdir()
    threads = split_worker_threads()
    assert main(["--config", str(cfg_path), "--out", str(tmp_path), "jsa", "compute"]) == 1
    assert len(finished) == 1
    assert threading.active_count() == threads
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "InputError"
    assert "jsa_amplitudes.csv" in record["message"]
    assert not (tmp_path / "schmidt_report.json").exists()


def test_failed_eigen_solve_exits_one_without_report(tmp_path, capsys, default_config,
                                                    monkeypatch):
    failed = []

    def fail(gram):
        time.sleep(0.05)
        failed.append(True)
        raise DegenerateInputError("eigen-solve failed")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    cfg_path = _small_config(tmp_path, default_config)
    threads = split_worker_threads()
    assert main(["--config", str(cfg_path), "--out", str(tmp_path), "jsa", "compute"]) == 1
    assert failed == [True]
    assert threading.active_count() == threads
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": "DegenerateInputError",
                                        "message": "eigen-solve failed"}
    assert not (tmp_path / "schmidt_report.json").exists()


@pytest.mark.parametrize("filter_nm", [None, 8.0], ids=["unfiltered", "8nm"])
def test_schmidt_report_matches_eigen_solve_on_calling_thread(tmp_path, capsys, monkeypatch,
                                                              default_config, filter_nm):
    from biphoton import cli

    solved_on = []
    eigvalsh = np.linalg.eigvalsh

    def recorded(gram):
        solved_on.append(threading.current_thread())
        return eigvalsh(gram)

    monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
    argv = ["--out", str(tmp_path / "cli"), "jsa", "compute"]
    if filter_nm is not None:
        argv += ["--filter-nm", str(filter_nm)]
    assert main(argv) == 0
    capsys.readouterr()
    assert len(solved_on) == 1 and solved_on[0] is not threading.current_thread()
    monkeypatch.undo()

    amplitude = cli._jsa(argparse.Namespace(filter_nm=filter_nm), default_config)
    spectrum = bp.schmidt_decompose(amplitude)
    weights = np.maximum(np.linalg.eigvalsh(amplitude.gram)[::-1], 0.0)
    survival = amplitude.survival
    fwhm = {arm: bp.marginal_spectrum(amplitude, arm).fwhm_nm for arm in ("signal", "idler")}
    report = {
        "config_digest": bp.config_digest(default_config),
        "purity": spectrum.purity,
        "schmidt_number": spectrum.schmidt_number,
        "leading_coefficients": (weights / weights.sum())[:8].tolist(),
        "marginal_fwhm_nm": fwhm,
        "filter_survival": None if survival is None else {
            "signal": survival.signal, "idler": survival.idler, "total": survival.total},
    }
    expected = json.dumps(report, indent=2, sort_keys=True) + "\n"
    assert (tmp_path / "cli" / "schmidt_report.json").read_text() == expected


def test_filter_narrower_than_grid_step_named_by_cli(tmp_path, capsys):
    # the 1e-160 nm filter is centred on the grid, so it is not off the grid
    assert main(["--out", str(tmp_path), "jsa", "compute", "--filter-nm", "1e-160"]) == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "EmptyResultError",
        "message": "signal filter transmits nothing at any grid point: its FWHM of 1e-160 nm "
                   "is far below the grid step of 0.2352 nm at its 1570.0 nm centre",
    }


def test_hom_report_independent_of_blas_thread_count(tmp_path):
    # The default 512² grid: OpenBLAS splits a complex dot over its threads at
    # this length, but not on a 256² grid or smaller. The 601-delay curve is
    # compared too: its diagonal sums and phase contraction are numpy loops.
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        proc = _python("-m", "biphoton.cli", "--out", out, "hom", "--filter-nm", "8",
                       "--delays=-3000:3000:10", OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads)
        assert proc.returncode == 0, proc.stderr
        outputs.append([(out / name).read_bytes() for name in ("hom_report.json", "hom_curve.csv")])
    assert outputs[0] == outputs[1]


#: characters of well-formed counts, budget and tomography files, so that
#: generated text also reaches the parsers behind the first row
INPUT_ALPHABET = "0123456789.,:-+e \n#HVDARLnaifty_[]{}'\"detcor_efficiency"


@settings(deadline=None, max_examples=60)
@given(
    command=st.sampled_from([COUNTS, BUDGET, RECORDS]),
    content=st.text(max_size=200) | st.text(alphabet=INPUT_ALPHABET, max_size=200),
)
def test_malformed_input_files_exit_cleanly(tmp_path_factory, command, content):
    # any text in an input file ends in exit 0 or 1, or argparse's SystemExit(2)
    work = tmp_path_factory.mktemp("fuzz")
    path = work / "input"
    path.write_text(content, encoding="utf-8")
    try:
        code = main(["--out", str(work / "out"), *_with_input(command, str(path))])
    except SystemExit as exc:
        assert exc.code == 2
    else:
        assert code in (0, 1)


def _design_text(r):
    return ["design report",
            f"  poling_period_um   {r['poling_period_um']:.4f}",
            f"  gvm_wavelength_nm  {r['gvm_wavelength_nm']:.2f}",
            f"  gvm_angle_deg      {r['gvm_angle_deg']:.3f}"]


def _jsa_text(r):
    lines = ["joint spectral amplitude report",
             f"  purity           {r['purity']:.4f}",
             f"  schmidt_number   {r['schmidt_number']:.4f}",
             f"  fwhm_signal_nm   {r['marginal_fwhm_nm']['signal']:.2f}",
             f"  fwhm_idler_nm    {r['marginal_fwhm_nm']['idler']:.2f}"]
    if r["filter_survival"] is not None:
        lines.append(f"  filter_survival  {r['filter_survival']['total']:.4f}")
    return lines


def _hom_text(r):
    lines = [f"hom visibility {r['visibility_spectral']:.4f}"]
    if "visibility_total" in r:
        lines += [f"  multipair bound {r['multipair_bound']:.4f}",
                  f"  total           {r['visibility_total']:.4f}"]
    return lines


#: the three figures that ``tomo reconstruct`` prints, of the six in its report
TOMO_FIGURES = ("fidelity_singlet", "purity", "tangle")


def _tomo_text(r):
    return ["reconstructed state"] + [f"  {k:<16} {r[k]:.4f}" for k in TOMO_FIGURES]


def _efficiency_text(r):
    return [f"  {k} {v:.4f}" for k, v in sorted(r.items()) if k != "config_digest"]


@pytest.mark.parametrize(
    "argv, report_name, text",
    [
        (["design"], "design.json", _design_text),
        (["jsa", "compute"], "schmidt_report.json", _jsa_text),
        (["jsa", "compute", "--filter-nm", "8"], "schmidt_report.json", _jsa_text),
        (["hom"], "hom_report.json", _hom_text),
        (["hom", "--pair-probability", "0.0015"], "hom_report.json", _hom_text),
        (["tomo", "reconstruct", "--in", "{records}"], "tomography_state.json", _tomo_text),
        (["efficiency", "--counts", "{counts}", "--budget", "{budget}"], "efficiency.json",
         _efficiency_text),
    ],
    ids=["design", "jsa", "jsa-8nm", "hom", "hom-pair-probability", "tomo-reconstruct",
         "efficiency"],
)
def test_stdout_states_the_report(tmp_path, capsys, default_config, argv, report_name, text):
    # text stdout is the command's summary of its report file, --json stdout the
    # report itself (tomo reconstruct: its three figures), on a 64² grid
    small = config_to_dict(default_config)
    small["grid"]["points_per_axis"] = 64
    config_path = tmp_path / "small.yaml"
    config_path.write_text(yaml.safe_dump(small))
    places = {"records": tmp_path / "records.csv", "counts": tmp_path / "counts.csv",
              "budget": tmp_path / "budget.yaml"}
    places["counts"].write_text("singles_signal,singles_idler,coincidences\n"
                                "38000.0,41000.0,24300.0\n")
    places["budget"].write_text("detector_efficiency: 0.85\nfiber_coupling: 0.9\n")
    assert main(["--out", str(tmp_path), "tomo", "simulate", "--out",
                 str(places["records"])]) == 0
    capsys.readouterr()
    command = [arg.format(**places) for arg in argv]
    stdouts, reports = {}, {}
    for mode in ("text", "json"):
        out = tmp_path / mode
        flags = ["--json"] if mode == "json" else []
        assert main(["--config", str(config_path), "--out", str(out), *flags, *command]) == 0
        stdouts[mode] = capsys.readouterr().out
        reports[mode] = (out / report_name).read_text()
    assert reports["text"] == reports["json"]
    report = json.loads(reports["text"])
    assert stdouts["text"] == "".join(f"{line}\n" for line in text(report))
    if report_name == "tomography_state.json":
        report = {k: report[k] for k in TOMO_FIGURES}
    assert stdouts["json"] == json.dumps(report, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("argv, name", [(["tomo", "simulate"], "tomography.csv"),
                                        (["spectro", "simulate", "--pairs", "1000"], "hist.csv")],
                         ids=["tomo", "spectro"])
def test_simulate_stdout_names_the_file(tmp_path, capsys, default_config, argv, name):
    # text stdout is one "wrote" line, --json stdout one sorted-key record of the
    # same path and, for the spectrometer, the pair counts in the file's comments
    small = config_to_dict(default_config)
    small["grid"]["points_per_axis"] = 64
    config_path = tmp_path / "small.yaml"
    config_path.write_text(yaml.safe_dump(small))
    paths = {mode: tmp_path / mode / name for mode in ("text", "json")}
    stdouts = {}
    for mode, path in paths.items():
        flags = ["--json"] if mode == "json" else []
        assert main(["--config", str(config_path), *flags, *argv, "--out", str(path)]) == 0
        stdouts[mode] = capsys.readouterr().out
    text, record = f"wrote {paths['text']}", {"path": str(paths["json"])}
    if name == "hist.csv":
        comments = dict(line[2:].split(": ", 1) for line in paths["json"].read_text().splitlines()
                        if line.startswith("# "))
        counts = {key: int(comments[key]) for key in ("wrapped_pairs", "total_pairs")}
        text += f" ({counts['wrapped_pairs']} wrapped of {counts['total_pairs']})"
        record.update(counts)
    assert stdouts["text"] == text + "\n"
    assert stdouts["json"] == json.dumps(record, sort_keys=True) + "\n"
