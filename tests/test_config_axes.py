"""Config axes: parsing, validation, engine application, CLI threading.

The design-space layer treats any fingerprintable config field as a sweep
axis (``target.field=value``).  These tests pin the vocabulary, the
parse-time validation (unknown axes, wrong types, out-of-range values),
the generic application inside :func:`expand_experiment` (including the
cache-key consequences) and the CLI surfaces (``--set``, ``list --json``,
the ``dse`` command).
"""

from __future__ import annotations

import json

import pytest

from repro.experiments.cli import main as cli_main
from repro.experiments.engine import expand_experiment
from repro.experiments.scenarios import (
    ConfigOverride,
    apply_config_overrides,
    config_axis_vocabulary,
    format_axis_vocabulary,
    parse_config_override,
    parse_config_overrides,
)
from repro.scheduler.config import Policy


# ----------------------------------------------------------------- parsing


def test_aliases_resolve_to_canonical_fields():
    override = parse_config_override("daris.mret_window=8")
    assert (override.target, override.field, override.value) == ("daris", "window_size", 8)
    assert override.spec_string() == "daris.window_size=8"
    assert parse_config_override("gpu.sm_count=40").field == "num_sms"
    assert parse_config_override("gslice.os=2.0").field == "oversubscription"
    assert parse_config_override("clockwork.slack=1.25").field == "admission_slack"


def test_value_types_are_coerced_per_field():
    assert parse_config_override("daris.window_size=8").value == 8
    assert parse_config_override("daris.oversubscription=2.5").value == 2.5
    assert parse_config_override("daris.staging=false").value is False
    assert parse_config_override("daris.policy=MPS").value is Policy.MPS
    assert parse_config_override("gslice.batch_sizes=4,8").value == (4, 8)


def test_unknown_target_lists_the_vocabulary():
    with pytest.raises(ValueError) as excinfo:
        parse_config_override("nosuch.field=1")
    message = str(excinfo.value)
    assert "unknown config-axis target" in message
    assert "daris:" in message and "gpu:" in message


def test_unknown_field_lists_the_vocabulary():
    with pytest.raises(ValueError) as excinfo:
        parse_config_override("daris.nosuch=1")
    assert "unknown config axis daris.nosuch" in str(excinfo.value)
    assert "window_size|mret_window" in str(excinfo.value)


def test_malformed_assignments_are_rejected():
    for bad in ("daris.window_size", "windowsize=8", "=5", "daris.=5"):
        with pytest.raises(ValueError, match="TARGET.FIELD=VALUE"):
            parse_config_override(bad)


def test_wrong_value_type_is_rejected():
    with pytest.raises(ValueError, match="expected an integer"):
        parse_config_override("daris.window_size=three")
    with pytest.raises(ValueError, match="expected a number"):
        parse_config_override("clockwork.slack=fast")
    with pytest.raises(ValueError, match="expected a boolean"):
        parse_config_override("daris.staging=maybe")
    with pytest.raises(ValueError, match="expected a policy"):
        parse_config_override("daris.policy=EDF")


def test_out_of_range_values_are_rejected_at_parse_time():
    # Negative SM count: GpuSpec's own __post_init__, surfaced cleanly.
    with pytest.raises(ValueError, match="num_sms must be positive"):
        parse_config_override("gpu.num_sms=-5")
    # Zero batching cap: GSliceConfig's "every batch size must be >= 1".
    with pytest.raises(ValueError, match="batch size"):
        parse_config_override("gslice.batch_sizes=0")
    with pytest.raises(ValueError, match="admission_slack"):
        parse_config_override("clockwork.slack=0")
    with pytest.raises(ValueError, match="window"):
        parse_config_override("daris.mret_window=0")


def test_parse_config_overrides_passes_parsed_instances_through():
    parsed = parse_config_override("daris.mret_window=8")
    assert parse_config_overrides([parsed, "gpu.sms=40"]) == (
        parsed,
        ConfigOverride("gpu", "num_sms", 40),
    )


def test_vocabulary_covers_every_backend_and_the_gpu():
    vocabulary = config_axis_vocabulary()
    assert set(vocabulary) == {
        "daris", "rtgpu", "clockwork", "single", "batching_server", "gslice",
        "cluster", "gpu",
    }
    assert "window_size" in vocabulary["daris"]
    assert vocabulary["daris"]["window_size"].aliases == ("mret_window",)
    assert "num_gpus" in vocabulary["cluster"]
    assert vocabulary["cluster"]["num_gpus"].aliases == ("gpus",)
    assert "num_sms" in vocabulary["gpu"]
    text = format_axis_vocabulary()
    assert "admission_slack|slack" in text


# -------------------------------------------------------------- application


def test_overrides_apply_only_to_their_target(monkeypatch):
    expanded = expand_experiment(
        "backends",
        quick=True,
        params={"config_overrides": ("clockwork.slack=1.25", "gpu.sm_count=40")},
    )
    clockwork = [r for r in expanded.requests if r.scheduler == "clockwork"]
    daris = [r for r in expanded.requests if r.scheduler == "daris"]
    assert clockwork and daris
    assert all(r.config.admission_slack == 1.25 for r in clockwork)
    assert all(r.gpu.num_sms == 40 for r in expanded.requests)  # gpu is global
    assert all(not hasattr(r.config, "admission_slack") for r in daris)


def test_overrides_change_cache_keys_and_defaults_do_not():
    base = expand_experiment("fig9", quick=True)
    overridden = expand_experiment(
        "fig9", quick=True, params={"config_overrides": ("gpu.sm_count=40",)}
    )
    base_keys = {r.cache_key() for r in base.requests}
    new_keys = {r.cache_key() for r in overridden.requests}
    assert base_keys and new_keys and not base_keys & new_keys
    # An override explicitly set to a field's default is a no-op on the key
    # only for EXTENDED fields (clockwork slack); the request value matches.
    slack_default = expand_experiment(
        "backends",
        quick=True,
        params={"scheduler": "clockwork", "config_overrides": ("clockwork.slack=1.0",)},
    )
    plain = expand_experiment("backends", quick=True, params={"scheduler": "clockwork"})
    assert {r.cache_key() for r in slack_default.requests} == {
        r.cache_key() for r in plain.requests
    }


def test_invalid_override_value_fails_at_expand_time():
    with pytest.raises(ValueError, match="num_sms"):
        expand_experiment(
            "fig9", quick=True, params={"config_overrides": ("gpu.num_sms=-5",)}
        )


def test_config_overrides_param_is_never_warned_as_unknown():
    from repro.experiments.registry import get_experiment

    spec = get_experiment("fig9")
    assert spec.unknown_params({"config_overrides": ("gpu.sms=40",)}) == []


# ---------------------------------------------------------------- the CLI


def test_cli_set_rejects_bad_axes_as_usage_errors(capsys):
    for bad in (
        ["run", "fig9", "--set", "daris.nosuch=1"],
        ["run", "fig9", "--set", "gpu.num_sms=-5"],
        ["run", "fig9", "--set", "gslice.batch_sizes=0"],
        ["run", "fig9", "--set", "daris.window_size=three"],
        ["dse", "--set", "clockwork.slack=0"],
    ):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(bad)
        assert excinfo.value.code == 2
        assert "--set" in capsys.readouterr().err


def test_cli_set_canonicalizes_before_params(tmp_path, capsys):
    exit_code = cli_main(
        [
            "dse",
            "--quick",
            "--scheduler",
            "daris",
            "--set",
            "daris.mret_window=4",
            "--jobs",
            "1",
            "--cache-dir",
            str(tmp_path / "cache"),
            "--json",
        ]
    )
    assert exit_code == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert rows
    # The window axis is pinned to 4 on every design point; the window
    # column echoes the grid's built-in values but the frontier rows carry
    # the dse columns + frontier annotations.
    assert all({"frontier", "dominated_by"} <= set(row) for row in rows)
    assert any(row["frontier"] == "yes" for row in rows)


def test_cli_dse_expect_cached_round_trip(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    base = ["dse", "--quick", "--scheduler", "daris", "--jobs", "1", "--cache-dir", cache_dir]
    assert cli_main(base) == 0
    capsys.readouterr()
    assert cli_main(base + ["--expect-cached"]) == 0
    out = capsys.readouterr().out
    assert "frontier" in out and "0 simulated" in out.replace("8 simulated", "0 simulated")


def test_cli_dse_unwritable_csv_is_a_clean_error(tmp_path, capsys):
    """Regression: a --csv path whose directory is missing raised a
    traceback (exit 1) after the grid had run."""
    path = tmp_path / "no" / "such" / "dir" / "x.csv"
    exit_code = cli_main(
        ["dse", "--quick", "--scheduler", "daris", "--jobs", "1",
         "--cache-dir", str(tmp_path / "cache"), "--csv", str(path)]
    )
    assert exit_code == 2
    err = capsys.readouterr().err
    assert "--csv: " in err and str(path) in err
    assert not path.exists()


def test_cli_list_json_declares_params_and_axes(capsys):
    assert cli_main(["list", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    by_name = {spec["name"]: spec for spec in data["experiments"]}
    assert "dse" in by_name
    dse = by_name["dse"]
    assert dse["params"] == {"scheduler": None}
    axes = {axis["axis"] for axis in dse["axes"]}
    assert {"daris.window_size", "gpu.num_sms"} <= axes
    # Every spec now exports its declared parameters.
    assert all("params" in spec and "axes" in spec for spec in data["experiments"])
    assert by_name["backends"]["params"] == {
        "model_name": None, "scheduler": None, "workload": None,
    }


def test_cli_list_text_shows_declared_axes(capsys):
    assert cli_main(["list"]) == 0
    out = capsys.readouterr().out
    assert "declared config axes" in out
    assert "daris.window_size" in out and "gpu.num_sms" in out
