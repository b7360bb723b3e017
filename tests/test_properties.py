"""Property tests: scenario-file validation and report round-trips."""

import json

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from qsschain import harness
from qsschain.config import (
    ATTACK_KINDS,
    CHECK_KINDS,
    ConfigError,
    ScenarioConfig,
    config_from_dict,
)
from qsschain.harness import RunReport

INTEGER_FIELDS = ("n", "m", "d", "trials", "seed")
FLOAT_COLUMNS = (
    "detection_rate", "ci_low", "ci_high",
    "secret_recovery_rate", "per_decoy_error_rate", "exact_detection",
)

configs = st.builds(
    ScenarioConfig,
    n=st.integers(2, 64),
    m=st.integers(1, 256),
    d=st.integers(0, 64),
    attack=st.sampled_from(ATTACK_KINDS),
    check=st.sampled_from(CHECK_KINDS),
    check_fraction=st.floats(0.0, 1.0, exclude_min=True),
    trials=st.integers(1, 10**6),
    seed=st.integers(0, 2**64 - 1),
)

rates = st.floats(0.0, 1.0)

reports = st.builds(
    RunReport,
    config=configs,
    trials=st.integers(1, 10**6),
    detection_rate=rates,
    ci_low=rates,
    ci_high=rates,
    secret_recovery_rate=st.none() | rates,
    per_decoy_error_rate=rates,
    exact_detection=rates,
)


@settings(max_examples=60, deadline=None)
@given(configs)
def test_valid_config_round_trips(config):
    config.validate()
    assert config_from_dict(config.to_dict()) == config
    assert config_from_dict(json.loads(json.dumps(config.to_dict()))) == config


def _rejected_field(data):
    with pytest.raises(ConfigError) as caught:
        config_from_dict(data)
    return caught.value.field


@settings(max_examples=40, deadline=None)
@given(configs, st.text(min_size=1, max_size=12))
def test_unknown_key_is_named(config, key):
    data = config.to_dict()
    assume(key not in data)
    data[key] = 1
    assert _rejected_field(data) == key


@settings(max_examples=40, deadline=None)
@given(
    configs,
    st.sampled_from(INTEGER_FIELDS + ("check_fraction",)),
    st.booleans(),
)
def test_bool_in_a_numeric_field_is_named(config, field, value):
    data = config.to_dict()
    data[field] = value
    assert _rejected_field(data) == field


@settings(max_examples=40, deadline=None)
@given(
    configs,
    st.sampled_from(INTEGER_FIELDS),
    st.floats(allow_nan=False, allow_infinity=False).filter(lambda x: not x.is_integer()),
)
def test_fractional_float_in_an_integer_field_is_named(config, field, value):
    data = config.to_dict()
    data[field] = value
    assert _rejected_field(data) == field


REPORT_FILES = {  # format: (write one report, read it back)
    "json": (harness.write_report, harness.read_report),
    "csv": (  # a one-row CSV
        lambda report, path: harness.write_csv([report], path),
        lambda path: harness.read_csv(path)[0],
    ),
}


@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(reports, st.sampled_from(("json", "csv")))
def test_report_round_trips_through_its_file(tmp_path, report, format):
    path = tmp_path / f"report.{format}"
    write, read = REPORT_FILES[format]
    write(report, path)
    written = path.read_bytes()
    loaded = read(path)
    assert loaded == report
    for column in FLOAT_COLUMNS:
        assert repr(getattr(loaded, column)) == repr(getattr(report, column))
    write(loaded, path)
    assert path.read_bytes() == written
