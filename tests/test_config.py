"""Configuration grammar: defaults, shorthand, and rejection paths."""

import math

import pytest

import pinchpas.config as config_module
from pinchpas import ConfigError, SweepSpec, SystemConfig, load_config, parse_config_text


def test_minimal_config_defaults():
    system, spec = parse_config_text("d_x = 10\n")
    assert system == SystemConfig(d_x=10.0)
    assert spec.metric == "outage"
    assert spec.sweep_axis == "gamma_t_db"
    assert spec.axis_values[0] == 90.0 and spec.axis_values[-1] == 110.0
    assert len(spec.axis_values) == 11
    assert spec.m_values == (1,)


def test_comments_and_blank_lines_ignored():
    text = """
# leading comment
d_x = 12   # trailing comment

metric = rate
"""
    system, spec = parse_config_text(text)
    assert system.d_x == 12.0
    assert spec.metric == "rate"


def test_full_key_set_round_trips():
    text = (
        "d_x = 20\nd_y = 8\nh = 2.5\nalpha = 0.07\nf_c = 26e9\nn_eff = 1.5\n"
        "noise_dbm = -85\ngamma_t_db = 98\ngamma_thr_db = 15\n"
        "metric = pde\nsweep_axis = m\naxis_values = 1:5:5\nm_values = 1,2\n"
    )
    system, spec = parse_config_text(text)
    assert system.d_y == 8.0 and system.n_eff == 1.5 and system.gamma_thr_db == 15.0
    assert spec.axis_values == (1.0, 2.0, 3.0, 4.0, 5.0)


def test_range_shorthand_is_inclusive_and_exact():
    _, spec = parse_config_text("d_x = 10\naxis_values = 90:110:11\n")
    assert len(spec.axis_values) == 11
    assert spec.axis_values[0] == 90.0
    assert spec.axis_values[-1] == 110.0  # endpoint exact, not accumulated
    diffs = {round(b - a, 9) for a, b in zip(spec.axis_values, spec.axis_values[1:])}
    assert diffs == {2.0}


def test_range_shorthand_single_point():
    _, spec = parse_config_text("d_x = 10\naxis_values = 95:999:1\n")
    assert spec.axis_values == (95.0,)


def test_m_values_accept_list_and_range():
    _, spec = parse_config_text("d_x = 10\nm_values = 1, 2, 10\n")
    assert spec.m_values == (1, 2, 10)
    _, spec = parse_config_text("d_x = 10\nm_values = 1:4:4\n")
    assert spec.m_values == (1, 2, 3, 4)
    with pytest.raises(ConfigError):
        parse_config_text("d_x = 10\nm_values = 1:2:4\n")  # non-integer steps


def test_range_count_is_bounded_before_values_are_formed():
    # The cap is the antenna cap; a larger count would form every value first.
    message = r"line 2: range count must be at most 1000000, got 1000001"
    with pytest.raises(ConfigError, match=message):
        parse_config_text("d_x = 10\naxis_values = 90:110:1000001\n")


def test_duplicate_key_reports_both_lines():
    with pytest.raises(ConfigError) as err:
        parse_config_text("d_x = 10\nalpha = 0.01\nalpha = 0.05\n")
    msg = str(err.value)
    assert "line 3" in msg and "line 2" in msg and "alpha" in msg


def test_unknown_key_rejected_with_line():
    with pytest.raises(ConfigError) as err:
        parse_config_text("d_x = 10\nbandwidth = 3\n")
    assert "line 2" in str(err.value)


def test_missing_d_x_rejected():
    with pytest.raises(ConfigError):
        parse_config_text("alpha = 0.05\n")


def test_malformed_line_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config_text("d_x = 10\njust some words\n")
    assert "line 2" in str(err.value)


def test_bad_metric_and_axis_rejected():
    with pytest.raises(ConfigError):
        parse_config_text("d_x = 10\nmetric = capacity\n")
    with pytest.raises(ConfigError):
        parse_config_text("d_x = 10\nsweep_axis = h\n")


def test_axis_values_must_increase():
    with pytest.raises(ConfigError):
        parse_config_text("d_x = 10\naxis_values = 5, 4\n")
    with pytest.raises(ConfigError):
        parse_config_text("d_x = 10\naxis_values = 5, 5\n")


def test_m_values_must_not_repeat():
    # Each m writes its own table; a repeat would overwrite the first.
    with pytest.raises(ConfigError, match=r"line 2: m_values must not repeat, got \(2, 1, 2\)"):
        parse_config_text("d_x = 10\nm_values = 2,1,2\n")
    with pytest.raises(ConfigError, match=r"line 3: m_values must not repeat"):
        parse_config_text("d_x = 10\nmetric = regions\nm_values = 3:3:2\n")


def test_m_values_must_be_positive():
    with pytest.raises(ConfigError):
        parse_config_text("d_x = 10\nm_values = 0, 2\n")


def test_system_validation_becomes_config_error():
    with pytest.raises(ConfigError):
        parse_config_text("d_x = -4\n")


def test_pde_defaults_sweep_antenna_count():
    _, spec = parse_config_text("d_x = 10\nmetric = pde\n")
    assert spec.sweep_axis == "m"
    assert spec.axis_values == tuple(float(i) for i in range(1, 11))


def test_m_axis_requires_integer_values():
    # Non-finite counts are named errors, not an OverflowError or int()'s
    # unnamed ValueError. 1:inf:2's first value is 1 + 0 * inf = nan.
    for text, key in (
        ("metric = pde\naxis_values = 1.5, 2.5\n", "axis_values"),
        ("m_values = inf:inf:1\n", "m_values"),
        ("m_values = 1:inf:2\n", "m_values"),
        ("sweep_axis = m\naxis_values = inf\n", "axis_values"),
        ("sweep_axis = m\naxis_values = -inf\n", "axis_values"),
        ("sweep_axis = m\naxis_values = nan\n", "axis_values"),
        ("sweep_axis = m\naxis_values = 1:1e400:3\n", "axis_values"),
    ):
        with pytest.raises(ConfigError, match=rf"^line \d+: {key} "):
            parse_config_text("d_x = 10\n" + text)


def test_antenna_count_is_capped():
    # Parsed only: a sweep would build a layout of that many antennas.
    cap = config_module._MAX_ANTENNAS
    assert cap == 10**6
    for text, key in (
        ("m_values = 1e300:1e300:1\n", "m_values"),
        (f"m_values = 1, {cap + 1}\n", "m_values"),
        (f"m_values = {cap + 1}:{cap + 1}:1\n", "m_values"),
        ("sweep_axis = m\naxis_values = 1e300\n", "axis_values"),
        (f"sweep_axis = m\naxis_values = 1, {cap + 1}\n", "axis_values"),
    ):
        with pytest.raises(ConfigError, match=rf"^line \d+: {key} .* at most {cap} "):
            parse_config_text("d_x = 10\n" + text)
    _, spec = parse_config_text(f"d_x = 10\nm_values = {cap}\n")
    assert spec.m_values == (cap,)
    _, spec = parse_config_text(f"d_x = 10\nsweep_axis = m\naxis_values = {cap}\n")
    assert spec.axis_values == (float(cap),)


def test_regions_grammar():
    _, spec = parse_config_text("d_x = 10\nmetric = regions\nm_values = 3, 5\n")
    assert spec.metric == "regions"
    assert spec.m_values == (3, 5)
    with pytest.raises(ConfigError):
        parse_config_text("d_x = 10\nmetric = regions\nsweep_axis = m\n")
    with pytest.raises(ConfigError):
        parse_config_text("d_x = 10\nmetric = regions\naxis_values = 1:3:3\n")


def test_given_metric_overrides_file_and_sets_defaults():
    _, spec = parse_config_text("d_x = 10\nmetric = rate\n", metric="pde")
    assert spec.metric == "pde"
    assert spec.sweep_axis == "m"
    assert spec.axis_values == tuple(float(i) for i in range(1, 11))
    with pytest.raises(ConfigError):
        parse_config_text("d_x = 10\n", metric="capacity")


def test_regions_ignores_sweep_keys_of_a_shared_config():
    _, spec = parse_config_text(
        "d_x = 10\naxis_values = 90:110:11\nm_values = 2\n", metric="regions"
    )
    assert spec.metric == "regions"
    assert spec.m_values == (2,)


@pytest.mark.parametrize("metric", ["rate", "pde"])
def test_zero_height_rejected_for_rate_metrics(metric):
    with pytest.raises(ConfigError, match="h must be > 0"):
        parse_config_text("d_x = 10\nh = 0\n", metric=metric)
    with pytest.raises(ConfigError, match="h must be > 0"):
        parse_config_text(f"d_x = 10\nh = 0\nmetric = {metric}\n")


@pytest.mark.parametrize("h", ["1e-170", "1e-154"])
@pytest.mark.parametrize("metric", ["rate", "pde"])
def test_height_whose_square_is_subnormal_rejected_for_rate_metrics(metric, h):
    # h^2 below the smallest normal float: the rate closed form cannot use it.
    with pytest.raises(ConfigError, match=r"^line 2: h must be > 0, with h\^2 a normal"):
        parse_config_text(f"d_x = 10\nh = {h}\n", metric=metric)
    parse_config_text("d_x = 10\nh = 1.5e-154\n", metric=metric)


@pytest.mark.parametrize("h", ["1e-170", "1e-154"])
@pytest.mark.parametrize("metric", ["outage", "simulate"])
def test_tiny_height_allowed_for_outage_and_simulate(metric, h):
    system, _ = parse_config_text(f"d_x = 10\nh = {h}\n", metric=metric)
    assert system.h == float(h)


def test_zero_height_allowed_for_outage():
    system, spec = parse_config_text("d_x = 10\nh = 0\n", metric="outage")
    assert system.h == 0.0
    assert spec.metric == "outage"


def test_sweep_spec_direct_validation():
    base = SystemConfig(d_x=10.0)
    with pytest.raises(ConfigError):
        SweepSpec(metric="outage", sweep_axis="gamma_t_db", axis_values=(),
                  fixed_params=base, m_values=(1,))
    with pytest.raises(ConfigError):
        SweepSpec(metric="outage", sweep_axis="gamma_t_db", axis_values=(90.0, 80.0),
                  fixed_params=base, m_values=(1,))
    with pytest.raises(ConfigError):
        SweepSpec(metric="outage", sweep_axis="gamma_t_db", axis_values=(90.0,),
                  fixed_params=base, m_values=(0,))
    with pytest.raises(ConfigError, match="must not repeat"):
        SweepSpec(metric="outage", sweep_axis="gamma_t_db", axis_values=(90.0,),
                  fixed_params=base, m_values=(2, 1, 2))


@pytest.mark.parametrize(
    "text, error",
    [
        ("d_x = 10\naxis_values = 5, 4\n", "line 2: axis_values must be strictly increasing"),
        ("d_x = 10\nsweep_axis = m\naxis_values = 3, 2\n",
         "line 3: axis_values must be strictly increasing"),
        ("d_x = 10\nh = 0\nmetric = rate\n", "line 2: h must be > 0"),
    ],
    ids=["decreasing", "decreasing_along_m", "zero_height_rate"],
)
def test_sweep_rule_errors_name_their_line(text, error):
    # SweepSpec holds the rule; the parser adds the line its key was read on.
    with pytest.raises(ConfigError, match=f"^{error}"):
        parse_config_text(text)


@pytest.mark.parametrize("metric", ["rate", "pde"])
def test_sweep_spec_rejects_zero_height_for_rate_metrics(metric):
    # A spec built in code meets the rule the parser's spec meets, before
    # any sweep reaches the rate closed form.
    with pytest.raises(ConfigError, match="^h must be > 0"):
        SweepSpec(metric=metric, sweep_axis="gamma_t_db", axis_values=(90.0,),
                  fixed_params=SystemConfig(d_x=10.0, h=0.0), m_values=(1,))
    SweepSpec(metric="outage", sweep_axis="gamma_t_db", axis_values=(90.0,),
              fixed_params=SystemConfig(d_x=10.0, h=0.0), m_values=(1,))


def test_sweep_spec_caps_antenna_counts():
    # Constructed only: a spec that passed would build a layout per count.
    base = SystemConfig(d_x=10.0)
    cap = config_module._MAX_ANTENNAS
    with pytest.raises(ConfigError, match=rf"^m_values must be at most {cap} "):
        SweepSpec(metric="rate", sweep_axis="gamma_t_db", axis_values=(90.0,),
                  fixed_params=base, m_values=(10**300,))
    for value, reason in (
        (2.5, "positive integers"),
        (0.5, "positive integers"),
        (math.nan, "positive integers"),
        (math.inf, "positive integers"),
        (1e300, f"at most {cap} "),
        (float(cap + 1), f"at most {cap} "),
    ):
        with pytest.raises(ConfigError, match=f"^axis_values along m must be {reason}"):
            SweepSpec(metric="pde", sweep_axis="m", axis_values=(value,),
                      fixed_params=base, m_values=(1,))
    spec = SweepSpec(metric="pde", sweep_axis="m", axis_values=(1.0, float(cap)),
                     fixed_params=base, m_values=(cap,))
    assert spec.axis_values == (1.0, float(cap))


def test_load_config_reads_utf8(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# scénario\nd_x = 10\n", encoding="utf-8")
    system, _ = load_config(path)
    assert system.d_x == 10.0
    with pytest.raises(FileNotFoundError):
        load_config(tmp_path / "absent.cfg")
