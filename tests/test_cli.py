import csv
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from queuerl import config as config_module
from queuerl import reporting
from queuerl.agent import AgentParams, DdpgAgent
from queuerl.cli import _str2bool, main
from queuerl.config import (
    network_config_to_dict,
    parse_hyperparams,
    parse_network_config,
    write_network_config,
)
from queuerl.errors import ConfigError, ParseError, QueueRlError, UnknownNode
from queuerl.netsim import feed_forward_topology, figure_topology, mm1_topology
from queuerl.rl_env import RlEnv
from queuerl.tuning import RangeSpec, sample_params

FIG_EDGES = [
    (0, 1, 1), (1, 2, 2), (1, 3, 3), (1, 4, 4), (2, 5, 5), (3, 6, 6), (3, 7, 7),
    (4, 8, 8), (5, 9, 9), (6, 9, 10), (7, 9, 11), (8, 9, 12), (9, 10, 0),
]


def write_fig_config(path: Path) -> Path:
    doc = {
        "num_nodes": 11,
        "edges": [{"source": s, "target": t, "edge_type": e} for s, t, e in FIG_EDGES],
        "entry_edges": [1],
        "exit_edges": [0],
        "arrival_rate": 0.3,
        "service_rates": {e: 2.0 for e in range(1, 13)},
    }
    path.write_text(yaml.safe_dump(doc))
    return path


def chain_doc() -> dict:
    return {
        "num_nodes": 3,
        "edges": [
            {"source": 0, "target": 1, "edge_type": 1},
            {"source": 1, "target": 2, "edge_type": 0},
        ],
        "entry_edges": [1],
        "exit_edges": [0],
        "arrival_rate": 0.5,
        "service_rates": {1: 1.0},
    }


def write_chain_config(path: Path, **extra) -> Path:
    path.write_text(yaml.safe_dump({**chain_doc(), **extra}))
    return path


def write_params(path: Path, **extra) -> Path:
    doc = {
        "hidden_sizes": [8, 8],
        "batch_size": 4,
        "num_samples": 4,
        "planning_steps": 0,
        "buffer_capacity": 64,
        "num_episodes": 2,
        "num_timesteps": 10,
        "events_per_step": 40,
        "w1": 1.0,
        "w2": 0.0,
        "seed": 3,
    }
    doc.update(extra)
    path.write_text(yaml.safe_dump(doc))
    return path


def read_csv(path: Path):
    with open(path) as fh:
        return list(csv.reader(fh))


# -- network config parsing ---------------------------------------------------------


def test_parse_network_reproduces_reference_edge_list(tmp_path):
    cfg = parse_network_config(str(write_fig_config(tmp_path / "net.yml")))
    assert cfg.edge_list == {
        0: {1: 1}, 1: {2: 2, 3: 3, 4: 4}, 2: {5: 5}, 3: {6: 6, 7: 7}, 4: {8: 8},
        5: {9: 9}, 6: {9: 10}, 7: {9: 11}, 8: {9: 12}, 9: {10: 0},
    }
    assert cfg.entry_edges == {1}
    assert cfg.exit_edges == {0}


def test_parse_network_empty_file(tmp_path):
    path = tmp_path / "empty.yml"
    path.write_text("")
    with pytest.raises(ParseError):
        parse_network_config(str(path))


def test_parse_network_missing_file():
    with pytest.raises(ParseError, match="no/such/file"):
        parse_network_config("no/such/file.yml")


@pytest.mark.parametrize("key", sorted(chain_doc()))
def test_parse_network_missing_key(tmp_path, key):
    doc = chain_doc()
    del doc[key]
    path = tmp_path / "net.yml"
    path.write_text(yaml.safe_dump(doc))
    with pytest.raises(ParseError, match=f"missing required key '{key}'"):
        parse_network_config(str(path))


def test_parse_network_duplicate_edge_type(tmp_path):
    doc = {
        "num_nodes": 4,
        "edges": [
            {"source": 0, "target": 1, "edge_type": 1},
            {"source": 1, "target": 2, "edge_type": 1},
            {"source": 2, "target": 3, "edge_type": 0},
        ],
        "entry_edges": [1],
        "exit_edges": [0],
        "arrival_rate": 0.5,
        "service_rates": {1: 1.0},
    }
    path = tmp_path / "dup.yml"
    path.write_text(yaml.safe_dump(doc))
    with pytest.raises(ConfigError, match="edge type 1"):
        parse_network_config(str(path))


def test_network_config_round_trip(tmp_path):
    for cfg in (figure_topology(), mm1_topology(0.5, 1.0)):
        path = tmp_path / "rt.yml"
        write_network_config(cfg, str(path))
        parsed = parse_network_config(str(path))
        assert parsed == cfg
        assert network_config_to_dict(parsed) == network_config_to_dict(cfg)


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml")
def test_c_and_python_yaml_loaders_read_alike(tmp_path, monkeypatch):
    assert config_module._YAML_LOADER is yaml.CSafeLoader
    cases = []
    for i, cfg in enumerate((figure_topology(), mm1_topology(0.5, 1.0),
                             feed_forward_topology(40))):
        write_network_config(cfg, str(tmp_path / f"net{i}.yml"))
        cases.append((parse_network_config, tmp_path / f"net{i}.yml"))
    params = write_params(tmp_path / "params.yml", alpha="2e-3", tau={"low": 0.01, "high": 0.2},
                          hidden_sizes=[[4], [8, 8]], trials=3)
    malformed = tmp_path / "malformed.yml"
    malformed.write_text("num_nodes: [1, 2\nedges: {source: 0\n")
    cases += [(parse_hyperparams, params), (parse_network_config, malformed),
              (parse_hyperparams, malformed)]

    def read(parse, path, loader):
        monkeypatch.setattr(config_module, "_YAML_LOADER", loader)
        try:
            return parse(str(path))
        except QueueRlError as exc:
            return type(exc)

    for parse, path in cases:
        got = read(parse, path, yaml.CSafeLoader)
        assert got == read(parse, path, yaml.SafeLoader), path.name
    assert got is ParseError


# -- hyperparameter parsing -----------------------------------------------------------


def test_parse_hyperparams_overrides_and_defaults(tmp_path):
    path = tmp_path / "p.yml"
    path.write_text(yaml.safe_dump({"tau": 0.005, "gamma": 0.99}))
    params, space = parse_hyperparams(str(path))
    assert params.tau == 0.005
    assert params.discount == 0.99
    assert params.batch_size == 32  # default untouched
    assert space is None


def test_parse_hyperparams_domain_errors(tmp_path):
    path = tmp_path / "p.yml"
    path.write_text(yaml.safe_dump({"tau": 1.5}))
    with pytest.raises(ConfigError):
        parse_hyperparams(str(path))
    path.write_text(yaml.safe_dump({"gamma": 1.0}))
    with pytest.raises(ConfigError):
        parse_hyperparams(str(path))
    path.write_text(yaml.safe_dump({"learning_rate": -0.1}))
    with pytest.raises(ConfigError):
        parse_hyperparams(str(path))
    path.write_text(yaml.safe_dump({"mystery_knob": 1}))
    with pytest.raises(ConfigError, match="mystery_knob"):
        parse_hyperparams(str(path))


@pytest.mark.parametrize("text", ["- 1\n- 2\n", "7\n"], ids=["list", "scalar"])
def test_parse_hyperparams_rejects_a_non_mapping_document(tmp_path, text):
    path = tmp_path / "p.yml"
    path.write_text(text)
    with pytest.raises(ParseError, match="expected a mapping at the top level"):
        parse_hyperparams(str(path))


@pytest.mark.parametrize("text, value", [
    ("True", True), (" yes ", True), ("1", True), ("False", False), ("no", False), ("0", False),
])
def test_str2bool_reads_both_truth_values(text, value):
    assert _str2bool(text) is value


def test_invalid_boolean_flag_exits_with_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([*TRAIN, "--config_file", "net.yml", "--param_file", "p.yml",
              "--plot_curves", "maybe"])
    assert exc.value.code == 2
    assert "expected True or False, got 'maybe'" in capsys.readouterr().err


def test_parse_hyperparams_range_builds_search_space(tmp_path):
    path = tmp_path / "p.yml"
    path.write_text(
        yaml.safe_dump(
            {
                "learning_rate": {"low": 1e-4, "high": 1e-2, "scale": "log"},
                "batch_size": {"choices": [4, 8]},
                "trials": 7,
            }
        )
    )
    params, space = parse_hyperparams(str(path))
    assert space is not None
    assert space.trials == 7
    assert isinstance(space.specs["learning_rate"], RangeSpec)
    assert space.specs["learning_rate"].scale == "log"
    assert space.specs["batch_size"].choices == [4, 8]
    assert params.learning_rate == 1e-3  # scalar default kept


def test_parse_hyperparams_string_scientific_notation(tmp_path):
    path = tmp_path / "p.yml"
    path.write_text("learning_rate: 1e-4\n")  # yaml 1.1 reads this as a string
    params, _ = parse_hyperparams(str(path))
    assert params.learning_rate == 1e-4


def test_parse_hyperparams_coerces_every_form_alike(tmp_path):
    path = tmp_path / "p.yml"
    path.write_text(yaml.safe_dump({
        "hidden_sizes": {"choices": [[8.0, "4"], [16]]},
        "batch_size": {"choices": ["8", 4.0]},
        "tau": ["0.1", 1],
    }))
    _, space = parse_hyperparams(str(path))
    assert space.specs["hidden_sizes"].choices == [(8, 4), (16,)]
    assert space.specs["batch_size"].choices == [8, 4]
    assert space.specs["tau"].choices == [0.1, 1.0]
    path.write_text(yaml.safe_dump({"hidden_sizes": [[8], ["4"]]}))
    assert parse_hyperparams(str(path))[1].specs["hidden_sizes"].choices == [(8,), (4,)]


_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.just(10**400),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4), st.sampled_from(["1e-3", "8", ".inf", "nan"]),
)
_VALUES = st.recursive(_SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=3),
    st.fixed_dictionaries({"low": inner, "high": inner},
                          optional={"scale": st.sampled_from(["linear", "log", "cubic"])}),
    st.fixed_dictionaries({"choices": inner}),
), max_leaves=6)


@settings(max_examples=200, deadline=None)
@given(key=st.sampled_from(sorted(f.name for f in fields(AgentParams)) + ["trials"]),
       value=_VALUES, seed=st.integers(0, 2**32))
def test_any_hyperparameter_value_raises_only_typed_errors(tmp_path_factory, key, value, seed):
    # parsing, and sampling and validating any search space it returns, either
    # succeed or raise a QueueRlError; any other exception escapes the CLI
    path = tmp_path_factory.getbasetemp() / "fuzzed_params.yml"
    path.write_text(yaml.safe_dump({key: value}))
    try:
        params, space = parse_hyperparams(str(path))
        if space is not None:
            sample_params(space, params, random.Random(seed)).validate()
    except QueueRlError:
        pass


_NETWORK_FIELDS = ["num_nodes", "edges", "entry_edges", "exit_edges", "arrival_rate",
                   "service_rates"]
# half the draws are numbers that an integer or float field cannot hold
_NETWORK_VALUES = st.one_of(
    st.sampled_from([math.inf, -math.inf, math.nan, 10**400, 1.7, -1, 0]), _VALUES)


@settings(max_examples=100, deadline=None)
@given(field=st.sampled_from(_NETWORK_FIELDS + ["source", "target", "edge_type", "edge"]),
       value=_NETWORK_VALUES)
def test_any_network_config_value_raises_only_typed_errors(tmp_path_factory, field, value):
    # one generated value in a field of a valid network file, or in one edge
    # entry, either parses or raises a QueueRlError
    doc = chain_doc()
    if field == "edge":
        doc["edges"][0] = value
    elif field in _NETWORK_FIELDS:
        doc[field] = value
    else:
        doc["edges"][0][field] = value
    path = tmp_path_factory.getbasetemp() / "fuzzed_network.yml"
    path.write_text(yaml.safe_dump(doc))
    try:
        parse_network_config(str(path))
    except QueueRlError:
        pass


# -- CLI end-to-end ---------------------------------------------------------------------


def run_cli(*args) -> int:
    return main(list(args))


def test_train_writes_expected_outputs(tmp_path):
    net = write_chain_config(tmp_path / "net.yml")
    par = write_params(tmp_path / "params.yml")
    data = tmp_path / "csv"
    plots = tmp_path / "plots"
    code = run_cli(
        "--function", "train", "--config_file", str(net), "--param_file", str(par),
        "--data_file", str(data), "--image_file", str(plots),
        "--plot_curves", "True", "--save_file", "True", "--run_name", "testrun",
    )
    assert code == 0
    rows = read_csv(data / "reward.csv")
    assert rows[0] == ["episode", "timestep", "reward"]
    assert len(rows) - 1 == 20  # 2 episodes x 10 timesteps
    assert (data / "testrun.agent").exists()
    assert (data / "avg_reward.csv").exists()
    assert (data / "losses.csv").exists()
    assert (data / "transition_proba.csv").exists()
    assert (data / "episode_modes.csv").exists()
    for name in (
        "plot_transition_proba.csv", "plot_reward.csv", "plot_average_reward_episode.csv",
        "plot_actor_loss.csv", "plot_critic_loss.csv", "plot_reward_model_loss.csv",
        "plot_next_state_model_loss.csv",
    ):
        assert (plots / name).exists(), name
    # timestep column strictly increasing within each episode
    by_episode = {}
    for ep, ts, _ in rows[1:]:
        by_episode.setdefault(ep, []).append(int(ts))
    for steps in by_episode.values():
        assert steps == sorted(steps) and len(set(steps)) == len(steps)


def test_transition_csvs_reject_a_node_without_routing_row(tmp_path):
    cfg = mm1_topology(0.5, 1.0)
    env = RlEnv(cfg, seed=0, events_per_step=20)
    params = AgentParams(hidden_sizes=(4,), batch_size=8, num_episodes=1, num_timesteps=3)
    trace = DdpgAgent(env.state_dim, env.action_dim, params).train(env)
    for write in (reporting.write_training_csvs, reporting.write_plot_csvs):
        with pytest.raises(UnknownNode, match="node 99"):
            write(trace, tmp_path / "out", node=99)


def test_train_runs_are_byte_identical(tmp_path):
    net = write_chain_config(tmp_path / "net.yml")
    par = write_params(tmp_path / "params.yml")

    def one_run(tag):
        out = tmp_path / tag
        assert run_cli(
            "--function", "train", "--config_file", str(net), "--param_file", str(par),
            "--data_file", str(out), "--run_name", "fixed",
        ) == 0
        return {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}

    assert one_run("a") == one_run("b")


def test_missing_config_file_exit_code(tmp_path, capsys):
    par = write_params(tmp_path / "params.yml")
    code = run_cli("--function", "train", "--config_file", "nope/missing.yml",
                   "--param_file", str(par), "--data_file", str(tmp_path / "out"))
    assert code == 3  # ParseError
    assert "missing.yml" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--config_file", "--param_file"])
@pytest.mark.parametrize("content", [None, b"\xff"], ids=["directory", "undecodable"])
def test_unreadable_input_file_exit_code(tmp_path, capsys, flag, content):
    files = {"--config_file": write_chain_config(tmp_path / "net.yml"),
             "--param_file": write_params(tmp_path / "params.yml")}
    if content is None:
        files[flag] = tmp_path
    else:
        files[flag].write_bytes(content)
    code = run_cli("--function", "train", "--config_file", str(files["--config_file"]),
                   "--param_file", str(files["--param_file"]),
                   "--data_file", str(tmp_path / "out"))
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error (ParseError)")
    assert "Traceback" not in err


def test_unreadable_agent_file_exit_code(tmp_path, capsys):
    net = write_chain_config(tmp_path / "net.yml")
    par = write_params(tmp_path / "params.yml", num_episodes=1, num_timesteps=2)
    code = run_cli("--function", "evaluate", "--evaluator", "disruption", "--node", "1",
                   "--agent_file", str(tmp_path / "nope.agent"), "--config_file", str(net),
                   "--param_file", str(par), "--data_file", str(tmp_path / "out"))
    err = capsys.readouterr().err
    assert code == 6
    assert err.startswith("error (CheckpointError)") and "nope.agent" in err
    assert "Traceback" not in err


TRAIN = ("--function", "train")
TUNE = ("--function", "tune")
EVALUATE = ("--function", "evaluate", "--evaluator")


@pytest.mark.parametrize("network, params, cli_args, code, message", [
    ({"arrival_rate": float("nan")}, {}, TRAIN, 2, "arrival_rate must be finite"),
    ({"arrival_rate": float("inf")}, {}, TRAIN, 2, "arrival_rate must be finite"),
    ({"service_rates": {1: float("inf")}}, {}, TRAIN, 2, "edge type 1 must be finite"),
    ({"service_rates": {1: float("nan")}}, {}, TRAIN, 2, "edge type 1 must be finite"),
    ({}, {"trials": "abc", "tau": {"low": 0.01, "high": 0.2}}, TRAIN, 3, "'trials'"),
    ({}, {"tau": {"low": "abc", "high": 0.2}}, TRAIN, 3, "'tau'"),
    ({}, {"hidden_sizes": ["a", "b"]}, TRAIN, 3, "'hidden_sizes'"),
    ({}, {"hidden_sizes": 5}, TRAIN, 3, "'hidden_sizes'"),
    ({}, {"batch_size": {"choices": 3}}, TRAIN, 3, "'batch_size'"),
    ({}, {"num_episodes": 1, "num_timesteps": 2},
     ("--function", "evaluate", "--evaluator", "robustness", "--num_agents", "2",
      "--time_steps", "0"), 2, "time_steps must be >= 1"),
    ({}, {"seed": -1}, TRAIN, 2, "seed must be >= 0"),
    ({}, {"epsilon": float("inf")}, TRAIN, 2, "epsilon must be finite"),
    ({}, {"w1": float("inf")}, TRAIN, 2, "w1 must be finite"),
    ({}, {"w2": float("inf")}, TRAIN, 2, "w2 must be finite"),
    ({}, {"learning_rate": float("inf")}, TRAIN, 2, "learning_rate must be finite"),
    ({}, {"hidden_sizes": [float("inf")]}, TRAIN, 2, "'hidden_sizes' must be an integer"),
    ({}, {"hidden_sizes": [2.5]}, TRAIN, 2, "'hidden_sizes' must be an integer"),
    ({}, {"batch_size": {"low": 1, "high": float("inf")}}, TUNE, 2, "must be finite"),
    ({}, {"hidden_sizes": {"choices": [3]}}, TUNE, 3, "'hidden_sizes'"),
    ({}, {"num_episodes": 1, "num_timesteps": 4},
     EVALUATE + ("startup", "--window_size", "0"), 2, "window_size and consecutive_points"),
    ({}, {"num_episodes": 1, "num_timesteps": 2},
     EVALUATE + ("convergence", "--consecutive_points", "0"), 2,
     "window_size and consecutive_points"),
    ({}, {"num_episodes": 1, "num_timesteps": 2},
     EVALUATE + ("noise", "--noise_variance", "nan"), 2, "noise variance must be finite"),
    ({}, {"num_episodes": 1, "num_timesteps": 2},
     EVALUATE + ("noise", "--noise_mean", "nan"), 2, "noise mean must be finite"),
    ({}, {"num_episodes": 1, "num_timesteps": 2},
     EVALUATE + ("robustness", "--num_agents", "2", "--z", "nan"), 2, "z nan"),
    ({}, {"num_episodes": 1, "num_timesteps": 2},
     EVALUATE + ("robustness", "--num_agents", "2", "--workers", "0"), 2, "workers must be >= 1"),
    ({}, {"num_episodes": 1, "num_timesteps": 2},
     EVALUATE + ("disruption", "--node", "99"), 4, "node 99 not in network"),
    ({}, {"num_episodes": 1, "num_timesteps": 2},
     EVALUATE + ("disruption", "--node", "0"), 2, "node 0 is not blockable"),
    ({}, {"num_episodes": 1, "num_timesteps": 2},
     EVALUATE + ("disruption", "--node", "1", "--time_steps", "0"), 2,
     "time_steps must be >= 1"),
    ({}, {"num_episodes": 1, "num_timesteps": 2},
     EVALUATE + ("noise", "--time_steps", "0"), 2, "time_steps must be >= 1"),
    ({"num_nodes": float("inf")}, {}, TRAIN, 2, "'num_nodes' must be an integer"),
    ({"edges": [{"source": 0, "target": 1, "edge_type": float("inf")},
                {"source": 1, "target": 2, "edge_type": 0}]},
     {}, TRAIN, 2, "'edges[0].edge_type' must be an integer"),
    ({"edges": [{"source": 0, "target": 1.7, "edge_type": 1},
                {"source": 1, "target": 2, "edge_type": 0}]},
     {}, TRAIN, 2, "'edges[0].target' must be an integer"),
    ({}, {}, TRAIN + ("--node", "99"), 4, "node 99 not in network"),
    ({}, {}, TRAIN + ("--node", "-1"), 4, "node -1 not in network"),
    ({}, {}, TRAIN + ("--node", "2"), 2, "node 2 has no outgoing edges"),
    ({}, {}, TRAIN + ("--plot_curves", "True", "--node", "99"), 4, "node 99 not in network"),
    ({"entry_edges": "12"}, {}, TRAIN, 3, "'entry_edges' must be a list"),
    ({"exit_edges": {0: "x"}}, {}, TRAIN, 3, "'exit_edges' must be a list"),
    ({"service_rates": [[1, 2.0]]}, {}, TRAIN, 3, "'service_rates' must be a mapping"),
    ({"arrival_rate": 1e-320}, {}, TRAIN, 2,
     "arrival_rate must be finite, > 0 and give finite exponential draws, got 1e-320"),
    ({"service_rates": {1: 1e-320}}, {}, TRAIN, 2,
     "edge type 1 must be finite, > 0 and give finite exponential draws, got 1e-320"),
    ({}, {}, EVALUATE + ("startup", "--window_size", "20"), 8,
     "need at least 23 rewards, got 10"),
    ({}, {"num_episodes": 1, "num_timesteps": 2}, EVALUATE + ("disruption",), 2,
     "--node is required for the disruption evaluator"),
    # at seed 4 the first trial draws a valid value, so a search that checked
    # each trial alone would train
    ({}, {"num_samples": {"choices": [0, 4]}, "trials": 6, "seed": 4}, TUNE, 2,
     "num_samples must be >= 1"),
    ({}, {"tau": {"low": 0.5, "high": 2.0}, "trials": 6, "seed": 4}, TUNE, 2,
     "tau must be in (0, 1]"),
    ({}, {"tau": {"low": 0.1}}, TUNE, 3, "'tau' needs either choices or low/high"),
    ({"edges": [{"source": 0, "target": 1, "edge_type": 1},
                {"source": 0, "target": 1, "edge_type": 2},
                {"source": 1, "target": 2, "edge_type": 0}]},
     {}, TRAIN, 2, "duplicate edge 0 -> 1"),
], ids=["nan_arrival_rate", "inf_arrival_rate", "inf_service_rate", "nan_service_rate",
        "trials_abc", "range_low_abc", "hidden_sizes_strings", "hidden_sizes_scalar",
        "choices_scalar", "zero_time_steps", "negative_seed", "inf_epsilon", "inf_w1",
        "inf_w2", "inf_learning_rate", "inf_hidden_size", "fractional_hidden_size",
        "inf_range_high", "hidden_sizes_scalar_choice", "zero_window_size",
        "zero_consecutive_points", "nan_noise_variance", "nan_noise_mean", "nan_z",
        "zero_workers", "unknown_disruption_node", "unblockable_disruption_node",
        "zero_disruption_time_steps", "zero_noise_time_steps",
        "inf_num_nodes", "inf_edge_type", "fractional_target", "unknown_train_node",
        "negative_train_node", "sink_train_node", "unknown_plot_node", "string_entry_edges",
        "mapping_exit_edges", "list_service_rates", "tiny_arrival_rate", "tiny_service_rate",
        "startup_curve_shorter_than_window", "disruption_without_node",
        "unsampleable_choice", "unsampleable_range_end", "range_without_high",
        "duplicate_edge"])
def test_malformed_numeric_input_exit_codes(tmp_path, capsys, monkeypatch, network, params,
                                            cli_args, code, message):
    # every case is rejected before any agent trains
    monkeypatch.setattr(DdpgAgent, "train", lambda *a, **kw: pytest.fail("an agent trained"))
    net = write_chain_config(tmp_path / "net.yml", **network)
    par = write_params(tmp_path / "params.yml", **params)
    assert run_cli(*cli_args, "--config_file", str(net), "--param_file", str(par),
                   "--data_file", str(tmp_path / "out")) == code
    err = capsys.readouterr().err
    assert err.startswith("error (")
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("cli_args, message", [
    (("--data_file", "taken"), "--data_file taken"),
    (("--data_file", "taken/sub"), "--data_file taken/sub"),
    (("--image_file", "taken", "--plot_curves", "True"), "--image_file taken"),
    (("--run_name", "sub/x", "--save_file", "True"), "--run_name must be a plain file name"),
    (("--run_name", "/x", "--save_file", "True"), "--run_name must be a plain file name"),
], ids=["data_file_is_a_file", "data_file_under_a_file", "image_file_is_a_file",
        "run_name_with_directory", "absolute_run_name"])
def test_unusable_output_paths_exit_before_training(tmp_path, capsys, monkeypatch, cli_args,
                                                    message):
    monkeypatch.setattr(DdpgAgent, "train", lambda *a, **kw: pytest.fail("an agent trained"))
    monkeypatch.chdir(tmp_path)
    Path("taken").write_text("a file, not a directory\n")
    net = write_chain_config(tmp_path / "net.yml")
    par = write_params(tmp_path / "params.yml")
    assert run_cli(*TRAIN, "--config_file", str(net), "--param_file", str(par), *cli_args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error (ConfigError)")
    assert message in err
    assert "Traceback" not in err


def test_tune_writes_ranked_results(tmp_path):
    net = write_chain_config(tmp_path / "net.yml")
    par = write_params(tmp_path / "params.yml", tau={"low": 0.01, "high": 0.2},
                       trials=2, num_episodes=1, num_timesteps=3)
    data = tmp_path / "out"
    assert run_cli("--function", "tune", "--config_file", str(net),
                   "--param_file", str(par), "--data_file", str(data)) == 0
    rows = read_csv(data / "tuning_results.csv")
    assert rows[0][:3] == ["rank", "objective", "trial_index"]
    assert len(rows) - 1 == 2
    objectives = [float(r[1]) for r in rows[1:]]
    assert objectives == sorted(objectives, reverse=True)
    summary = json.loads((data / "tuning_summary.json").read_text())
    assert summary["trials"] == 2


def test_tune_without_search_space_fails(tmp_path):
    net = write_chain_config(tmp_path / "net.yml")
    par = write_params(tmp_path / "params.yml")
    code = run_cli("--function", "tune", "--config_file", str(net),
                   "--param_file", str(par), "--data_file", str(tmp_path / "out"))
    assert code == 2  # ConfigError


def test_evaluate_requires_evaluator(tmp_path):
    net = write_chain_config(tmp_path / "net.yml")
    par = write_params(tmp_path / "params.yml")
    code = run_cli("--function", "evaluate", "--config_file", str(net),
                   "--param_file", str(par), "--data_file", str(tmp_path / "out"))
    assert code == 2


def test_evaluate_startup(tmp_path):
    net = write_chain_config(tmp_path / "net.yml")
    par = write_params(tmp_path / "params.yml", num_timesteps=12)
    data = tmp_path / "out"
    assert run_cli("--function", "evaluate", "--evaluator", "startup",
                   "--config_file", str(net), "--param_file", str(par),
                   "--data_file", str(data), "--window_size", "3",
                   "--threshold", "0.5", "--consecutive_points", "2") == 0
    rows = read_csv(data / "burn_in.csv")
    assert rows[0] == ["index", "reward", "smoothed", "derivative"]
    assert len(rows) - 1 == 12
    summary = json.loads((data / "burn_in_summary.json").read_text())
    assert "stabilization_index" in summary


def test_evaluate_convergence(tmp_path):
    net = write_chain_config(tmp_path / "net.yml")
    par = write_params(tmp_path / "params.yml", num_episodes=20, num_timesteps=2)
    data = tmp_path / "out"
    assert run_cli("--function", "evaluate", "--evaluator", "convergence",
                   "--config_file", str(net), "--param_file", str(par),
                   "--data_file", str(data), "--threshold", "0.5",
                   "--consecutive_points", "2", "--window_size", "1") == 0
    rows = read_csv(data / "convergence.csv")
    assert rows[0] == ["episode", "eval_reward"]
    episodes = [int(r[0]) for r in rows[1:]]
    assert episodes and episodes == sorted(episodes)


def test_evaluate_noise_and_checkpoint_reuse(tmp_path):
    net = write_chain_config(tmp_path / "net.yml")
    par = write_params(tmp_path / "params.yml")
    data = tmp_path / "train_out"
    assert run_cli("--function", "train", "--config_file", str(net), "--param_file", str(par),
                   "--data_file", str(data), "--save_file", "True", "--run_name", "ck") == 0
    out = tmp_path / "noise_out"
    assert run_cli("--function", "evaluate", "--evaluator", "noise",
                   "--config_file", str(net), "--param_file", str(par),
                   "--agent_file", str(data / "ck.agent"),
                   "--data_file", str(out), "--time_steps", "5") == 0
    rows = read_csv(out / "noise.csv")
    assert rows[0] == ["step", "standard_throughput", "noisy_throughput"]
    assert len(rows) - 1 == 5


def test_evaluate_disruption(tmp_path):
    net = write_fig_config(tmp_path / "net.yml")
    par = write_params(tmp_path / "params.yml", num_episodes=1, num_timesteps=2)
    data = tmp_path / "out"
    assert run_cli("--function", "evaluate", "--evaluator", "disruption",
                   "--config_file", str(net), "--param_file", str(par),
                   "--data_file", str(data), "--node", "3", "--time_steps", "3") == 0
    rows = read_csv(data / "disruption.csv")
    assert rows[0] == ["node", "successor", "pre_proba", "post_proba"]
    summary = json.loads((data / "disruption_summary.json").read_text())
    assert summary["affected_node"] == 3


def test_evaluate_robustness_csv_schema(tmp_path):
    net = write_chain_config(tmp_path / "net.yml")
    par = write_params(tmp_path / "params.yml", num_episodes=1, num_timesteps=2)
    data = tmp_path / "out"
    assert run_cli("--function", "evaluate", "--evaluator", "robustness",
                   "--config_file", str(net), "--param_file", str(par),
                   "--data_file", str(data), "--num_agents", "2",
                   "--time_steps", "2") == 0
    rows = read_csv(data / "robustness.csv")
    header, body = rows[0], rows[1:]
    assert header[:4] == ["row", "agent_index", "sigma", "required_runs"]
    assert len(body) == 3  # two agent rows + summary
    assert [r[0] for r in body] == ["agent", "agent", "summary"]
    assert all(len(r) == len(header) for r in body)
    summary = json.loads((data / "robustness_summary.json").read_text())
    assert summary["num_agents"] == 2
    assert summary["required_runs"] >= 1


def test_importing_the_cli_loads_no_process_pool():
    # the process pool is imported only where robustness_evaluate uses one
    src = Path(config_module.__file__).parents[1]
    code = ("import sys, queuerl, queuerl.cli; "
            "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))")
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": path}, timeout=60)
    assert out.stdout.strip() == "[]"
