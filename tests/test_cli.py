import csv
import errno
import json
import math
import os
import random
import struct
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from queuerl import config as config_module
from queuerl import reporting
from queuerl.agent import AgentParams, DdpgAgent, TrainingTrace, load_agent, save_agent
from queuerl.cli import _str2bool, main
from queuerl.config import (
    network_config_to_dict,
    parse_hyperparams,
    parse_network_config,
    write_network_config,
)
from queuerl.errors import ConfigError, ParseError, QueueRlError, UnknownNode
from queuerl.evaluation import NoiseConfig, convergence_train, evaluate_disruption, evaluate_noise
from queuerl.model import Mlp
from queuerl.netsim import QueueNetwork, feed_forward_topology, figure_topology
from queuerl.rl_env import RlEnv
from queuerl.tuning import RangeSpec, sample_params
from topologies import mm1_topology

FIG_EDGES = [
    (0, 1, 1), (1, 2, 2), (1, 3, 3), (1, 4, 4), (2, 5, 5), (3, 6, 6), (3, 7, 7),
    (4, 8, 8), (5, 9, 9), (6, 9, 10), (7, 9, 11), (8, 9, 12), (9, 10, 0),
]


class Again(str):
    """A mapping key that the YAML helpers write a second time: equal only to
    itself, so a dict holds it beside the key it repeats."""

    __eq__ = object.__eq__
    __hash__ = object.__hash__


yaml.add_representer(Again, yaml.representer.SafeRepresenter.represent_str, Dumper=yaml.SafeDumper)


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
    path.write_text(yaml.safe_dump({**chain_doc(), **extra}, sort_keys=False))
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


def assert_one_line_error(err: str) -> None:
    """A CLI error is one `error (Type): message` line and no traceback."""
    assert err.startswith("error (") and len(err.splitlines()) == 1, err
    assert "Traceback" not in err


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
    assert config_module._yaml_loader() is yaml.CSafeLoader
    cases = []
    for i, cfg in enumerate((figure_topology(), mm1_topology(0.5, 1.0),
                             feed_forward_topology(40))):
        write_network_config(cfg, str(tmp_path / f"net{i}.yml"))
        cases.append((parse_network_config, tmp_path / f"net{i}.yml"))
    params = write_params(tmp_path / "params.yml", alpha="2e-3", tau={"low": 0.01, "high": 0.2},
                          hidden_sizes=[[4], [8, 8]], trials=3)
    repeated = write_params(tmp_path / "repeated.yml", tau=0.1, **{Again("tau"): 0.5})
    # a bare = key is the string "=", which parse_network_config rejects
    bare_key = tmp_path / "bare_key.yml"
    bare_key.write_text((tmp_path / "net0.yml").read_text() + "=: 1\n")
    bare_twice = tmp_path / "bare_twice.yml"
    bare_twice.write_text(bare_key.read_text() + "=: 2\n")
    malformed = tmp_path / "malformed.yml"
    malformed.write_text("num_nodes: [1, 2\nedges: {source: 0\n")
    cases += [(parse_hyperparams, params), (parse_hyperparams, repeated),
              (parse_network_config, bare_key), (parse_network_config, bare_twice),
              (parse_network_config, malformed), (parse_hyperparams, malformed)]

    def read(parse, path, loader):
        monkeypatch.setattr(config_module, "_yaml_loader", lambda: loader)
        try:
            return parse(str(path))
        except QueueRlError as exc:
            return type(exc)

    for parse, path in cases:
        got = read(parse, path, yaml.CSafeLoader)
        assert got == read(parse, path, yaml.SafeLoader), path.name
    assert got is ParseError
    for loader in (yaml.CSafeLoader, yaml.SafeLoader):
        monkeypatch.setattr(config_module, "_yaml_loader", lambda: loader)
        with pytest.raises(ParseError, match="unknown key '='"):
            parse_network_config(str(bare_key))
        assert read(parse_network_config, bare_twice, loader) is ParseError


# -- hyperparameter parsing -----------------------------------------------------------


def test_parse_hyperparams_overrides_and_defaults(tmp_path):
    path = tmp_path / "p.yml"
    path.write_text(yaml.safe_dump({"tau": 0.005, "gamma": 0.99}))
    params, space = parse_hyperparams(str(path))
    assert params.tau == 0.005
    assert params.discount == 0.99
    assert params.batch_size == 32  # default untouched
    assert space is None
    path.write_text("")
    assert parse_hyperparams(str(path)) == (AgentParams(), None)


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
    # a misspelled key is a malformed file, as in the network file
    path.write_text(yaml.safe_dump({"mystery_knob": 1}))
    with pytest.raises(ParseError, match=r"p\.yml: unknown hyperparameter 'mystery_knob'"):
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


def test_parse_hyperparams_lets_a_merged_key_be_overridden(tmp_path):
    path = tmp_path / "p.yml"
    path.write_text("learning_rate: &range {low: 0.001, high: 0.01, scale: log}\n"
                    "tau:\n  <<: *range\n  low: 0.01\n  high: 0.2\n  scale: linear\n")
    _, space = parse_hyperparams(str(path))
    assert space.specs == {"learning_rate": RangeSpec(0.001, 0.01, "log"),
                           "tau": RangeSpec(0.01, 0.2, "linear")}


def test_parse_hyperparams_rejects_an_unhashable_key(tmp_path):
    path = tmp_path / "p.yml"
    path.write_text("tau: 0.1\n[tau, discount]: 0.5\n")
    with pytest.raises(ParseError, match="line 2, column 1: found unhashable key"):
        parse_hyperparams(str(path))


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


def test_an_empty_trace_writes_headers_and_no_transition_csv(tmp_path):
    reporting.write_training_csvs(TrainingTrace(), tmp_path)
    assert read_csv(tmp_path / "reward.csv") == [["episode", "timestep", "reward"]]
    assert read_csv(tmp_path / "episode_modes.csv") == [["episode", "start_mode"]]
    assert not (tmp_path / "transition_proba.csv").exists()


def test_no_tuning_results_write_a_header_and_no_summary(tmp_path):
    reporting.write_tuning([], tmp_path)
    assert read_csv(tmp_path / "tuning_results.csv") == [["rank", "objective", "trial_index"]]
    assert not (tmp_path / "tuning_summary.json").exists()


def test_transition_csv_rows_are_the_installed_routing_maps(tmp_path):
    # every routed node of the figure topology: node 1 (the default, three
    # successors), node 3 (two) and the single-successor nodes
    cfg = figure_topology()
    env = RlEnv(cfg, seed=0, events_per_step=20)
    params = AgentParams(hidden_sizes=(4,), batch_size=8, num_episodes=2, num_timesteps=3,
                         epsilon=0.3)
    trace = DdpgAgent(env.state_dim, env.action_dim, params).train(env)
    layout = trace.routing_layout
    # each step's weights, installed in a fresh network, read back
    net = QueueNetwork(cfg, seed=0)
    tmaps = []
    for weights in trace.episode_weights:
        for w in weights:
            net.set_routing(w)
            tmaps.append(net.transition_map)
    assert len(tmaps) == 6
    assert sorted(tmaps[0]) == list(range(10))
    assert reporting.default_plot_node(layout) == 1
    for node in [None, *sorted(tmaps[0])]:
        out = tmp_path / f"node_{node}"
        reporting.write_training_csvs(trace, out, node=node)
        shown = 1 if node is None else node
        succs = sorted(tmaps[0][shown])
        assert read_csv(out / "transition_proba.csv") == (
            [["timestep"] + [f"to_node_{s}" for s in succs]]
            + [[str(t)] + [repr(tm[shown][s]) for s in succs] for t, tm in enumerate(tmaps)])


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
    err = capsys.readouterr().err
    assert "missing.yml" in err
    assert_one_line_error(err)


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
    assert_one_line_error(err)


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
    assert_one_line_error(err)


def test_checkpoint_weight_beyond_float32_range_exit_code(tmp_path, capsys):
    net = write_chain_config(tmp_path / "net.yml")
    par = write_params(tmp_path / "params.yml", num_episodes=1, num_timesteps=2)
    path = tmp_path / "huge.agent"
    save_agent(DdpgAgent(1, 1, parse_hyperparams(str(par))[0]), str(path))
    path.write_bytes(path.read_bytes()[:-8] + struct.pack("<d", 1e300))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli("--function", "evaluate", "--evaluator", "noise",
                       "--agent_file", str(path), "--config_file", str(net),
                       "--param_file", str(par), "--data_file", str(tmp_path / "out"))
    err = capsys.readouterr().err
    assert code == 6
    assert err.startswith("error (CheckpointError)") and "beyond float32's range" in err
    assert "Traceback" not in err
    assert_one_line_error(err)
    assert [w.message for w in caught] == []


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
    *[({}, {"num_episodes": 1, "num_timesteps": 4},
       EVALUATE + (evaluator, "--threshold", threshold), 2,
       f"threshold must be finite and >= 0, got {float(threshold)}")
      for evaluator in ("startup", "convergence") for threshold in ("nan", "inf", "-1")],
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
    # random_search gives each trial its own seed, so a sampled seed is never used
    ({}, {"seed": [1, 2, 3]}, TUNE, 2, "seed cannot be searched"),
    ({}, {"seed": [1, 2, 3]}, TRAIN, 2, "seed cannot be searched"),
    ({"edges": [{"source": 0, "target": 1, "edge_type": 1},
                {"source": 0, "target": 1, "edge_type": 2},
                {"source": 1, "target": 2, "edge_type": 0}]},
     {}, TRAIN, 2, "duplicate edge 0 -> 1"),
    ({"service_rates": {1: 2.0, "1": 9.0}}, {}, TRAIN, 2, "service_rates gives edge type 1 twice"),
    # jobs routed to node 3 circle between nodes 3 and 5 for ever
    ({"num_nodes": 6,
      "edges": [{"source": src, "target": dst, "edge_type": etype}
                for src, dst, etype in [(0, 1, 1), (1, 2, 2), (1, 3, 3), (2, 4, 0), (3, 5, 4),
                                        (5, 3, 5)]],
      "arrival_rate": 1.0, "service_rates": {e: 4.0 for e in range(1, 6)}},
     {}, TRAIN, 2, "no directed path from node 3 (target of edge type 3) to any exit edge"),
    ({}, {"learning_rate": 0.01, "alpha": 0.5}, TRAIN, 2,
     "'alpha' and 'learning_rate' both set 'learning_rate'"),
    ({}, {"gamma": 0.9, "discount": 0.5}, TRAIN, 2, "both set 'discount'"),
    ({}, {"num_time_steps": 10}, TRAIN, 2, "both set 'num_timesteps'"),
    ({}, {"learning_rate": 0.01, "alpha": {"low": 0.001, "high": 0.1}}, TUNE, 2,
     "both set 'learning_rate'"),
    ({}, {"objective": "other", "tau": {"low": 0.01, "high": 0.2}}, TUNE, 2,
     "unknown objective 'other'"),
    ({}, {"hidden_sizes": {"low": 1, "high": 3}}, TUNE, 2,
     "hidden_sizes: a range needs a numeric field"),
    ({}, {"objective": "other"}, TRAIN, 2, "unknown objective 'other'"),
    ({}, {"trials": 0}, TRAIN, 2, "trials must be >= 1"),
    ({}, {"tau": 0.1, Again("tau"): 0.5}, TRAIN, 3, "found duplicate key 'tau'"),
    ({Again("num_nodes"): 4}, {}, TRAIN, 3, "found duplicate key 'num_nodes'"),
    ({"edges": [{"source": 0, "target": 1, "edge_type": 1, Again("target"): 2},
                {"source": 1, "target": 2, "edge_type": 0}]},
     {}, TRAIN, 3, "found duplicate key 'target'"),
    ({"arrival_rate": True}, {}, TRAIN, 3, "'arrival_rate' has a non-numeric value True"),
    ({"arival_rate": 5.0}, {}, TRAIN, 3, "unknown key 'arival_rate'"),
    ({}, {"num_epochz": 3}, TRAIN, 3, "params.yml: unknown hyperparameter 'num_epochz'"),
    ({"edges": [{"source": 0, "target": 1, "edge_type": 1, "service_rate": 9.0},
                {"source": 1, "target": 2, "edge_type": 0}]},
     {}, TRAIN, 3, "edges[0] has unknown key 'service_rate'"),
    ({}, {"num_episodes": True}, TRAIN, 3, "'num_episodes' has a non-numeric value True"),
    ({}, {"learning_rate": True}, TRAIN, 3, "'learning_rate' has a non-numeric value True"),
    ({}, {"hidden_sizes": [True]}, TRAIN, 3, "'hidden_sizes' has a non-numeric value True"),
    ({}, {"batch_size": 16, "buffer_capacity": 8}, TRAIN, 2,
     "batch_size must be <= buffer_capacity"),
    # sigma 0.5 squares to a float or ceil beyond range; each must be caught
    # before any agent trains
    ({}, {"num_episodes": 1, "num_timesteps": 2},
     EVALUATE + ("robustness", "--num_agents", "2", "--margin", "1e-160"), 2,
     "(z * sigma / margin) ** 2 overflows"),
    ({}, {"num_episodes": 1, "num_timesteps": 2},
     EVALUATE + ("robustness", "--num_agents", "2", "--margin", "1e-320"), 2,
     "(z * sigma / margin) ** 2 overflows"),
    ({}, {"num_episodes": 1, "num_timesteps": 2},
     EVALUATE + ("robustness", "--num_agents", "2", "--z", "1e308"), 2,
     "(z * sigma / margin) ** 2 overflows"),
    # arrays numpy cannot allocate, rejected before anything is allocated;
    # the chain has one serviced edge, so state_dim = action_dim = 1 and the
    # largest network, the critic, has layers [2, 10**20, 1]
    ({}, {"hidden_sizes": [10**20]}, TRAIN, 2,
     f"hidden_sizes ({10**20},) sizes an array of {8 * (4 * 10**20 + 1)} bytes"),
    ({}, {"num_timesteps": 10**20}, TRAIN, 2,
     f"num_timesteps {10**20} sizes an array of {8 * 10**20} bytes"),
    ({}, {"num_samples": 10**20, "planning_steps": 1}, TRAIN, 2,
     f"num_samples {10**20} sizes an array of {8 * 8 * 10**20} bytes"),
    ({}, {"num_timesteps": {"choices": [2, 10**20]}, "trials": 6, "seed": 4}, TUNE, 2,
     f"num_timesteps {10**20} sizes an array"),
], ids=["nan_arrival_rate", "inf_arrival_rate", "inf_service_rate", "nan_service_rate",
        "trials_abc", "range_low_abc", "hidden_sizes_strings", "hidden_sizes_scalar",
        "choices_scalar", "zero_time_steps", "negative_seed", "inf_epsilon", "inf_w1",
        "inf_w2", "inf_learning_rate", "inf_hidden_size", "fractional_hidden_size",
        "inf_range_high", "hidden_sizes_scalar_choice", "zero_window_size",
        "zero_consecutive_points",
        *[f"{threshold}_{evaluator}_threshold" for evaluator in ("startup", "convergence")
          for threshold in ("nan", "inf", "negative")],
        "nan_noise_variance", "nan_noise_mean", "nan_z",
        "zero_workers", "unknown_disruption_node", "unblockable_disruption_node",
        "zero_disruption_time_steps", "zero_noise_time_steps",
        "inf_num_nodes", "inf_edge_type", "fractional_target", "unknown_train_node",
        "negative_train_node", "sink_train_node", "unknown_plot_node", "string_entry_edges",
        "mapping_exit_edges", "list_service_rates", "tiny_arrival_rate", "tiny_service_rate",
        "startup_curve_shorter_than_window", "disruption_without_node",
        "unsampleable_choice", "unsampleable_range_end", "range_without_high",
        "tune_seed_choices", "train_seed_choices",
        "duplicate_edge", "service_rate_given_twice", "cycle_without_exit",
        "learning_rate_and_alpha",
        "gamma_and_discount", "num_time_steps_and_num_timesteps", "scalar_and_range_alias",
        "unknown_objective", "hidden_sizes_range", "objective_without_range",
        "trials_without_range", "param_key_twice", "network_key_twice",
        "edge_key_twice", "boolean_arrival_rate", "unknown_network_key",
        "unknown_hyperparameter", "unknown_edge_key",
        "boolean_num_episodes",
        "boolean_learning_rate", "boolean_hidden_size", "batch_above_buffer_capacity",
        "robustness_tiny_margin", "robustness_subnormal_margin", "robustness_huge_z",
        "huge_hidden_size", "huge_num_timesteps", "huge_num_samples", "huge_choice"])
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
    assert_one_line_error(err)


@pytest.mark.parametrize("network, cli_args", [
    ({"arrival_rate": 3e-307}, TRAIN),
    ({"arrival_rate": 3e-307, "service_rates": {1: 3e-307}}, TRAIN),
    ({}, EVALUATE + ("noise", "--noise_mean", "1e308")),
], ids=["tiny_arrival_rate_sum", "tiny_rates_queue_sum", "huge_noise_mean"])
def test_time_overflow_exit_codes(tmp_path, capsys, network, cli_args):
    # each draw is finite, so the inputs pass every check before training;
    # the run stops where simulated time leaves float range, and says so
    net = write_chain_config(tmp_path / "net.yml", **network)
    par = write_params(tmp_path / "params.yml", num_episodes=1)
    assert run_cli(*cli_args, "--config_file", str(net), "--param_file", str(par),
                   "--data_file", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error (ConfigError): ") and "overflowed float range" in err
    assert "(clock " in err
    assert "Traceback" not in err
    assert_one_line_error(err)


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
    assert_one_line_error(err)


def test_overlong_run_name_exits_before_training(tmp_path, capsys, monkeypatch):
    # 300 characters pass as a plain file name, but no file system takes them
    monkeypatch.setattr(DdpgAgent, "train", lambda *a, **kw: pytest.fail("an agent trained"))
    net = write_chain_config(tmp_path / "net.yml")
    par = write_params(tmp_path / "params.yml")
    assert run_cli(*TRAIN, "--config_file", str(net), "--param_file", str(par),
                   "--data_file", str(tmp_path / "out"), "--save_file", "True",
                   "--run_name", "x" * 300) == 2
    err = capsys.readouterr().err
    assert err.startswith("error (ConfigError): --run_name makes a 306-byte checkpoint name")
    assert "Traceback" not in err
    assert_one_line_error(err)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["net.yml", "params.yml"]


def test_os_error_exits_without_traceback(tmp_path, capsys, monkeypatch):
    def disk_full(*args, **kwargs):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(reporting, "write_training_csvs", disk_full)
    net = write_chain_config(tmp_path / "net.yml")
    par = write_params(tmp_path / "params.yml", num_episodes=1, num_timesteps=2)
    assert run_cli(*TRAIN, "--config_file", str(net), "--param_file", str(par),
                   "--data_file", str(tmp_path / "out")) == QueueRlError.exit_code
    err = capsys.readouterr().err
    assert err == "error (OSError): [Errno 28] No space left on device\n"
    assert_one_line_error(err)


def test_memory_error_exits_without_traceback(tmp_path, capsys, monkeypatch):
    # what numpy raises for networks such as hidden_sizes: [100000000000]
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 745. GiB for an array")

    monkeypatch.setattr(Mlp, "__init__", no_memory)
    net = write_chain_config(tmp_path / "net.yml")
    par = write_params(tmp_path / "params.yml")
    assert run_cli(*TRAIN, "--config_file", str(net), "--param_file", str(par),
                   "--data_file", str(tmp_path / "out")) == QueueRlError.exit_code
    err = capsys.readouterr().err
    assert err == "error (MemoryError): Unable to allocate 745. GiB for an array\n"
    assert_one_line_error(err)


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


def test_tune_without_search_space_fails(tmp_path, capsys):
    net = write_chain_config(tmp_path / "net.yml")
    par = write_params(tmp_path / "params.yml")
    code = run_cli("--function", "tune", "--config_file", str(net),
                   "--param_file", str(par), "--data_file", str(tmp_path / "out"))
    assert code == 2  # ConfigError
    assert_one_line_error(capsys.readouterr().err)


def test_evaluate_requires_evaluator(tmp_path, capsys):
    net = write_chain_config(tmp_path / "net.yml")
    par = write_params(tmp_path / "params.yml")
    code = run_cli("--function", "evaluate", "--config_file", str(net),
                   "--param_file", str(par), "--data_file", str(tmp_path / "out"))
    assert code == 2
    assert_one_line_error(capsys.readouterr().err)


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
    # on the figure topology at 100 events a step the evaluations differ, so
    # the file shows how training continues from one chunk to the next
    net = write_fig_config(tmp_path / "net.yml")
    par = write_params(tmp_path / "params.yml", num_episodes=30, num_timesteps=2,
                       events_per_step=100)
    data = tmp_path / "out"
    assert run_cli("--function", "evaluate", "--evaluator", "convergence",
                   "--config_file", str(net), "--param_file", str(par),
                   "--data_file", str(data), "--threshold", "0.5",
                   "--consecutive_points", "2", "--window_size", "1") == 0
    rows = read_csv(data / "convergence.csv")
    assert rows[0] == ["episode", "eval_reward"]
    evaluations = [(int(episode), float(reward)) for episode, reward in rows[1:]]
    assert len({reward for _, reward in evaluations}) == len(evaluations) == 3
    report = convergence_train(parse_hyperparams(str(par))[0], parse_network_config(str(net)),
                               window_size=1, threshold=0.5, consecutive_points=2)
    assert evaluations == report.evaluations


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


def test_evaluate_a_checkpoint_at_its_own_params(tmp_path):
    # the checkpoint was trained at seed 5 and 40 events a step; the param
    # file given at evaluation says seed 9 and 15 events a step
    net = write_fig_config(tmp_path / "net.yml")
    train_par = write_params(tmp_path / "train.yml", num_episodes=1, num_timesteps=2,
                             events_per_step=40, seed=5)
    eval_par = write_params(tmp_path / "eval.yml", events_per_step=15, seed=9)
    data = tmp_path / "train_out"
    assert run_cli("--function", "train", "--config_file", str(net),
                   "--param_file", str(train_par), "--data_file", str(data),
                   "--save_file", "True", "--run_name", "ck") == 0
    checkpoint = str(data / "ck.agent")
    cfg = parse_network_config(str(net))
    agent = load_agent(checkpoint)
    assert (agent.params.seed, agent.params.events_per_step) == (5, 40)

    for evaluator, extra, summary in [("disruption", ["--node", "3"], "disruption_summary.json"),
                                      ("noise", [], "noise_summary.json")]:
        out = tmp_path / evaluator
        assert run_cli("--function", "evaluate", "--evaluator", evaluator,
                       "--config_file", str(net), "--param_file", str(eval_par),
                       "--agent_file", checkpoint, "--data_file", str(out),
                       "--time_steps", "4", *extra) == 0
        expected = tmp_path / f"{evaluator}_expected"
        if evaluator == "disruption":
            reporting.write_disruption(
                evaluate_disruption(agent, cfg, node=3, steps=4, seed=5), expected)
        else:
            reporting.write_noise(
                evaluate_noise(agent, cfg, NoiseConfig(), timesteps=4, seed=5), expected)
        assert (json.loads((out / summary).read_text())
                == json.loads((expected / summary).read_text()))


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


def fresh_python(*args, check=True) -> subprocess.CompletedProcess:
    """Run python with args in a new interpreter that imports this checkout's
    queuerl, so nothing a test module imported is loaded there."""
    src = Path(config_module.__file__).parents[1]
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          check=check, env={**os.environ, "PYTHONPATH": path}, timeout=60)


def test_importing_the_package_loads_no_command_dependencies():
    # PyYAML, the report writers and the tuner load where a command uses them,
    # so a process that only rolls out a policy starts without them
    out = fresh_python("-c", "import sys, queuerl, queuerl.cli, queuerl.config, "
                       "queuerl.evaluation; print(sorted({'yaml', 'csv', 'queuerl.reporting', "
                       "'queuerl.tuning'} & set(sys.modules)))")
    assert out.stdout.strip() == "[]"


def test_train_and_tune_run_in_a_fresh_interpreter(tmp_path):
    # as in a user's process, and unlike this module's, nothing that the
    # commands import for themselves is loaded before they run
    net = write_chain_config(tmp_path / "net.yml")
    par = write_params(tmp_path / "params.yml", num_episodes=1, num_timesteps=3)
    data, plots = tmp_path / "csv", tmp_path / "plots"
    fresh_python("-m", "queuerl.cli", "--function", "train", "--config_file", str(net),
                 "--param_file", str(par), "--data_file", str(data), "--image_file", str(plots),
                 "--plot_curves", "True", "--save_file", "True", "--run_name", "fresh")
    assert len(read_csv(data / "reward.csv")) - 1 == 3
    assert (data / "fresh.agent").is_file() and (plots / "plot_reward.csv").is_file()
    par = write_params(tmp_path / "tune.yml", num_episodes=1, num_timesteps=3,
                       tau={"low": 0.01, "high": 0.2}, trials=1)
    fresh_python("-m", "queuerl.cli", "--function", "tune", "--config_file", str(net),
                 "--param_file", str(par), "--data_file", str(tmp_path / "tune"))
    assert len(read_csv(tmp_path / "tune" / "tuning_results.csv")) - 1 == 1


@pytest.mark.parametrize("text", [
    yaml.safe_dump({**chain_doc(), Again("num_nodes"): 4}),
    "num_nodes: [1, 2\nedges: {source: 0\n",
], ids=["key_twice", "malformed"])
def test_unreadable_network_file_exits_3_in_a_fresh_interpreter(tmp_path, text):
    net = tmp_path / "net.yml"
    net.write_text(text)
    par = write_params(tmp_path / "params.yml")
    out = fresh_python("-m", "queuerl.cli", "--function", "train", "--config_file", str(net),
                       "--param_file", str(par), "--data_file", str(tmp_path / "out"),
                       check=False)
    assert out.returncode == 3
    assert out.stderr.startswith("error (ParseError)") and out.stderr.count("error (") == 1
    assert "Traceback" not in out.stderr
    assert_one_line_error(out.stderr)
