"""YAML configuration parsing: network topologies and agent hyperparameters.

Network files carry num_nodes, an edge table, entry/exit edge sets, the
arrival rate, and per-edge-type service rates. Hyperparameter files hold
scalar AgentParams overrides; a field given as {low, high, scale} or
{choices: [...]} contributes to a tuner SearchSpace instead.
"""

from __future__ import annotations

from dataclasses import fields
from pathlib import Path

import yaml

from .agent import INT_PARAM_FIELDS, AgentParams
from .errors import ConfigError, ParseError
from .netsim import TopologyConfig, validate_config
from .tuning import ChoiceSpec, RangeSpec, SearchSpace

# accepted aliases for AgentParams fields
_ALIASES = {
    "alpha": "learning_rate",
    "gamma": "discount",
    "num_time_steps": "num_timesteps",
}
_INT_KEYS = INT_PARAM_FIELDS | {"trials"}


def _coerce_number(key: str, value, integer: bool):
    try:
        v = float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"'{key}' has a non-numeric value {value!r}") from exc
    if not integer:
        return v
    if not v.is_integer():
        raise ConfigError(f"'{key}' must be an integer, got {value}")
    return int(v)


def _coerce_value(key: str, value):
    """One value of a field: hidden_sizes is a list of integers, every other
    field a number, an integer where the field is one."""
    if key != "hidden_sizes":
        return _coerce_number(key, value, key in _INT_KEYS)
    if not isinstance(value, list):
        raise ParseError(f"'hidden_sizes' must be a list of integers, got {value!r}")
    return tuple(_coerce_number(key, h, True) for h in value)


def _load_yaml(path: str):
    p = Path(path)
    if not p.exists():
        raise ParseError(f"file not found: {path}")
    try:
        with open(p) as fh:
            return yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def parse_network_config(path: str) -> TopologyConfig:
    """Load and validate a network topology file."""
    doc = _load_yaml(path)
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: expected a mapping at the top level")
    for key in ("num_nodes", "edges", "entry_edges", "exit_edges", "arrival_rate", "service_rates"):
        if key not in doc:
            raise ParseError(f"{path}: missing required key '{key}'")

    edge_list: dict[int, dict[int, int]] = {}
    edges = doc["edges"]
    if not isinstance(edges, list):
        raise ParseError(f"{path}: 'edges' must be a list")
    for i, edge in enumerate(edges):
        if not isinstance(edge, dict) or not {"source", "target", "edge_type"} <= set(edge):
            raise ParseError(f"{path}: edges[{i}] needs source, target and edge_type")
        src, dst, etype = (_coerce_number(f"edges[{i}].{k}", edge[k], True)
                           for k in ("source", "target", "edge_type"))
        if dst in edge_list.get(src, {}):
            raise ConfigError(f"duplicate edge {src} -> {dst}")
        edge_list.setdefault(src, {})[dst] = etype

    try:
        config = TopologyConfig(
            num_nodes=_coerce_number("num_nodes", doc["num_nodes"], True),
            edge_list=edge_list,
            entry_edges={_coerce_number("entry_edges", e, True) for e in doc["entry_edges"]},
            exit_edges={_coerce_number("exit_edges", e, True) for e in doc["exit_edges"]},
            arrival_rate=_coerce_number("arrival_rate", doc["arrival_rate"], False),
            service_rates={
                _coerce_number("service_rates", k, True): _coerce_number("service_rates", v, False)
                for k, v in dict(doc["service_rates"]).items()
            },
        )
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    validate_config(config)
    return config


def network_config_to_dict(config: TopologyConfig) -> dict:
    """Canonical YAML-ready form; parse_network_config round-trips it."""
    edges = [
        {"source": src, "target": dst, "edge_type": etype}
        for src in sorted(config.edge_list)
        for dst, etype in sorted(config.edge_list[src].items())
    ]
    return {
        "num_nodes": config.num_nodes,
        "edges": edges,
        "entry_edges": sorted(config.entry_edges),
        "exit_edges": sorted(config.exit_edges),
        "arrival_rate": config.arrival_rate,
        "service_rates": {k: config.service_rates[k] for k in sorted(config.service_rates)},
    }


def write_network_config(config: TopologyConfig, path: str) -> None:
    with open(path, "w") as fh:
        yaml.safe_dump(network_config_to_dict(config), fh, sort_keys=False)


def _is_range(value: dict) -> bool:
    return {"low", "high"} <= set(value)


def parse_hyperparams(path: str) -> tuple[AgentParams, SearchSpace | None]:
    """Read scalar overrides into AgentParams; range/choice entries and the
    'trials' key build a SearchSpace. Missing fields keep their defaults."""
    doc = _load_yaml(path)
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: expected a mapping at the top level")

    known = {f.name for f in fields(AgentParams)}
    scalars: dict = {}
    specs: dict = {}
    trials = 10
    objective = "final_eval_reward"

    for raw_key, value in doc.items():
        key = _ALIASES.get(raw_key, raw_key)
        if key == "objective":
            objective = str(value)
            continue
        if key != "trials" and key not in known:
            raise ConfigError(f"unknown hyperparameter '{raw_key}'")

        if key == "trials":
            trials = _coerce_value(key, value)
        elif isinstance(value, dict):
            if "choices" in value:
                if not isinstance(value["choices"], list):
                    raise ParseError(f"{path}: '{raw_key}' choices must be a list")
                specs[key] = ChoiceSpec([_coerce_value(key, v) for v in value["choices"]])
            elif _is_range(value):
                specs[key] = RangeSpec(
                    low=_coerce_number(key, value["low"], False),
                    high=_coerce_number(key, value["high"], False),
                    scale=str(value.get("scale", "linear")),
                )
            else:
                raise ParseError(f"{path}: '{raw_key}' needs either choices or low/high")
        elif isinstance(value, list) and (
            key != "hidden_sizes" or (value and isinstance(value[0], list))
        ):
            # a bare list is a choice list; for hidden_sizes, a list of lists is
            specs[key] = ChoiceSpec([_coerce_value(key, v) for v in value])
        else:
            scalars[key] = _coerce_value(key, value)

    try:
        params = AgentParams(**scalars)
    except TypeError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    params.validate()

    if not specs:
        return params, None
    space = SearchSpace(specs=specs, trials=trials, objective=objective)
    space.validate()
    return params, space
