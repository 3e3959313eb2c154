"""YAML configuration parsing: network topologies and agent hyperparameters.

Network files carry num_nodes, an edge table, entry/exit edge sets, the
arrival rate, and per-edge-type service rates. Hyperparameter files hold
scalar AgentParams overrides; a field given as {low, high, scale} or
{choices: [...]} contributes to a tuner SearchSpace instead.

PyYAML is imported where a file is read or written, and the tuner's
search-space types in parse_hyperparams, not with this module, so a process
that imports it but reads no file, such as `queuerl --help`, loads neither.
"""

from __future__ import annotations

import functools
from dataclasses import fields
from typing import TYPE_CHECKING

from .agent import INT_PARAM_FIELDS, AgentParams
from .errors import ConfigError, ParseError
from .netsim import TopologyConfig, validate_config

if TYPE_CHECKING:
    from .tuning import SearchSpace

# accepted aliases for AgentParams fields
_ALIASES = {
    "alpha": "learning_rate",
    "gamma": "discount",
    "num_time_steps": "num_timesteps",
}
_INT_KEYS = INT_PARAM_FIELDS | {"trials"}
# the keys of a network file and of each of its edges
_NETWORK_KEYS = ("num_nodes", "edges", "entry_edges", "exit_edges", "arrival_rate",
                 "service_rates")
_EDGE_KEYS = ("source", "target", "edge_type")


def _yaml_loader() -> type:
    """The safe loader that _load_yaml builds on: libyaml's parser where
    PyYAML was built with it, the same documents read about six times faster
    (3.6 against 0.6 ms for the figure topology file)."""
    import yaml

    return getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def _construct_unique_map(loader, node):
    """The safe loaders' mapping constructor, but a key written twice in the
    mapping raises ConstructorError where they would keep its last value.
    Keys that a merge (<<) brings in may still be overridden, as YAML allows.
    A bare = key is the string "=", as the safe loaders read it."""
    seen = set()
    for key_node, _ in node.value:
        if key_node.tag == "tag:yaml.org,2002:merge":
            continue
        if key_node.tag == "tag:yaml.org,2002:value":
            key = key_node.value
        else:
            key = loader.construct_object(key_node)
        try:
            repeated = key in seen
        except TypeError:  # unhashable: construct_yaml_map raises its own error
            continue
        if repeated:
            from yaml.constructor import ConstructorError

            raise ConstructorError(
                "while constructing a mapping", node.start_mark,
                f"found duplicate key {key!r}", key_node.start_mark)
        seen.add(key)
    return loader.construct_yaml_map(node)


@functools.cache
def _unique_key_loader(base: type) -> type:
    """A subclass of the loader base that builds mappings with
    _construct_unique_map."""
    loader = type(f"UniqueKey{base.__name__}", (base,), {})
    loader.add_constructor("tag:yaml.org,2002:map", _construct_unique_map)
    return loader


def _coerce_number(key: str, value, integer: bool):
    try:
        if isinstance(value, bool):  # YAML's true and false, which float() reads as 1 and 0
            raise TypeError(value)
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
    """The document in a YAML file. A path that is missing, names a directory
    or cannot be read, bytes that are not YAML in a Unicode encoding (PyYAML
    reads the stream as bytes and detects which), or a key written twice in
    one mapping, raise ParseError. Its message is one line: PyYAML's problem,
    after the line and column (counted from 1) where PyYAML marks one."""
    import yaml

    try:
        with open(path, "rb") as fh:
            return yaml.load(fh, Loader=_unique_key_loader(_yaml_loader()))
    except FileNotFoundError as exc:
        raise ParseError(f"file not found: {path}") from exc
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except yaml.YAMLError as exc:
        mark, problem = getattr(exc, "problem_mark", None), getattr(exc, "problem", None)
        if mark is None or problem is None:
            problem = " ".join(str(exc).split())
        else:
            problem = f"line {mark.line + 1}, column {mark.column + 1}: {problem}"
        raise ParseError(f"{path}: {problem}") from exc


def parse_network_config(path: str) -> TopologyConfig:
    """Load and validate a network topology file; an unknown key raises ParseError."""
    doc = _load_yaml(path)
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: expected a mapping at the top level")
    for key in doc:
        if key not in _NETWORK_KEYS:
            raise ParseError(f"{path}: unknown key {key!r}")
    for key in _NETWORK_KEYS:
        if key not in doc:
            raise ParseError(f"{path}: missing required key '{key}'")
    for key, kind, name in (("edges", list, "a list"), ("entry_edges", list, "a list"),
                            ("exit_edges", list, "a list"),
                            ("service_rates", dict, "a mapping")):
        if not isinstance(doc[key], kind):
            raise ParseError(f"{path}: '{key}' must be {name}, got {doc[key]!r}")

    edge_list: dict[int, dict[int, int]] = {}
    edges = doc["edges"]
    for i, edge in enumerate(edges):
        if not isinstance(edge, dict) or not set(_EDGE_KEYS) <= set(edge):
            raise ParseError(f"{path}: edges[{i}] needs source, target and edge_type")
        for key in edge:
            if key not in _EDGE_KEYS:
                raise ParseError(f"{path}: edges[{i}] has unknown key {key!r}")
        src, dst, etype = (_coerce_number(f"edges[{i}].{k}", edge[k], True) for k in _EDGE_KEYS)
        if dst in edge_list.get(src, {}):
            raise ConfigError(f"duplicate edge {src} -> {dst}")
        edge_list.setdefault(src, {})[dst] = etype

    service_rates: dict[int, float] = {}
    for k, v in doc["service_rates"].items():
        etype = _coerce_number("service_rates", k, True)
        if etype in service_rates:
            raise ConfigError(f"service_rates gives edge type {etype} twice")
        service_rates[etype] = _coerce_number("service_rates", v, False)

    config = TopologyConfig(
        num_nodes=_coerce_number("num_nodes", doc["num_nodes"], True),
        edge_list=edge_list,
        entry_edges={_coerce_number("entry_edges", e, True) for e in doc["entry_edges"]},
        exit_edges={_coerce_number("exit_edges", e, True) for e in doc["exit_edges"]},
        arrival_rate=_coerce_number("arrival_rate", doc["arrival_rate"], False),
        service_rates=service_rates,
    )
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
    import yaml

    with open(path, "w") as fh:
        yaml.safe_dump(network_config_to_dict(config), fh, sort_keys=False)


def parse_hyperparams(path: str) -> tuple[AgentParams, SearchSpace | None]:
    """Read scalar overrides into AgentParams; range/choice entries and the
    'trials' and 'objective' keys build a SearchSpace, which is None when no
    range or choice is given (trials and objective are checked either way).
    Missing fields keep their defaults."""
    from .tuning import ChoiceSpec, RangeSpec, SearchSpace

    doc = _load_yaml(path)
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: expected a mapping at the top level")

    known = {f.name for f in fields(AgentParams)}
    given: dict[str, str] = {}  # field -> the key that set it
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
        if key in given:
            raise ConfigError(f"'{given[key]}' and '{raw_key}' both set '{key}'")
        given[key] = raw_key

        if key == "trials":
            trials = _coerce_value(key, value)
        elif isinstance(value, dict):
            if "choices" in value:
                if not isinstance(value["choices"], list):
                    raise ParseError(f"{path}: '{raw_key}' choices must be a list")
                specs[key] = ChoiceSpec([_coerce_value(key, v) for v in value["choices"]])
            elif {"low", "high"} <= set(value):
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

    params = AgentParams(**scalars)
    params.validate()

    space = SearchSpace(specs=specs, trials=trials, objective=objective)
    space.validate()
    return params, space if specs else None
