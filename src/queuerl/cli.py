"""Command-line entry point: train, tune, and evaluate from YAML configs.

    queuerl --function train --config_file user_config/configuration.yml \
            --param_file user_config/eval_hyperparams.yml \
            --data_file output_csv --image_file output_plots \
            --plot_curves True --save_file True
"""

from __future__ import annotations

import argparse
import sys
from datetime import datetime
from pathlib import Path
from typing import Optional

from . import reporting
from .agent import DdpgAgent, load_agent, make_agent, save_agent
from .config import parse_hyperparams, parse_network_config
from .errors import ConfigError, QueueRlError
from .evaluation import (
    NoiseConfig,
    check_burn_in_length,
    check_steps,
    check_window,
    convergence_train,
    detect_burn_in,
    evaluate_disruption,
    evaluate_noise,
    robustness_evaluate,
)
from .exploration import StateTracker, train_with_blockage_exploration
from .tuning import random_search

EVALUATORS = ("startup", "convergence", "noise", "disruption", "robustness")


def _str2bool(value: str) -> bool:
    lowered = value.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise argparse.ArgumentTypeError(f"expected True or False, got {value!r}")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="queuerl",
        description="Train, tune and evaluate routing agents on queueing networks.",
    )
    p.add_argument("--function", required=True, choices=("train", "tune", "evaluate"))
    p.add_argument("--config_file", required=True, help="network topology YAML")
    p.add_argument("--param_file", required=True, help="hyperparameter YAML")
    p.add_argument("--data_file", default="output_csv", help="directory for CSV outputs")
    p.add_argument("--image_file", default="output_plots", help="directory for plot-data CSVs")
    p.add_argument("--plot_curves", type=_str2bool, default=False)
    p.add_argument("--save_file", type=_str2bool, default=False)
    p.add_argument("--run_name", default=None, help="checkpoint name; defaults to a timestamp")
    p.add_argument("--evaluator", choices=EVALUATORS)
    p.add_argument("--agent_file", help="checkpoint to evaluate; trains a fresh agent if omitted")
    p.add_argument("--node", type=int, help="node to disrupt / plot transition probabilities for")
    p.add_argument("--window_size", type=int, default=5)
    p.add_argument("--threshold", type=float, default=0.01)
    p.add_argument("--consecutive_points", type=int, default=3)
    p.add_argument("--noise_mean", type=float, default=0.0)
    p.add_argument("--noise_variance", type=float, default=1.0)
    p.add_argument("--noise_frequency", type=float, default=0.5)
    p.add_argument("--noise_mode", choices=("evaluate", "retrain"), default="evaluate")
    p.add_argument("--num_agents", type=int, default=10)
    p.add_argument("--time_steps", type=int, default=50)
    p.add_argument("--z", type=float, default=1.96)
    p.add_argument("--margin", type=float, default=0.1)
    p.add_argument("--workers", type=int, default=1, help="parallel trainings in robustness")
    return p


def _get_agent(cfg: argparse.Namespace, env_config, params) -> DdpgAgent:
    if cfg.agent_file:
        return load_agent(cfg.agent_file)
    agent = make_agent(env_config, params)
    train_with_blockage_exploration(agent, env_config, params)
    return agent


def _run_train(cfg: argparse.Namespace, env_config, params) -> int:
    if cfg.node is not None:
        env_config.check_routed(cfg.node)  # before training
    agent = make_agent(env_config, params)
    tracker = StateTracker()
    trace = train_with_blockage_exploration(agent, env_config, params, tracker=tracker)

    reporting.write_training_csvs(trace, cfg.data_file, node=cfg.node)
    reporting.write_tracker_csvs(tracker, cfg.data_file)
    if cfg.plot_curves:
        reporting.write_plot_csvs(trace, cfg.image_file, node=cfg.node)
    if cfg.save_file:
        name = cfg.run_name or datetime.now().strftime("%Y%m%d_%H%M%S")
        Path(cfg.data_file).mkdir(parents=True, exist_ok=True)
        save_agent(agent, str(Path(cfg.data_file) / f"{name}.agent"))
    return 0


def _run_tune(cfg: argparse.Namespace, env_config, params, space) -> int:
    if space is None:
        raise ConfigError("tune needs at least one range or choice entry in the param file")
    results = random_search(space, env_config, params, seed=params.seed)
    reporting.write_tuning(results, cfg.data_file)
    return 0


def _run_evaluate(cfg: argparse.Namespace, env_config, params) -> int:
    if cfg.evaluator is None:
        raise ConfigError("--evaluator is required with --function evaluate")

    if cfg.evaluator == "startup":
        check_window(cfg.window_size, cfg.consecutive_points)  # before training
        check_burn_in_length(params.num_timesteps, cfg.window_size, cfg.consecutive_points)
        agent = make_agent(env_config, params)
        trace = train_with_blockage_exploration(agent, env_config, params)
        rewards = trace.episode_rewards[-1]
        report = detect_burn_in(rewards, cfg.window_size, cfg.threshold, cfg.consecutive_points)
        reporting.write_burn_in(report, rewards, cfg.data_file)
    elif cfg.evaluator == "convergence":
        report = convergence_train(params, env_config, cfg.window_size, cfg.threshold,
                                   cfg.consecutive_points)
        reporting.write_convergence(report, cfg.data_file)
    elif cfg.evaluator == "noise":
        noise = NoiseConfig(cfg.noise_mean, cfg.noise_variance, cfg.noise_frequency)
        noise.validate()  # before training an agent for it
        check_steps(cfg.time_steps)
        agent = _get_agent(cfg, env_config, params)
        report = evaluate_noise(agent, env_config, noise, mode=cfg.noise_mode,
                                timesteps=cfg.time_steps, seed=params.seed,
                                events_per_step=params.events_per_step)
        reporting.write_noise(report, cfg.data_file)
    elif cfg.evaluator == "disruption":
        if cfg.node is None:
            raise ConfigError("--node is required for the disruption evaluator")
        env_config.check_blockable(cfg.node)  # before training
        check_steps(cfg.time_steps)
        agent = _get_agent(cfg, env_config, params)
        report = evaluate_disruption(agent, env_config, cfg.node, steps=cfg.time_steps,
                                     seed=params.seed, events_per_step=params.events_per_step)
        reporting.write_disruption(report, cfg.data_file)
    else:
        report = robustness_evaluate(params, env_config, num_agents=cfg.num_agents,
                                     time_steps=cfg.time_steps, z=cfg.z, margin=cfg.margin,
                                     workers=cfg.workers)
        reporting.write_robustness(report, cfg.data_file)
    return 0


def _check_outputs(cfg: argparse.Namespace) -> None:
    """Raise ConfigError unless every output directory the command writes
    can be made, and --run_name is a plain file name: checked before
    anything trains, so no run is lost at its end."""
    dirs = [("--data_file", cfg.data_file)]
    if cfg.function == "train" and cfg.plot_curves:
        dirs.append(("--image_file", cfg.image_file))
    for flag, path in dirs:
        # the path, or its nearest existing ancestor, must be a directory
        existing = next(p for p in (Path(path), *Path(path).parents) if p.exists())
        if not existing.is_dir():
            raise ConfigError(f"{flag} {path}: {existing} exists and is not a directory")
    name = cfg.run_name
    if name is not None and Path(name).name != name:
        raise ConfigError(f"--run_name must be a plain file name, got {name!r}")


def run(cfg: argparse.Namespace) -> int:
    """Run one command; cfg holds the options of build_parser."""
    _check_outputs(cfg)
    env_config = parse_network_config(cfg.config_file)
    params, space = parse_hyperparams(cfg.param_file)
    if cfg.function == "train":
        return _run_train(cfg, env_config, params)
    if cfg.function == "tune":
        return _run_tune(cfg, env_config, params, space)
    return _run_evaluate(cfg, env_config, params)


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run(args)
    except QueueRlError as exc:
        print(f"error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
