"""Evaluators for trained agents and training traces.

Five views: burn-in detection on reward curves, convergence training with
early stopping, interarrival-noise robustness, disruption (blockage)
analysis, and multi-agent robustness with sample-size estimation.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, Optional

import numpy as np

from .agent import AgentParams, DdpgAgent, make_agent
from .errors import ConfigError, InsufficientData
from .exploration import rollout_env, train_with_blockage_exploration
from .netsim import TopologyConfig
from .rl_env import RlEnv

T_FLOOR = 1e-6  # smallest admissible interarrival gap after perturbation


# -- burn-in ---------------------------------------------------------------------


@dataclass
class BurnInReport:
    stabilization_index: Optional[int]
    smoothed_curve: list[float]
    derivative_curve: list[float]
    window_size: int
    threshold: float
    consecutive_points: int


def _trailing_ma(series: list[float], window: int) -> list[float]:
    """Trailing moving average of width window (at least 1); an entry with
    fewer than window points before it averages the points there are."""
    window = max(window, 1)
    out = []
    for k in range(len(series)):
        part = series[max(0, k - window + 1) : k + 1]
        out.append(sum(part) / len(part))
    return out


def check_smoothing(window_size: int, threshold: float, consecutive_points: int) -> None:
    """The smoothing rule of detect_burn_in and convergence_train: both
    widths must be at least 1, then the threshold finite and >= 0."""
    if window_size < 1 or consecutive_points < 1:
        raise ConfigError("window_size and consecutive_points must be >= 1")
    if not (math.isfinite(threshold) and threshold >= 0):
        raise ConfigError(f"threshold must be finite and >= 0, got {threshold}")


def check_burn_in_length(n: int, window_size: int, consecutive_points: int) -> None:
    """The length rule of detect_burn_in: a curve of n rewards needs at least
    window_size + consecutive_points of them; InsufficientData otherwise."""
    if n < window_size + consecutive_points:
        raise InsufficientData(
            f"need at least {window_size + consecutive_points} rewards, got {n}")


def detect_burn_in(
    rewards: list[float], window_size: int, threshold: float, consecutive_points: int
) -> BurnInReport:
    """Find where a reward curve stabilizes.

    A trailing moving average of width window_size smooths the curve; its
    first differences are scanned for the first run of consecutive_points
    entries below threshold in magnitude. The reported index refers to the
    original curve (the position of the first difference in the run, i.e.
    at least window_size - 1).
    """
    check_smoothing(window_size, threshold, consecutive_points)
    check_burn_in_length(len(rewards), window_size, consecutive_points)
    smoothed = _trailing_ma(rewards, window_size)[window_size - 1 :]
    derivative = [b - a for a, b in zip(smoothed, smoothed[1:])]

    idx = None
    run = 0
    for i, d in enumerate(derivative):
        run = run + 1 if abs(d) < threshold else 0
        if run >= consecutive_points:
            idx = (i - consecutive_points + 1) + window_size - 1
            break
    return BurnInReport(idx, smoothed, derivative, window_size, threshold, consecutive_points)


# -- shared rollout helpers --------------------------------------------------------


def check_steps(steps: int) -> None:
    """The rollout-length rule of every evaluator that rolls a policy out:
    at least one step."""
    if steps < 1:
        raise ConfigError(f"time_steps must be >= 1, got {steps}")


def _rollout(agent: DdpgAgent, env: RlEnv, steps: int) -> Iterator[np.ndarray]:
    """Step env `steps` times with the frozen (noise-free) policy, starting
    from its current state; yield each action after the env has stepped."""
    state = env.get_state()
    for _ in range(steps):
        action = agent.select_action(state)
        state = env.get_next_state(action)
        yield action


def _final_routing(agent: DdpgAgent, env: RlEnv, steps: int) -> dict[int, dict[int, float]]:
    """Routing map of the last action of a `steps`-step rollout (check_steps)."""
    for _ in _rollout(agent, env, steps):
        pass
    return env.net.transition_map


def evaluate_policy(
    agent: DdpgAgent,
    env_config: TopologyConfig,
    timesteps: int = 100,
    seed: int = 0,
    events_per_step: int = 100,
    reward_skip: int = 0,
) -> float:
    """Total reward of the frozen (noise-free) policy over a fresh rollout."""
    check_steps(timesteps)
    env = RlEnv(env_config, seed=seed, events_per_step=events_per_step, reward_skip=reward_skip)
    total = 0.0
    for _ in _rollout(agent, env, timesteps):
        total += env.get_reward()
    return total


def _throughput_rollout(agent: DdpgAgent, env: RlEnv, timesteps: int) -> list[float]:
    """Cumulative throughput rate (total exits / clock) after each step."""
    return [sum(env.net.exits_total.values()) / env.net.clock
            for _ in _rollout(agent, env, timesteps)]


# -- convergence -------------------------------------------------------------------


EVAL_INTERVAL = 10  # episodes between policy evaluations
EVAL_TIMESTEPS = 100


def score_policy(agent: DdpgAgent, env_config: TopologyConfig) -> float:
    """evaluate_policy over EVAL_TIMESTEPS steps, in an environment seeded
    and stepped as the agent's own training environment is."""
    p = agent.params
    return evaluate_policy(agent, env_config, timesteps=EVAL_TIMESTEPS, seed=p.seed,
                           events_per_step=p.events_per_step, reward_skip=p.reward_skip)


@dataclass
class ConvergenceReport:
    evaluations: list[tuple[int, float]]  # (episodes trained, total eval reward)
    stop_reason: str  # local_maximum | plateau | completed
    episodes_trained: int


def _tail_stop(series: list[float], threshold: float, consecutive_points: int) -> Optional[str]:
    """Stop reason if the last consecutive_points differences all decrease
    by more than threshold (local maximum) or all move less than threshold
    (plateau); None otherwise."""
    c = consecutive_points
    if len(series) < c + 1:
        return None
    diffs = [series[i + 1] - series[i] for i in range(len(series) - c - 1, len(series) - 1)]
    if all(d < -threshold for d in diffs):
        return "local_maximum"
    if all(abs(d) < threshold for d in diffs):
        return "plateau"
    return None


def convergence_train(
    agent_params: AgentParams,
    env_config: TopologyConfig,
    window_size: int = 1,
    threshold: float = 1.0,
    consecutive_points: int = 3,
) -> ConvergenceReport:
    """Train with periodic frozen-policy evaluations and early stopping.

    Every EVAL_INTERVAL episodes the policy runs EVAL_TIMESTEPS steps in a
    fresh identically-seeded env; its total reward extends the evaluation
    series. The series (smoothed by a trailing moving average of width
    window_size) stops training at the first local maximum or plateau.
    """
    check_smoothing(window_size, threshold, consecutive_points)
    env = rollout_env(env_config, agent_params, agent_params.seed)
    agent = make_agent(env_config, agent_params)

    evaluations: list[tuple[int, float]] = []
    series: list[float] = []
    episodes_done = 0
    reason = "completed"
    while episodes_done < agent_params.num_episodes:
        chunk = min(EVAL_INTERVAL, agent_params.num_episodes - episodes_done)
        agent.train(env, num_episodes=chunk, episode_seed=agent_params.seed + episodes_done)
        episodes_done += chunk
        score = score_policy(agent, env_config)
        evaluations.append((episodes_done, score))
        series.append(score)
        stop = _tail_stop(_trailing_ma(series, window_size), threshold, consecutive_points)
        if stop is not None:
            reason = stop
            break
    return ConvergenceReport(evaluations, reason, episodes_done)


# -- noise -------------------------------------------------------------------------


@dataclass
class NoiseConfig:
    mean: float = 0.0
    variance: float = 1.0
    frequency: float = 0.5

    def validate(self) -> None:
        if not math.isfinite(self.mean):
            raise ConfigError(f"noise mean must be finite, got {self.mean}")
        if not (math.isfinite(self.variance) and self.variance >= 0):
            raise ConfigError(f"noise variance must be finite and >= 0, got {self.variance}")
        if not 0.0 <= self.frequency <= 1.0:
            raise ConfigError("noise frequency must be in [0, 1]")


def noisy_interarrival(base: float, cfg: NoiseConfig, rng: random.Random) -> float:
    """Perturb an interarrival gap with probability cfg.frequency by a
    normal increment, floored at T_FLOOR."""
    if not base >= 0:
        raise ConfigError(f"base interarrival time must be >= 0, got {base}")
    if rng.random() >= cfg.frequency:
        return base
    delta = rng.gauss(cfg.mean, math.sqrt(cfg.variance))
    return max(base + delta, T_FLOOR)


def make_noise_hook(cfg: NoiseConfig, seed: int) -> Callable[[float], float]:
    """Interarrival transform with its own RNG, so zero-noise configs leave
    the network's random stream untouched."""
    cfg.validate()
    rng = random.Random(seed)
    return lambda base: noisy_interarrival(base, cfg, rng)


@dataclass
class NoiseReport:
    standard_series: list[float]
    noisy_series: list[float]
    mode: str


def evaluate_noise(
    agent: DdpgAgent,
    env_config: TopologyConfig,
    cfg: NoiseConfig,
    mode: str = "evaluate",
    timesteps: int = 100,
    seed: int = 0,
) -> NoiseReport:
    """Matched rollouts in a standard and a noise-perturbed environment,
    both seeded with seed and stepped at agent.params.events_per_step.

    mode "retrain" first trains the agent inside the noisy environment;
    mode "evaluate" uses the agent as-is.
    """
    cfg.validate()
    check_steps(timesteps)
    if mode not in ("evaluate", "retrain"):
        raise ConfigError(f"unknown noise mode {mode!r}")
    p = agent.params
    if mode == "retrain":
        agent.train(rollout_env(env_config, p, p.seed, make_noise_hook(cfg, p.seed + 1)))

    standard_env = rollout_env(env_config, p, seed)
    noisy_env = rollout_env(env_config, p, seed, make_noise_hook(cfg, seed + 1))
    return NoiseReport(
        standard_series=_throughput_rollout(agent, standard_env, timesteps),
        noisy_series=_throughput_rollout(agent, noisy_env, timesteps),
        mode=mode,
    )


# -- disruption --------------------------------------------------------------------


@dataclass
class DisruptionReport:
    pre_probas: dict[int, dict[int, float]]
    post_probas: dict[int, dict[int, float]]
    pre_throughput: float
    post_throughput: float
    affected_node: int


def evaluate_disruption(
    agent: DdpgAgent,
    env_config: TopologyConfig,
    node: int,
    steps: int = 50,
    seed: int = 0,
) -> DisruptionReport:
    """Roll out, block a node, roll out again; report routing and throughput
    snapshots from both phases. The environment is seeded with seed and
    stepped at agent.params.events_per_step."""
    env_config.check_blockable(node)
    check_steps(steps)

    env = rollout_env(env_config, agent.params, seed)
    pre_probas = _final_routing(agent, env, steps)
    pre_exits = sum(env.net.exits_total.values())
    pre_clock = env.net.clock
    pre_throughput = pre_exits / pre_clock

    env.net.set_blockage(node)
    post_probas = _final_routing(agent, env, steps)
    post_exits = sum(env.net.exits_total.values())
    post_throughput = (post_exits - pre_exits) / (env.net.clock - pre_clock)

    return DisruptionReport(pre_probas, post_probas, pre_throughput, post_throughput, node)


# -- robustness --------------------------------------------------------------------


@dataclass
class RobustnessReport:
    per_agent_final_probas: list[dict[int, dict[int, float]]]
    entry_std: dict[tuple[int, int], float]
    sigma: float
    z: float
    margin: float
    required_runs: int
    agent_seeds: list[int] = field(default_factory=list)


def required_runs(z: float, sigma: float, margin: float) -> int:
    """Sample size for a confidence level and error margin: the squared
    (z * sigma / margin), rounded up, never below one run; ConfigError if
    the square is not a finite float."""
    if not (math.isfinite(margin) and margin > 0):
        raise ConfigError(f"margin must be finite and > 0, got {margin}")
    if not (math.isfinite(sigma) and math.isfinite(z) and sigma >= 0 and z >= 0):
        raise ConfigError(f"sigma and z must be finite and >= 0, got sigma {sigma}, z {z}")
    try:  # ** overflows at a finite ratio, ceil at an infinite one
        return max(1, math.ceil((z * sigma / margin) ** 2))
    except OverflowError:
        raise ConfigError(f"(z * sigma / margin) ** 2 overflows at z {z}, "
                          f"margin {margin}") from None


def _train_and_snapshot(args) -> dict[int, dict[int, float]]:
    params, env_config, eval_seed, time_steps = args
    agent = make_agent(env_config, params)
    train_with_blockage_exploration(agent, env_config)
    return _final_routing(agent, rollout_env(env_config, params, eval_seed), time_steps)


def robustness_evaluate(
    agent_params: AgentParams,
    env_config: TopologyConfig,
    num_agents: int = 10,
    time_steps: int = 50,
    z: float = 1.96,
    margin: float = 0.1,
    workers: int = 1,
) -> RobustnessReport:
    """Train independent agents, replay them under identical initial
    conditions, and estimate how many runs the decision spread requires.

    sigma is the largest across-agent standard deviation over individual
    (node, successor) probabilities of the final transition maps.
    """
    if num_agents < 2:
        raise ConfigError("num_agents must be >= 2")
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    required_runs(z, 0.5, margin)  # before training, at the largest sigma in [0, 1]
    check_steps(time_steps)
    seeds = [agent_params.seed + i for i in range(num_agents)]
    eval_seed = agent_params.seed
    jobs = [
        (replace(agent_params, seed=s), env_config, eval_seed, time_steps) for s in seeds
    ]
    if workers > 1:
        # imported here: concurrent.futures pulls in multiprocessing, which
        # every other caller of this module would pay for at import
        from concurrent.futures import ProcessPoolExecutor

        # a forking pool starts every worker at once: no more than there are jobs
        with ProcessPoolExecutor(max_workers=min(workers, num_agents)) as pool:
            maps = list(pool.map(_train_and_snapshot, jobs))
    else:
        maps = [_train_and_snapshot(j) for j in jobs]

    entry_std: dict[tuple[int, int], float] = {}
    for node, row in maps[0].items():
        for succ in row:
            values = np.array([m[node][succ] for m in maps])
            entry_std[(node, succ)] = float(np.std(values))
    sigma = max(entry_std.values()) if entry_std else 0.0
    return RobustnessReport(
        per_agent_final_probas=maps,
        entry_std=entry_std,
        sigma=sigma,
        z=z,
        margin=margin,
        required_runs=required_runs(z, sigma, margin),
        agent_seeds=seeds,
    )
