"""The benchmark's workloads, why each was chosen, and what its layers predict.

Every workload is a closed loop: one client in one thread, and each step
waits for the previous one. A run repeats one fixed unit of work (a *rep*)
until its time is up, so per-step costs that grow with run length (the
learner's buffer, the job log) are the same in every run and on every
machine. Reps of one run use the same inputs, so they must give bit-identical
rewards; the benchmark checks that.
"""

from __future__ import annotations

import hashlib
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from queuerl import agent, cli, config, evaluation, netsim, rl_env

WHY = {
    "train_figure": (
        "learner-bound: CLI train on the 11-node figure topology; fit_model and plan take "
        "about 70% of the time and netsim about 7%, and per-step cost grows with buffer size"
    ),
    "rollout_ff200": (
        "simulator-bound: frozen-policy rollout on feed_forward_topology(200), 1000 events a "
        "step; netsim's event loop dominates and the job log sets peak memory"
    ),
    "disrupt_figure": (
        "reward-bound: frozen policy on the figure topology with reward_skip 10 and a moving "
        "blockage; get_reward rescans the job log, so a log change shows its cost here"
    ),
}

# Which end-to-end metric each per-layer metric should move, and on which
# workload. On the workloads not named, the prediction is no change.
PREDICTIONS = {
    "train_figure": {
        "steps_per_s, step_ms_p90": [
            "agent.DdpgAgent.fit_model.self_s", "agent.DdpgAgent.fit_model.rows",
            "model.Adam.step.calls", "model.Adam.step.self_s",
            "model.Mlp.forward.self_s", "model.Mlp.backward.self_s",
            "buffer.ReplayBuffer.all_experiences.self_s", "buffer.ReplayBuffer.sample.self_s",
            "agent.DdpgAgent.plan.self_s", "agent.DdpgAgent.update_critic_network.self_s",
            "agent.DdpgAgent.update_actor_network.self_s",
        ],
        "setup_s, wall_s": [
            "config.parse_network_config.self_s", "config.parse_hyperparams.self_s",
            "reporting.write_training_csvs.self_s", "agent.save_agent.self_s",
        ],
    },
    "rollout_ff200": {
        "step_ms_p50, steps_per_s": [
            "netsim.QueueNetwork.simulate.self_s", "netsim.events_per_busy_s",
            "rl_env.RlEnv.action_to_transition_probas.self_s",
            "netsim.QueueNetwork.set_transition_map.self_s",
        ],
        # must not move disrupt_figure's final_eval_cost
        "peak_rss_mb": ["netsim.job_records"],
    },
    "disrupt_figure": {
        "step_ms_p90": [
            "rl_env.RlEnv.get_reward.self_s", "netsim.QueueNetwork.get_queue_data.self_s",
            # a small share: the prediction is no visible change
            "netsim.QueueNetwork.set_blockage.self_s", "netsim.QueueNetwork.clear_blockage.self_s",
            "netsim.jobs_in_queues_max",
        ],
    },
}

EVAL_SEED = 20250724  # fixed evaluation seed, the same for every workload seed
# The rolled-out policy is part of a rollout workload, not of its inputs: two
# random initial policies route jobs differently enough to change the cost of
# a step by a quarter. The workload seed drives the traffic instead.
POLICY_SEED = 20250725


@dataclass
class RepOutcome:
    steps: int
    digest: str  # hash of what the rep produced; identical reps must agree
    failed_steps: int = 0
    problems: list[str] = field(default_factory=list)


def _seed_stream(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([seed, int.from_bytes(name.encode(), "little") % 2**32])


def _reward_digest(rewards: list[float]) -> str:
    return hashlib.sha256(np.asarray(rewards, dtype="<f8").tobytes()).hexdigest()[:16]


# -- train_figure -------------------------------------------------------------------


class TrainFigure:
    """CLI ``train`` on the figure topology, called in-process.

    Default AgentParams (w1 = w2 = 0.5, events_per_step 100, reward_skip 0)
    except ``num_episodes``: 5 episodes of 30 steps keep one training under
    a second, so a run holds dozens and each is scaled by host speed
    measured close to it.
    """

    name = "train_figure"
    EPISODES = {"full": 5, "smoke": 2}
    TIMESTEPS = {"full": 30, "smoke": 20}
    EVAL_STEPS = {"full": 100, "smoke": 10}

    def __init__(self, inputs: dict):
        self.inputs = inputs
        self.out_dir = Path(inputs["workdir"]) / "out"
        self.argv = [
            "--function", "train",
            "--config_file", inputs["config_file"],
            "--param_file", inputs["param_file"],
            "--data_file", str(self.out_dir),
            "--save_file", "True",
            "--run_name", "bench",
        ]
        self.steps = inputs["episodes"] * inputs["timesteps"]

    @classmethod
    def prepare(cls, workdir: Path, seed: int, size: str) -> dict:
        config_file = workdir / "network.yml"
        param_file = workdir / "params.yml"
        config.write_network_config(netsim.figure_topology(), str(config_file))
        episodes, timesteps = cls.EPISODES[size], cls.TIMESTEPS[size]
        param_file.write_text(
            f"seed: {int(_seed_stream(seed, cls.name).integers(2**31))}\n"
            f"num_episodes: {episodes}\nnum_timesteps: {timesteps}\n"
            "w1: 0.5\nw2: 0.5\nevents_per_step: 100\nreward_skip: 0\n"
        )
        return {"config_file": str(config_file), "param_file": str(param_file),
                "episodes": episodes, "timesteps": timesteps,
                "eval_steps": cls.EVAL_STEPS[size]}

    def before_rep(self) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def rep(self) -> RepOutcome:
        code = cli.main(self.argv)
        if code != 0:
            return RepOutcome(self.steps, "", self.steps, [f"cli exit code {code}"])
        return RepOutcome(self.steps, "")

    def check_rep(self, outcome: RepOutcome) -> None:
        """Outputs exist, rewards are finite and the checkpoint reloads."""
        expected = ["reward.csv", "avg_reward.csv", "losses.csv", "episode_modes.csv",
                    "transition_proba.csv", "tracker_key_states.csv",
                    "tracker_peripheral_states.csv", "bench.agent"]
        missing = [f for f in expected if not (self.out_dir / f).is_file()]
        if missing:
            outcome.problems.append(f"missing outputs {missing}")
            outcome.failed_steps = outcome.steps
            return
        rows = (self.out_dir / "reward.csv").read_text().splitlines()[1:]
        rewards = [float(line.rsplit(",", 1)[1]) for line in rows]
        if len(rewards) != self.steps:
            outcome.problems.append(f"reward.csv has {len(rewards)} rows, expected {self.steps}")
            outcome.failed_steps = outcome.steps
            return
        bad = sum(not math.isfinite(r) for r in rewards)
        if bad:
            outcome.problems.append(f"{bad} non-finite rewards")
            outcome.failed_steps += bad
        checkpoint = (self.out_dir / "bench.agent").read_bytes()
        try:
            agent.load_agent(str(self.out_dir / "bench.agent"))
        except Exception as exc:  # any failure to reload is a failed output
            outcome.problems.append(f"checkpoint does not reload: {exc!r}")
            outcome.failed_steps = outcome.steps
        outcome.digest = (_reward_digest(rewards) + "/"
                          + hashlib.sha256(checkpoint).hexdigest()[:16])

    def final_eval(self) -> float:
        policy = agent.load_agent(str(self.out_dir / "bench.agent"))
        topology = config.parse_network_config(self.inputs["config_file"])
        return evaluation.evaluate_policy(policy, topology, timesteps=self.inputs["eval_steps"],
                                          seed=EVAL_SEED, events_per_step=100, reward_skip=0)


# -- rollouts -------------------------------------------------------------------------


class _Rollout:
    """A frozen DdpgAgent, seeded with POLICY_SEED, rolled out step by step
    with no learning. The workload seed gives the simulator seed and the
    blockage order."""

    name = ""
    EVENTS_PER_STEP = 0
    REWARD_SKIP = 0
    STEPS = {"full": 0, "smoke": 0}
    EVAL_STEPS = {"full": 0, "smoke": 0}

    @classmethod
    def prepare(cls, workdir: Path, seed: int, size: str) -> dict:
        draws = _seed_stream(seed, cls.name).integers(2**31, size=2)
        return {"agent_seed": POLICY_SEED, "sim_seed": int(draws[0]),
                "order_seed": int(draws[1]), "steps": cls.STEPS[size],
                "eval_steps": cls.EVAL_STEPS[size]}

    def __init__(self, inputs: dict):
        self.inputs = inputs
        self.topology = self.make_topology()
        self.env = rl_env.RlEnv(self.topology, seed=inputs["sim_seed"],
                                events_per_step=self.EVENTS_PER_STEP,
                                reward_skip=self.REWARD_SKIP)
        self.policy = agent.DdpgAgent(self.env.state_dim, self.env.action_dim,
                                      agent.AgentParams(seed=inputs["agent_seed"]))

    def make_topology(self):
        raise NotImplementedError

    def before_step(self, step: int) -> None:
        """Hook for workloads that act on the network between steps."""

    def before_rep(self) -> None:
        pass

    def rep(self) -> RepOutcome:
        env, policy = self.env, self.policy
        state = env.reset(self.inputs["sim_seed"])
        rewards = []
        for step in range(self.inputs["steps"]):
            self.before_step(step)
            state = env.get_next_state(policy.select_action(state))
            rewards.append(env.get_reward())
        bad = sum(not math.isfinite(r) for r in rewards)
        return RepOutcome(len(rewards), _reward_digest(rewards), bad,
                          [f"{bad} non-finite rewards"] if bad else [])

    def check_rep(self, outcome: RepOutcome) -> None:
        pass

    def final_eval(self) -> float:
        return evaluation.evaluate_policy(
            self.policy, self.topology, timesteps=self.inputs["eval_steps"], seed=EVAL_SEED,
            events_per_step=self.EVENTS_PER_STEP, reward_skip=self.REWARD_SKIP)


class RolloutFf200(_Rollout):
    """``feed_forward_topology(200)`` (391 serviced edges), 1000 events a step."""

    name = "rollout_ff200"
    EVENTS_PER_STEP = 1000
    STEPS = {"full": 200, "smoke": 10}
    EVAL_STEPS = {"full": 50, "smoke": 5}

    def make_topology(self):
        return netsim.feed_forward_topology(200)


class DisruptFigure(_Rollout):
    """Figure topology, reward_skip 10, and a blockage that moves every
    BLOCK_EVERY steps through ``blockable_nodes()`` in a seeded order."""

    name = "disrupt_figure"
    EVENTS_PER_STEP = 100
    REWARD_SKIP = 10
    BLOCK_EVERY = 10
    STEPS = {"full": 400, "smoke": 40}
    EVAL_STEPS = {"full": 100, "smoke": 10}

    def make_topology(self):
        return netsim.figure_topology()

    def before_rep(self) -> None:
        nodes = self.topology.blockable_nodes()
        order = np.random.default_rng(self.inputs["order_seed"]).permutation(len(nodes))
        self._order = [nodes[i] for i in order]
        self._blocked = None

    def before_step(self, step: int) -> None:
        if step % self.BLOCK_EVERY:
            return
        net = self.env.net
        if self._blocked is not None:
            net.clear_blockage(self._blocked)
        self._blocked = self._order[(step // self.BLOCK_EVERY) % len(self._order)]
        net.set_blockage(self._blocked)


WORKLOADS = {w.name: w for w in (TrainFigure, RolloutFf200, DisruptFigure)}
