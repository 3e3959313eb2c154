"""Dyna-DDPG agent.

Four networks: actor (state -> action weights), critic (state+action -> Q),
and two independent predictors for the next state and the reward, used to
hallucinate extra training experiences. The actor and critic keep target
copies blended in by soft updates.

Delay states are unbounded, so every network consumes log1p-compressed
states at its input boundary; the next-state predictor is trained in that
compressed space and its predictions are mapped back with expm1.
"""

from __future__ import annotations

import json
import math
import numbers
import struct
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional, get_type_hints

import numpy as np

from .buffer import Batch, ReplayBuffer
from .errors import CheckpointError, ConfigError, DimensionMismatch, EmptyBuffer, InsufficientBuffer
from .model import Adam, Mlp
from .netsim import RoutingLayout, TopologyConfig

_PHI_CLIP = 30.0  # bound on predicted log-delays before expm1

# Routing weights are normalized per node, so scaling every weight leaves the
# policy unchanged; the critic can push the actor along that blind direction
# into sigmoid saturation, where gradients die. A weak pull on the output
# pre-activations keeps the actor responsive without noticeably biasing it.
_ACTOR_PREACT_PULL = 1e-2


@dataclass
class AgentParams:
    learning_rate: float = 1e-3
    num_epochs: int = 1
    batch_size: int = 32
    planning_steps: int = 2
    num_samples: int = 32
    num_episodes: int = 50
    num_timesteps: int = 30
    target_update_frequency: int = 10
    tau: float = 0.05
    discount: float = 0.9
    epsilon: float = 0.1
    w1: float = 0.5
    w2: float = 0.5
    buffer_capacity: int = 10000
    seed: int = 0
    hidden_sizes: tuple[int, ...] = (64, 64)
    events_per_step: int = 100
    reward_skip: int = 0

    def validate(self) -> None:
        """Raise ConfigError unless every field has its declared type and
        lies in its domain. Integer fields and hidden_sizes entries take any
        numbers.Integral (numpy integers too) and float fields any finite
        numbers.Real, but never a bool."""
        for name in sorted(INT_PARAM_FIELDS):
            if not _is_integer(getattr(self, name)):
                raise ConfigError(f"{name} must be an integer, got {getattr(self, name)!r}")
        for name in sorted(FLOAT_PARAM_FIELDS):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ConfigError(f"{name} must be a real number, got {value!r}")
            if not _is_finite(value):
                raise ConfigError(f"{name} must be finite")
        if not (isinstance(self.hidden_sizes, (tuple, list))
                and all(_is_integer(h) for h in self.hidden_sizes)):
            raise ConfigError(f"hidden_sizes must be integers, got {self.hidden_sizes!r}")
        checks = [
            (self.learning_rate > 0, "learning_rate must be > 0"),
            (self.num_epochs >= 1, "num_epochs must be >= 1"),
            (self.batch_size >= 1, "batch_size must be >= 1"),
            (self.planning_steps >= 0, "planning_steps must be >= 0"),
            (self.num_samples >= 1, "num_samples must be >= 1"),
            (self.num_episodes >= 1, "num_episodes must be >= 1"),
            (self.num_timesteps >= 1, "num_timesteps must be >= 1"),
            (self.target_update_frequency >= 1, "target_update_frequency must be >= 1"),
            (0.0 < self.tau <= 1.0, "tau must be in (0, 1]"),
            (0.0 <= self.discount < 1.0, "discount must be in [0, 1)"),
            (self.epsilon >= 0.0, "epsilon must be >= 0"),
            (self.w1 >= 0.0 and self.w2 >= 0.0, "w1 and w2 must be >= 0"),
            (self.w1 + self.w2 > 0.0, "w1 + w2 must be > 0"),
            (self.buffer_capacity >= 1, "buffer_capacity must be >= 1"),
            (len(self.hidden_sizes) >= 1 and all(h >= 1 for h in self.hidden_sizes),
             "hidden_sizes must be positive"),
            (self.events_per_step >= 1, "events_per_step must be >= 1"),
            (self.reward_skip >= 0, "reward_skip must be >= 0"),
            (self.seed >= 0, "seed must be >= 0"),
        ]
        for ok, msg in checks:
            if not ok:
                raise ConfigError(msg)


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_finite(value: numbers.Real) -> bool:
    """Whether value is a finite float; an int too large for one is not."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


_PARAM_TYPES = get_type_hints(AgentParams)
# the scalar AgentParams fields by type, for parsers that coerce raw values
INT_PARAM_FIELDS = frozenset(name for name, kind in _PARAM_TYPES.items() if kind is int)
FLOAT_PARAM_FIELDS = frozenset(name for name, kind in _PARAM_TYPES.items() if kind is float)


@dataclass
class TrainingTrace:
    """Everything a training run emits: rewards, losses, routing history."""

    episode_rewards: list[list[float]] = field(default_factory=list)
    episode_modes: list[str] = field(default_factory=list)
    # per episode, the routing weights installed at each step: (steps, action_dim)
    episode_weights: list[np.ndarray] = field(default_factory=list)
    # the layout that turned those weights into transition maps
    routing_layout: Optional[RoutingLayout] = None
    actor_losses: list[float] = field(default_factory=list)
    critic_losses: list[float] = field(default_factory=list)
    # one row per updating timestep: (actor, critic, next_state, reward)
    step_losses: list[tuple[float, float, float, float]] = field(default_factory=list)

    def avg_reward_per_episode(self) -> list[float]:
        return [sum(r) / len(r) for r in self.episode_rewards]

    def flat_tmaps(self) -> list[dict[int, dict[int, float]]]:
        """The transition map installed at each step, over all episodes."""
        if self.routing_layout is None:
            return []
        probs = self.routing_layout.probabilities(np.concatenate(self.episode_weights))
        return [self.routing_layout.transition_map(p) for p in probs]


def _regress(net: Mlp, opt: Adam, x: np.ndarray, y: np.ndarray) -> float:
    """One mean-squared-error step of net towards targets y (same shape as
    its output) on inputs x; returns the loss before the step."""
    err = net.forward(x) - y
    loss = float((err**2).sum() / err.size)
    net.backward((2.0 / err.size) * err)
    opt.step()
    return loss


class DdpgAgent:
    def __init__(self, state_dim: int, action_dim: int, params: AgentParams):
        params.validate()
        self.state_dim = state_dim
        self.action_dim = action_dim
        self.params = params
        self.rng = np.random.default_rng(params.seed)
        hs = list(params.hidden_sizes)

        self.actor = Mlp([state_dim] + hs + [action_dim], "sigmoid", self.rng)
        self.critic = Mlp([state_dim + action_dim] + hs + [1], "identity", self.rng)
        self.target_actor = self.actor.copy()
        self.target_critic = self.critic.copy()
        self.next_state_model = Mlp([state_dim + action_dim] + hs + [state_dim], "identity", self.rng)
        self.reward_model = Mlp([state_dim + action_dim] + hs + [1], "identity", self.rng)

        lr = params.learning_rate
        self.actor_opt = Adam(self.actor, lr)
        self.critic_opt = Adam(self.critic, lr)
        self.next_state_opt = Adam(self.next_state_model, lr)
        self.reward_opt = Adam(self.reward_model, lr)

        self.buffer = ReplayBuffer(params.buffer_capacity, state_dim, action_dim)
        self.update_counter = 0

    def named_networks(self) -> dict[str, Mlp]:
        return {
            "actor": self.actor,
            "critic": self.critic,
            "target_actor": self.target_actor,
            "target_critic": self.target_critic,
            "next_state_model": self.next_state_model,
            "reward_model": self.reward_model,
        }

    @staticmethod
    def _phi(states: np.ndarray) -> np.ndarray:
        return np.log1p(np.maximum(states, 0.0))

    # -- acting ----------------------------------------------------------------

    def select_action(self, state: np.ndarray) -> np.ndarray:
        state = np.asarray(state, dtype=float)
        if state.shape != (self.state_dim,):
            raise DimensionMismatch(f"state has shape {state.shape}, expected ({self.state_dim},)")
        return self.actor.forward(self._phi(state))

    def explore_action(
        self, state: np.ndarray, noise_scale: float, rng: Optional[np.random.Generator] = None
    ) -> np.ndarray:
        action = self.select_action(state)
        if noise_scale > 0:
            rng = self.rng if rng is None else rng
            action = action + rng.normal(0.0, noise_scale, size=action.shape)
        return np.clip(action, 0.0, 1.0)

    # -- updates ----------------------------------------------------------------

    def update_critic_network(self, batch: Batch) -> float:
        s, a, r, s2 = batch
        phi_s2 = self._phi(s2)
        a2 = self.target_actor.forward(phi_s2)
        q2 = self.target_critic.forward(np.concatenate([phi_s2, a2], axis=1))[:, 0]
        y = r + self.params.discount * q2
        x = np.concatenate([self._phi(s), a], axis=1)
        return _regress(self.critic, self.critic_opt, x, y[:, None])

    def update_actor_network(self, batch: Batch, actions: Optional[np.ndarray] = None) -> float:
        """One ascent step on mean Q(s, actor(s)); returns the loss -mean(Q).

        The applied gradient also carries the anti-saturation pull
        (_ACTOR_PREACT_PULL) on the actor's output pre-activations.
        actions, when given, must be the array the actor's last forward
        returned, on batch's states with the current parameters; that forward
        is then reused instead of run again.
        """
        phi_s = self._phi(batch[0])
        if actions is None:
            a = self.actor.forward(phi_s)
        elif actions is self.actor._cache_out:
            a = actions
        else:
            raise RuntimeError("actions must be the actor's last forward output")
        q = self.critic.forward(np.concatenate([phi_s, a], axis=1))[:, 0]
        loss = float(-(q.sum() / q.size))

        n = len(phi_s)
        dq = np.full((n, 1), -1.0 / n)
        dx = self.critic.input_gradient(dq)  # the critic is only a conduit here
        z = np.log(a / (1.0 - a))  # output pre-activations (sigmoid inverse)
        self.actor.backward(dx[:, self.state_dim :],
                            dout_pre=(2.0 * _ACTOR_PREACT_PULL / z.size) * z)
        self.actor_opt.step()
        return loss

    def soft_update_targets(self) -> None:
        tau = self.params.tau
        self.target_actor.blend_from(self.actor, tau)
        self.target_critic.blend_from(self.critic, tau)

    def fit_model(self) -> tuple[float, float]:
        """One fitting round of both predictors over the whole buffer."""
        if self.buffer.size == 0:
            raise EmptyBuffer("fit_model needs at least one experience")
        s, a, r, s2 = self.buffer.stored()
        x = np.concatenate([self._phi(s), a], axis=1)
        y_next = self._phi(s2)
        y_reward = r[:, None]

        n = len(r)
        bs = min(self.params.batch_size, n)
        ns_loss = reward_loss = 0.0
        for _ in range(self.params.num_epochs):
            # one gather per epoch; each minibatch is then a contiguous slice
            perm = self.rng.permutation(n)
            x_ep, y_next_ep, y_reward_ep = x[perm], y_next[perm], y_reward[perm]
            ns_batch, r_batch = [], []
            for start in range(0, n, bs):
                rows = slice(start, start + bs)
                xb = x_ep[rows]
                ns_batch.append(_regress(self.next_state_model, self.next_state_opt, xb,
                                         y_next_ep[rows]))
                r_batch.append(_regress(self.reward_model, self.reward_opt, xb,
                                        y_reward_ep[rows]))
            ns_loss = sum(ns_batch) / len(ns_batch)
            reward_loss = sum(r_batch) / len(r_batch)
        return ns_loss, reward_loss

    def plan(self) -> list[tuple[float, float]]:
        """Hallucinate experiences with the predictors and update on them.

        Returns (critic loss, actor loss) per planning step. Hallucinated
        experiences never enter the replay buffer.

        The actor update reuses the noise-free forward that picked the
        actions: the critic update in between changes neither the actor's
        parameters nor its forward cache, so a second forward on the same
        states would return the same array.
        """
        p = self.params
        if self.buffer.size < p.batch_size:
            raise InsufficientBuffer(
                f"planning needs {p.batch_size} stored experiences, have {self.buffer.size}"
            )
        losses = []
        for _ in range(p.planning_steps):
            states = self.buffer.sample_states(p.num_samples, self.rng)
            phi_s = self._phi(states)
            policy_actions = self.actor.forward(phi_s)
            actions = policy_actions
            if p.epsilon > 0:
                actions = actions + self.rng.normal(0.0, p.epsilon, size=actions.shape)
            actions = np.clip(actions, 0.0, 1.0)

            x = np.concatenate([phi_s, actions], axis=1)
            rewards = self.reward_model.forward(x)[:, 0]
            next_states = np.expm1(np.clip(self.next_state_model.forward(x), 0.0, _PHI_CLIP))

            batch = (states, actions, rewards, next_states)
            closs = self.update_critic_network(batch)
            aloss = self.update_actor_network(batch, actions=policy_actions)
            losses.append((closs, aloss))
        return losses

    # -- training loop -----------------------------------------------------------

    def train(self, env, start_mode_chooser: Optional[Callable[[], object]] = None,
              tracker=None, num_episodes: Optional[int] = None,
              episode_seed: Optional[int] = None) -> TrainingTrace:
        """Run the full Dyna-DDPG loop against an RlEnv.

        start_mode_chooser, when given, is called once per episode and may
        return a mode with a `node` attribute; a non-None node is blocked in
        the freshly reset environment before the first step. num_episodes
        and episode_seed override the params so callers can train in chunks.
        """
        p = self.params
        trace = TrainingTrace()
        episode_seeds = np.random.default_rng(p.seed if episode_seed is None else episode_seed)
        for _ in range(p.num_episodes if num_episodes is None else num_episodes):
            ep_seed = int(episode_seeds.integers(0, 2**63 - 1))
            mode = start_mode_chooser() if start_mode_chooser is not None else None
            blocked_node = getattr(mode, "node", None)
            state = env.reset(ep_seed)
            if blocked_node is not None:
                env.net.set_blockage(blocked_node)

            rewards: list[float] = []
            weights = np.empty((p.num_timesteps, self.action_dim))
            for t in range(p.num_timesteps):
                action = self.explore_action(state, p.epsilon)
                next_state = env.get_next_state(action)
                weights[t] = action
                reward = env.get_reward()
                rewards.append(reward)
                self.buffer.push(state, action, reward, next_state)
                if tracker is not None and blocked_node is not None:
                    tracker.record_visit(state, reward)

                if self.buffer.size >= p.batch_size:
                    batch = self.buffer.sample(p.batch_size, self.rng)
                    critic_loss = self.update_critic_network(batch)
                    actor_loss = self.update_actor_network(batch)
                    trace.critic_losses.append(critic_loss)
                    trace.actor_losses.append(actor_loss)
                    self.update_counter += 1
                    if self.update_counter % p.target_update_frequency == 0:
                        self.soft_update_targets()
                    ns_loss, r_loss = self.fit_model()
                    trace.step_losses.append((actor_loss, critic_loss, ns_loss, r_loss))
                    for closs, aloss in self.plan():
                        trace.critic_losses.append(closs)
                        trace.actor_losses.append(aloss)
                state = next_state

            trace.episode_rewards.append(rewards)
            trace.episode_modes.append("normal" if mode is None else str(mode))
            trace.episode_weights.append(weights)
            trace.routing_layout = env.net.routing_layout
        return trace


def make_agent(env_config: TopologyConfig, params: AgentParams) -> DdpgAgent:
    """A fresh agent for env_config: one state and one action entry per
    serviced edge, as in RlEnv."""
    dim = len(env_config.serviced_edges())
    return DdpgAgent(dim, dim, params)


# -- checkpointing ----------------------------------------------------------------
#
# A checkpoint is the 8-byte magic, two little-endian uint32s (version and
# header length), a JSON header with the agent's dimensions, params and each
# network's layer sizes, then each network's `params` vector as little-endian
# float64 in _NET_ORDER. A vector holds w0, b0, w1, b1, ... with each weight
# matrix row-major, so the file is the six vectors back to back.
#
# Checkpoints are for inference: they hold no Adam moments, replay buffer or
# RNG state, so training a loaded agent on is not the run that training
# straight through would have been. A loaded agent's optimizers allocate
# fresh zero moments at its first update, as a new agent's do, so an agent
# that is only rolled out holds no optimizer state.

_MAGIC = b"QRLAGENT"
_VERSION = 1
_PREAMBLE = struct.Struct("<II")
_NET_ORDER = ("actor", "critic", "target_actor", "target_critic", "next_state_model", "reward_model")


def save_agent(agent: DdpgAgent, path: str) -> None:
    """Write a versioned checkpoint (layout above)."""
    nets = agent.named_networks()
    header = {
        "version": _VERSION,
        "state_dim": agent.state_dim,
        "action_dim": agent.action_dim,
        "params": {**asdict(agent.params), "hidden_sizes": list(agent.params.hidden_sizes)},
        "networks": {
            name: {
                "layer_sizes": net.layer_sizes,
                "output_activation": net.output_activation,
            }
            for name, net in nets.items()
        },
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(_PREAMBLE.pack(_VERSION, len(blob)))
        fh.write(blob)
        for name in _NET_ORDER:
            fh.write(nets[name].params.astype("<f8", copy=False).tobytes())


def load_agent(path: str) -> DdpgAgent:
    """Rebuild an agent from a checkpoint. A malformed file, or one whose
    networks do not match its header, raises CheckpointError."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc.strerror or exc}") from exc
    if data[: len(_MAGIC)] != _MAGIC:
        raise CheckpointError(f"{path} is not an agent checkpoint")
    off = len(_MAGIC) + _PREAMBLE.size
    if len(data) < off:
        raise CheckpointError("checkpoint truncated in its preamble")
    version, header_len = _PREAMBLE.unpack_from(data, len(_MAGIC))
    if version != _VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    try:
        header = json.loads(data[off : off + header_len].decode("utf-8"))
        raw_params = dict(header["params"])
        raw_params["hidden_sizes"] = tuple(raw_params["hidden_sizes"])
        agent = DdpgAgent(header["state_dim"], header["action_dim"], AgentParams(**raw_params))
        nets = agent.named_networks()
        for name in _NET_ORDER:
            meta, net = header["networks"][name], nets[name]
            if meta["layer_sizes"] != net.layer_sizes:
                raise CheckpointError(
                    f"{name} layer sizes {meta['layer_sizes']} do not match {net.layer_sizes}"
                )
            if meta["output_activation"] != net.output_activation:
                raise CheckpointError(f"{name} output activation mismatch")
    except (KeyError, TypeError, ValueError, ConfigError) as exc:
        raise CheckpointError(f"corrupt checkpoint header: {exc!r}") from exc
    off += header_len

    for name in _NET_ORDER:
        params = nets[name].params
        if off + params.nbytes > len(data):
            raise CheckpointError("checkpoint truncated")
        params[...] = np.frombuffer(data, dtype="<f8", count=params.size, offset=off)
        off += params.nbytes
    if off != len(data):
        raise CheckpointError("checkpoint has trailing bytes")
    return agent
