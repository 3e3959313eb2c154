"""Dyna-DDPG agent.

Four networks: actor (state -> action weights), critic (state+action -> Q),
and two independent predictors for the next state and the reward, used to
hallucinate extra training experiences. The actor and critic keep target
copies blended in by soft updates.

Delay states are unbounded, so every network consumes log1p-compressed
states at its input boundary; the next-state predictor is trained in that
compressed space, and plan feeds its clipped predictions to the critic.

The networks compute in float32 (model.DTYPE). train compresses each state
once, and the replay buffer holds each transition as one float32 row
[phi(s), a, r, phi(s')] that begins with the critic's and predictors' input
x = [phi(s), a]; states, rewards and simulator routing stay float64.
"""

from __future__ import annotations

import json
import math
import numbers
import struct
import sys
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional, get_type_hints

import numpy as np

from .buffer import Batch, ReplayBuffer
from .errors import CheckpointError, ConfigError, DimensionMismatch, InsufficientBuffer
from .model import DTYPE, Adam, Mlp, param_count
from .netsim import RoutingLayout, TopologyConfig

_PHI_CLIP = 30.0  # upper bound on a predicted compressed state value

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
            # a smaller buffer never holds a batch, so no update would run
            (self.batch_size <= self.buffer_capacity, "batch_size must be <= buffer_capacity"),
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
    # one row per updating timestep: (actor, critic, next_state, reward);
    # with planning_steps 0 the predictors are not fitted and their two
    # columns are NaN
    step_losses: list[tuple[float, float, float, float]] = field(default_factory=list)

    def avg_reward_per_episode(self) -> list[float]:
        return [sum(r) / len(r) for r in self.episode_rewards]


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
        check_params(params, state_dim, action_dim)
        self.state_dim = state_dim
        self.action_dim = action_dim
        self.params = params
        self.rng = np.random.default_rng(params.seed)
        sizes = _layer_sizes(state_dim, action_dim, params.hidden_sizes)

        self.actor = Mlp(sizes["actor"], "sigmoid", self.rng)
        self.critic = Mlp(sizes["critic"], "identity", self.rng)
        self.target_actor = self.actor.copy()
        self.target_critic = self.critic.copy()
        self.next_state_model = Mlp(sizes["next_state_model"], "identity", self.rng)
        self.reward_model = Mlp(sizes["reward_model"], "identity", self.rng)

        lr = params.learning_rate
        self.actor_opt = Adam(self.actor, lr)
        self.critic_opt = Adam(self.critic, lr)
        self.next_state_opt = Adam(self.next_state_model, lr)
        self.reward_opt = Adam(self.reward_model, lr)

        self.buffer = ReplayBuffer(params.buffer_capacity, state_dim, action_dim)
        self.update_counter = 0

    def named_networks(self) -> dict[str, Mlp]:
        return {name: getattr(self, name) for name in _NET_ORDER}

    @staticmethod
    def _phi(states: np.ndarray) -> np.ndarray:
        """log1p of the states clipped at 0, computed in the networks' dtype."""
        phi = np.maximum(states, 0.0, dtype=DTYPE)
        return np.log1p(phi, out=phi)

    # -- acting ----------------------------------------------------------------

    def select_action(self, state: np.ndarray) -> np.ndarray:
        state = np.asarray(state, dtype=float)
        if state.shape != (self.state_dim,):
            raise DimensionMismatch(f"state has shape {state.shape}, expected ({self.state_dim},)")
        return self.actor.forward(self._phi(state))

    def _explore(self, actions: np.ndarray) -> np.ndarray:
        """actions plus N(0, epsilon) noise from self.rng, clipped to [0, 1]."""
        eps = self.params.epsilon
        if eps > 0:
            actions = actions + self.rng.normal(0.0, eps, size=actions.shape)
        return np.clip(actions, 0.0, 1.0)

    # -- updates ----------------------------------------------------------------

    def update_critic_network(self, batch: Batch) -> float:
        """One critic regression step towards r + discount * Q'(s') on a
        batch (x, r, phi(s')) as ReplayBuffer.columns splits it, where x is
        the critic's input [phi(s), a]."""
        x, r, phi_s2 = batch
        a2 = self.target_actor.forward(phi_s2)
        q2 = self.target_critic.forward(np.concatenate([phi_s2, a2], axis=1))[:, 0]
        y = r + float(self.params.discount) * q2
        return _regress(self.critic, self.critic_opt, x, y[:, None])

    def update_actor_network(self, phi_s: np.ndarray, actions: np.ndarray) -> float:
        """One ascent step on mean Q over the rows phi_s; returns the loss -mean(Q).

        The applied gradient also carries the anti-saturation pull
        (_ACTOR_PREACT_PULL) on the actor's output pre-activations.
        actions must be the array the actor's last forward returned on phi_s
        with its current parameters; a critic update in between changes
        neither those parameters nor that forward's cache.
        """
        if actions is not self.actor._cache_out:
            raise RuntimeError("actions must be the actor's last forward output")
        q = self.critic.forward(np.concatenate([phi_s, actions], axis=1))[:, 0]
        loss = float(-(q.sum() / q.size))

        n = len(phi_s)
        dq = np.full((n, 1), -1.0 / n, dtype=DTYPE)
        dx = self.critic.input_gradient(dq)  # the critic is only a conduit here
        z = np.log(actions / (1.0 - actions))  # output pre-activations (sigmoid inverse)
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
            raise InsufficientBuffer("fit_model needs at least one experience")
        stored = self.buffer.stored()
        n = len(stored)
        bs = min(self.params.batch_size, n)
        ns_loss = reward_loss = 0.0
        for _ in range(self.params.num_epochs):
            # one gather of the rows per epoch; each minibatch is then a slice
            x_ep, r_ep, y_next_ep = self.buffer.columns(stored[self.rng.permutation(n)])
            y_reward_ep = r_ep[:, None]
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

        Returns (critic loss, actor loss) per planning step. The predicted
        next states are compressed rows, which the critic update takes clipped
        to [0, _PHI_CLIP]. Hallucinated experiences never enter the buffer.
        """
        p = self.params
        if self.buffer.size < p.batch_size:
            raise InsufficientBuffer(
                f"planning needs {p.batch_size} stored experiences, have {self.buffer.size}"
            )
        losses = []
        for _ in range(p.planning_steps):
            phi_s = self.buffer.sample_states(p.num_samples, self.rng)
            policy_actions = self.actor.forward(phi_s)
            actions = self._explore(policy_actions).astype(DTYPE, copy=False)

            x = np.concatenate([phi_s, actions], axis=1)
            rewards = self.reward_model.forward(x)[:, 0]
            phi_next = np.clip(self.next_state_model.forward(x), 0.0, _PHI_CLIP)
            closs = self.update_critic_network((x, rewards, phi_next))
            aloss = self.update_actor_network(phi_s, policy_actions)
            losses.append((closs, aloss))
        return losses

    # -- training loop -----------------------------------------------------------

    def train(self, env, choose_blocked_node: Optional[Callable[[], Optional[int]]] = None,
              tracker=None, num_episodes: Optional[int] = None,
              episode_seed: Optional[int] = None) -> TrainingTrace:
        """Run the full Dyna-DDPG loop against an RlEnv.

        choose_blocked_node, when given, is called once per episode and
        returns a node to block in the freshly reset environment before the
        first step, or None for a normal start; the episode is labelled
        blocked:<node> or normal. The tracker, when given, records the
        (state, reward) visits of blocked episodes. num_episodes and
        episode_seed override the params so callers can train in chunks.
        """
        p = self.params
        trace = TrainingTrace()
        episode_seeds = np.random.default_rng(p.seed if episode_seed is None else episode_seed)
        for _ in range(p.num_episodes if num_episodes is None else num_episodes):
            ep_seed = int(episode_seeds.integers(0, 2**63 - 1))
            blocked_node = choose_blocked_node() if choose_blocked_node is not None else None
            state = env.reset(ep_seed)
            phi_state = self._phi(state)
            if blocked_node is not None:
                env.net.set_blockage(blocked_node)

            rewards: list[float] = []
            weights = np.empty((p.num_timesteps, self.action_dim))
            for t in range(p.num_timesteps):
                action = self._explore(self.actor.forward(phi_state))
                next_state = env.get_next_state(action)
                phi_next = self._phi(next_state)
                weights[t] = action
                reward = env.get_reward()
                rewards.append(reward)
                self.buffer.push(phi_state, action, reward, phi_next)
                if tracker is not None and blocked_node is not None:
                    tracker.record_visit(state, reward)

                if self.buffer.size >= p.batch_size:
                    batch = self.buffer.sample(p.batch_size, self.rng)
                    phi_s = batch[0][:, : self.state_dim]
                    policy_actions = self.actor.forward(phi_s)
                    critic_loss = self.update_critic_network(batch)
                    actor_loss = self.update_actor_network(phi_s, policy_actions)
                    trace.critic_losses.append(critic_loss)
                    trace.actor_losses.append(actor_loss)
                    self.update_counter += 1
                    if self.update_counter % p.target_update_frequency == 0:
                        self.soft_update_targets()
                    # without planning nothing reads the predictors, so they are not fitted
                    ns_loss = r_loss = math.nan
                    if p.planning_steps:
                        ns_loss, r_loss = self.fit_model()
                    trace.step_losses.append((actor_loss, critic_loss, ns_loss, r_loss))
                    for closs, aloss in self.plan():
                        trace.critic_losses.append(closs)
                        trace.actor_losses.append(aloss)
                state, phi_state = next_state, phi_next

            trace.episode_rewards.append(rewards)
            trace.episode_modes.append(
                "normal" if blocked_node is None else f"blocked:{blocked_node}")
            trace.episode_weights.append(weights)
            trace.routing_layout = env.net.routing_layout
        return trace


def check_params(params: AgentParams, state_dim: int, action_dim: int) -> None:
    """params.validate(), then ConfigError if an array that an agent sizes
    from params would hold more than sys.maxsize bytes, which numpy cannot
    allocate: a network's weights, an episode's routing weights or, with
    planning, a planning step's widest batch."""
    params.validate()
    sizes = _layer_sizes(state_dim, action_dim, params.hidden_sizes).values()
    widest = max(map(max, sizes))
    counts = {"hidden_sizes": max(map(param_count, sizes)),
              "num_timesteps": params.num_timesteps * action_dim,
              "num_samples": params.num_samples * widest if params.planning_steps else 0}
    for name, count in counts.items():
        if 8 * count > sys.maxsize:
            raise ConfigError(f"{name} {getattr(params, name)} sizes an array of {8 * count} "
                              f"bytes; numpy allocates at most {sys.maxsize}")


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
# The networks hold float32, so saving upcasts each weight exactly and a
# save-load round trip gives back the same bits. Loading rounds each stored
# float64 to the nearest float32: a file written when the networks were
# float64 loads with its weights rounded, and a finite stored weight beyond
# float32's range raises CheckpointError rather than turning into inf.
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


def _layer_sizes(state_dim: int, action_dim: int, hidden_sizes) -> dict[str, list[int]]:
    """Each network's layer sizes, by name in _NET_ORDER."""
    hs, pair = list(hidden_sizes), state_dim + action_dim
    actor, critic = [state_dim, *hs, action_dim], [pair, *hs, 1]
    return dict(zip(_NET_ORDER, (actor, critic, actor, critic, [pair, *hs, state_dim], critic)))


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
        for net in nets.values():
            fh.write(net.params.astype("<f8", copy=False).tobytes())


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
        params = AgentParams(**raw_params)
        params.validate()
        # the weights' size, checked before any network is allocated
        sizes = _layer_sizes(header["state_dim"], header["action_dim"], params.hidden_sizes)
        nbytes = 8 * sum(map(param_count, sizes.values()))
        if len(data) - off - header_len != nbytes:
            raise CheckpointError(f"checkpoint holds {len(data) - off - header_len} bytes of "
                                  f"weights; its header implies {nbytes}")
        agent = DdpgAgent(header["state_dim"], header["action_dim"], params)
        nets = agent.named_networks()
        for name, net in nets.items():
            meta = header["networks"][name]
            if meta["layer_sizes"] != net.layer_sizes:
                raise CheckpointError(
                    f"{name} layer sizes {meta['layer_sizes']} do not match {net.layer_sizes}"
                )
            if meta["output_activation"] != net.output_activation:
                raise CheckpointError(f"{name} output activation mismatch")
    except (KeyError, TypeError, ValueError, ConfigError) as exc:
        raise CheckpointError(f"corrupt checkpoint header: {exc!r}") from exc
    off += header_len

    limit = np.finfo(DTYPE).max
    for name, net in nets.items():
        stored = np.frombuffer(data, dtype="<f8", count=net.params.size, offset=off)
        # NaN and inf pass: they have float32 forms
        if np.any(np.isfinite(stored) & (np.abs(stored) > limit)):
            raise CheckpointError(f"{name} holds a weight beyond float32's range (+-{limit:.4g})")
        net.params[...] = stored
        off += stored.nbytes
    return agent
