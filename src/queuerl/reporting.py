"""CSV and summary emission for training traces and evaluation reports.

Plots are emitted as data files, one per figure, so any external plotter
can render them; columns mirror the figure axes.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

from .agent import TrainingTrace
from .errors import UnknownNode
from .evaluation import (
    BurnInReport,
    ConvergenceReport,
    DisruptionReport,
    NoiseReport,
    RobustnessReport,
)
from .exploration import StateTracker
from .netsim import RoutingLayout


def write_csv(path, header: list[str], rows) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_summary(path, payload: dict) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def default_plot_node(layout: RoutingLayout) -> int:
    """First node with more than one successor, else the first node."""
    branching = [n for n, succs in zip(layout.nodes, layout.successors) if len(succs) > 1]
    return min(branching or layout.nodes)


# -- training outputs -----------------------------------------------------------


def _write_transition_csv(path, trace: TrainingTrace, node: int | None) -> None:
    """Per-timestep routing probabilities out of one node (by default the
    first branching node); writes nothing for an empty trace. A node with no
    routing row raises UnknownNode."""
    layout = trace.routing_layout
    if layout is None:
        return
    node = default_plot_node(layout) if node is None else node
    if node not in layout.nodes:
        raise UnknownNode(f"node {node} has no routing row to report")
    row = layout.nodes.index(node)
    probs = [layout.row_probabilities(w, row)
             for weights in trace.episode_weights for w in weights]
    write_csv(path, ["timestep"] + [f"to_node_{s}" for s in layout.successors[row]],
              [(t, *p) for t, p in enumerate(probs)])


def write_training_csvs(trace: TrainingTrace, out_dir, node: int | None = None) -> None:
    out = Path(out_dir)
    write_csv(
        out / "reward.csv",
        ["episode", "timestep", "reward"],
        [
            (ep, t, r)
            for ep, rewards in enumerate(trace.episode_rewards)
            for t, r in enumerate(rewards)
        ],
    )
    write_csv(
        out / "avg_reward.csv",
        ["episode", "avg_reward"],
        list(enumerate(trace.avg_reward_per_episode())),
    )
    write_csv(
        out / "losses.csv",
        ["update_index", "actor_loss", "critic_loss", "next_state_loss", "reward_loss"],
        [(i, a, c, n, r) for i, (a, c, n, r) in enumerate(trace.step_losses)],
    )
    write_csv(
        out / "episode_modes.csv",
        ["episode", "start_mode"],
        list(enumerate(trace.episode_modes)),
    )
    _write_transition_csv(out / "transition_proba.csv", trace, node)


def write_plot_csvs(trace: TrainingTrace, image_dir, node: int | None = None) -> None:
    """Data files mirroring the per-figure training plots."""
    out = Path(image_dir)
    _write_transition_csv(out / "plot_transition_proba.csv", trace, node)
    last_rewards = trace.episode_rewards[-1] if trace.episode_rewards else []
    write_csv(out / "plot_reward.csv", ["timestep", "reward"], list(enumerate(last_rewards)))
    write_csv(
        out / "plot_average_reward_episode.csv",
        ["episode", "avg_reward"],
        list(enumerate(trace.avg_reward_per_episode())),
    )
    write_csv(out / "plot_actor_loss.csv", ["update_index", "actor_loss"],
              list(enumerate(trace.actor_losses)))
    write_csv(out / "plot_critic_loss.csv", ["update_index", "critic_loss"],
              list(enumerate(trace.critic_losses)))
    write_csv(out / "plot_reward_model_loss.csv", ["fit_index", "reward_model_loss"],
              [(i, row[3]) for i, row in enumerate(trace.step_losses)])
    write_csv(out / "plot_next_state_model_loss.csv", ["fit_index", "next_state_model_loss"],
              [(i, row[2]) for i, row in enumerate(trace.step_losses)])


def write_tracker_csvs(tracker: StateTracker, out_dir) -> None:
    out = Path(out_dir)
    dim = len(tracker.key_states[0][0]) if tracker.key_states else 0
    write_csv(
        out / "tracker_key_states.csv",
        ["rank", "reward"] + [f"state_{i}" for i in range(dim)],
        [(i, reward, *state) for i, (state, reward) in enumerate(tracker.key_states)],
    )
    dim_p = len(next(iter(tracker.peripheral_states), ()))
    write_csv(
        out / "tracker_peripheral_states.csv",
        [f"sig_{i}" for i in range(dim_p)] + ["visits"],
        [(*sig, count) for sig, count in sorted(tracker.peripheral_states.items())],
    )


# -- evaluator outputs ------------------------------------------------------------


def write_burn_in(report: BurnInReport, rewards: list[float], out_dir) -> None:
    out = Path(out_dir)
    w = report.window_size
    rows = []
    for i, r in enumerate(rewards):
        smoothed = report.smoothed_curve[i - w + 1] if i >= w - 1 else ""
        deriv_idx = i - w + 1
        deriv = (
            report.derivative_curve[deriv_idx]
            if 0 <= deriv_idx < len(report.derivative_curve)
            else ""
        )
        rows.append((i, r, smoothed, deriv))
    write_csv(out / "burn_in.csv", ["index", "reward", "smoothed", "derivative"], rows)
    write_summary(
        out / "burn_in_summary.json",
        {
            "stabilization_index": report.stabilization_index,
            "window_size": report.window_size,
            "threshold": report.threshold,
            "consecutive_points": report.consecutive_points,
        },
    )


def write_convergence(report: ConvergenceReport, out_dir) -> None:
    out = Path(out_dir)
    write_csv(out / "convergence.csv", ["episode", "eval_reward"], report.evaluations)
    write_summary(
        out / "convergence_summary.json",
        {"stop_reason": report.stop_reason, "episodes_trained": report.episodes_trained},
    )


def write_noise(report: NoiseReport, out_dir) -> None:
    out = Path(out_dir)
    rows = [
        (i, s, n)
        for i, (s, n) in enumerate(zip(report.standard_series, report.noisy_series))
    ]
    write_csv(out / "noise.csv", ["step", "standard_throughput", "noisy_throughput"], rows)
    n = len(report.noisy_series)
    slope = 0.0
    if n >= 2:
        xbar = (n - 1) / 2
        ybar = sum(report.noisy_series) / n
        num = sum((i - xbar) * (y - ybar) for i, y in enumerate(report.noisy_series))
        den = sum((i - xbar) ** 2 for i in range(n))
        slope = num / den
    write_summary(
        out / "noise_summary.json",
        {
            "mode": report.mode,
            "noisy_slope": slope,
            "final_standard": report.standard_series[-1] if report.standard_series else None,
            "final_noisy": report.noisy_series[-1] if report.noisy_series else None,
        },
    )


def write_disruption(report: DisruptionReport, out_dir) -> None:
    out = Path(out_dir)
    rows = [
        (node, succ, report.pre_probas[node][succ], report.post_probas[node][succ])
        for node in sorted(report.pre_probas)
        for succ in sorted(report.pre_probas[node])
    ]
    write_csv(out / "disruption.csv", ["node", "successor", "pre_proba", "post_proba"], rows)
    write_summary(
        out / "disruption_summary.json",
        {
            "affected_node": report.affected_node,
            "pre_throughput": report.pre_throughput,
            "post_throughput": report.post_throughput,
        },
    )


def write_robustness(report: RobustnessReport, out_dir) -> None:
    out = Path(out_dir)
    entries = sorted(report.entry_std)
    header = (
        ["row", "agent_index", "sigma", "required_runs"]
        + [f"p_{node}_{succ}" for node, succ in entries]
    )
    rows = []
    for i, tmap in enumerate(report.per_agent_final_probas):
        rows.append(["agent", i, "", ""] + [tmap[node][succ] for node, succ in entries])
    rows.append(
        ["summary", "", report.sigma, report.required_runs]
        + [report.entry_std[e] for e in entries]
    )
    write_csv(out / "robustness.csv", header, rows)
    write_summary(
        out / "robustness_summary.json",
        {
            "sigma": report.sigma,
            "z": report.z,
            "margin": report.margin,
            "required_runs": report.required_runs,
            "num_agents": len(report.per_agent_final_probas),
            "agent_seeds": report.agent_seeds,
        },
    )


def write_tuning(results, out_dir) -> None:
    """Ranked trial table; one column per AgentParams field."""
    from dataclasses import asdict

    out = Path(out_dir)
    if not results:
        write_csv(out / "tuning_results.csv", ["rank", "objective", "trial_index"], [])
        return
    param_names = sorted(asdict(results[0].params))
    rows = []
    for rank, res in enumerate(results):
        d = asdict(res.params)
        d["hidden_sizes"] = "x".join(str(h) for h in d["hidden_sizes"])
        rows.append([rank, res.objective, res.trial_index] + [d[k] for k in param_names])
    write_csv(out / "tuning_results.csv",
              ["rank", "objective", "trial_index"] + param_names, rows)
    best = results[0]
    write_summary(
        out / "tuning_summary.json",
        {
            "best_objective": best.objective,
            "best_trial_index": best.trial_index,
            "trials": len(results),
        },
    )
