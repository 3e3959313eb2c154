"""Ten-seed learning-quality study on hetero, to compare two checkouts.

Trains an agent at default AgentParams (except the seed and the episode
count) with blockage exploration, as the CLI's train does, on
tests/topologies.py::hetero_figure_topology, one run per seed. Per seed it
prints the score, the training seconds and a collapse flag, then the median,
quartiles and worst score over the seeds. A score is the per-step
evaluate_policy reward over 100 steps, averaged over eval seeds 0-4; a run
has collapsed when its score is below uniform routing's, -2.56.

The script takes the `src` directory to import queuerl from, so the same
script scores any checkout, for example a copy of a parent commit:

    python tests/precision_study.py --src src
    python tests/precision_study.py --src ../parent/src --seeds 0 1 --episodes 10

The file has no test_ prefix, so pytest does not collect it. At 50
episodes a seed trains for about 20 s on one core.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

UNIFORM_SCORE = -2.56  # uniform routing's score on hetero (-2.5592 on EVAL_SEEDS)
EVAL_SEEDS = range(5)
EVAL_STEPS = 100


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="the src directory that holds queuerl")
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(10)))
    parser.add_argument("--episodes", type=int, default=50)
    args = parser.parse_args(argv)
    sys.path[:0] = [str(Path(args.src).resolve()), str(Path(__file__).resolve().parent)]

    import numpy as np
    import queuerl
    from queuerl.agent import AgentParams, make_agent
    from queuerl.evaluation import evaluate_policy
    from queuerl.exploration import train_with_blockage_exploration
    from topologies import hetero_figure_topology

    config = hetero_figure_topology()
    print(f"# queuerl from {Path(queuerl.__file__).parent}, numpy {np.__version__}, "
          f"{args.episodes} episodes")
    print("| seed | score | train s | collapsed |")
    print("|---|---|---|---|")
    scores = []
    for seed in args.seeds:
        agent = make_agent(config, AgentParams(seed=seed, num_episodes=args.episodes))
        start = time.perf_counter()
        train_with_blockage_exploration(agent, config)
        train_s = time.perf_counter() - start
        score = statistics.fmean(
            evaluate_policy(agent, config, timesteps=EVAL_STEPS, seed=s) / EVAL_STEPS
            for s in EVAL_SEEDS)
        scores.append(score)
        print(f"| {seed} | {score:.3f} | {train_s:.1f} | "
              f"{'yes' if score < UNIFORM_SCORE else 'no'} |", flush=True)
    q1, median, q3 = (np.percentile(scores, [25, 50, 75]) if len(scores) > 1
                      else [scores[0]] * 3)
    collapsed = sum(s < UNIFORM_SCORE for s in scores)
    print(f"# dtype {agent.actor.params.dtype}: median {median:.3f} (q1 {q1:.3f}, q3 {q3:.3f}, "
          f"spread {q3 - q1:.3f}), worst {min(scores):.3f} at seed "
          f"{args.seeds[scores.index(min(scores))]}, collapsed {collapsed}/{len(scores)}")


if __name__ == "__main__":
    main()
