"""queuerl benchmark: one workload per call, each in fresh child processes.

    python3 perfbench/run.py --workload train_figure --seed 1 --seconds 20 --trace 0

``--workload all`` runs every workload in turn. With ``--trace 0`` the last
line of standard output is a JSON object holding the end-to-end metrics;
with ``--trace 1`` it holds the per-layer metrics of a traced run. Lines
before it print every metric with its unit, and an ``info`` line with the
commit, versions, BLAS pin, seed, output digests and the final evaluation
reward. Each run also leaves ``result.json`` (and, when traced,
``spans.jsonl``) in ``perfbench/_runs/<workload>-<size>-trace<n>/``.

Every time it reports is scaled to a host of nominal speed by the reference
kernel in ``speed.py``, timed in the same process next to the work; ``info``
holds the raw medians and the scales too.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 5  # set-up is measured in this many fresh processes
CHILD_BUDGET_S = 170.0  # the whole call must end within 180 s
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "steps_per_s": "1/s",
    "step_ms_p50": "ms",
    "step_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "final_eval_cost": "sim_time",
}

PER_LAYER = {
    "agent.DdpgAgent.fit_model.self_s": "s",
    "agent.DdpgAgent.fit_model.rows": "count",
    "model.Adam.step.calls": "count",
    "model.Adam.step.self_s": "s",
    "model.Mlp.forward.self_s": "s",
    "model.Mlp.backward.self_s": "s",
    "buffer.ReplayBuffer.all_experiences.self_s": "s",
    "buffer.ReplayBuffer.sample.self_s": "s",
    "agent.DdpgAgent.plan.self_s": "s",
    "agent.DdpgAgent.update_critic_network.self_s": "s",
    "agent.DdpgAgent.update_actor_network.self_s": "s",
    "agent.DdpgAgent.select_action.self_s": "s",
    "netsim.QueueNetwork.simulate.self_s": "s",
    "netsim.QueueNetwork.simulate.calls": "count",
    "netsim.events_per_busy_s": "1/s",
    "rl_env.RlEnv.action_to_transition_probas.self_s": "s",
    "netsim.QueueNetwork.set_transition_map.self_s": "s",
    "rl_env.RlEnv.get_state.self_s": "s",
    "netsim.job_records": "count",
    "rl_env.RlEnv.get_reward.self_s": "s",
    "netsim.QueueNetwork.get_queue_data.self_s": "s",
    "netsim.QueueNetwork.set_blockage.self_s": "s",
    "netsim.QueueNetwork.clear_blockage.self_s": "s",
    "netsim.jobs_in_queues_max": "count",
    "config.parse_network_config.self_s": "s",
    "config.parse_hyperparams.self_s": "s",
    "reporting.write_training_csvs.self_s": "s",
    "agent.save_agent.self_s": "s",
    "trace.overhead_frac": "ratio",
}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1]


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _child_env() -> dict:
    env = dict(os.environ)
    env.update(BLAS_PIN)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _worker(args: list[str], timeout: float) -> subprocess.CompletedProcess | None:
    """Run worker.py to completion; None (after printing why) if it failed."""
    try:
        out = subprocess.run([sys.executable, str(HERE / "worker.py"), *args], env=_child_env(),
                             cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"perfbench: worker exceeded {timeout:.0f} s and was killed", file=sys.stderr)
        return None
    if out.returncode != 0:
        print(out.stderr, file=sys.stderr)
        return None
    return out


def run_workload(name: str, seed: int, seconds: float, trace: int, size: str) -> dict | None:
    import numpy
    import speed
    import workloads

    started = time.monotonic()
    workdir = HERE / "_runs" / f"{name}-{size}-trace{trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    inputs = {"workdir": str(workdir),
              **workloads.WORKLOADS[name].prepare(workdir, seed, size)}
    (workdir / "inputs.json").write_text(json.dumps(inputs, indent=1))
    common = ["--workload", name, "--inputs", str(workdir / "inputs.json")]

    setup_samples, setup_raw = [], []
    if not trace:
        for _ in range(SETUP_SAMPLES):
            out = _worker(["--role", "setup", *common], timeout=20)
            if out is None:
                return None
            sample = json.loads(out.stdout.strip().splitlines()[-1])
            setup_raw.append(sample["setup_s"])
            setup_samples.append(sample["setup_s"] * speed.NOMINAL_S / sample["kernel_s"])

    report_path = workdir / "child.json"
    budget = CHILD_BUDGET_S - (time.monotonic() - started)
    out = _worker(["--role", "run", *common, "--seconds", str(seconds), "--trace", str(trace),
                   "--report", str(report_path)], timeout=budget)
    if out is None:
        return None
    child = json.loads(report_path.read_text())

    if trace:
        layers = child.get("layers", {})
        metrics = {k: {"value": float(layers.get(k, 0.0)), "unit": u} for k, u in PER_LAYER.items()}
    else:
        walls = [w * s for w, s in zip(child["walls_s"], child["scales"])]
        steps = child["steps"]
        reps = [(ms, s) for ms, s in zip(child["step_ms"], child["scales"]) if ms]

        def step_ms(q: float) -> float:
            """Median over reps of a rep's q-th percentile step interval, scaled."""
            return statistics.median(percentile(ms, q) * s for ms, s in reps) if reps else math.nan

        values = {
            "setup_s": statistics.median(setup_samples) if setup_samples else math.nan,
            "wall_s": statistics.median(walls) if walls else math.nan,
            "steps_per_s": (statistics.median(s / w for s, w in zip(steps, walls))
                            if walls else math.nan),
            "step_ms_p50": step_ms(50),
            "step_ms_p90": step_ms(90),
            "peak_rss_mb": child["peak_rss_mb"],
            "final_eval_cost": -child["final_eval_reward"] / child["final_eval_steps"],
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}

    all_finite = all(math.isfinite(m["value"]) for m in metrics.values())
    problems = list(child["problems"])
    if not all_finite:
        problems.append("a metric could not be measured")
    attempted = max(int(child["attempted"]), 1)
    failed = int(child["failed"])
    info = {
        "workload": name, "seed": seed, "trace": trace, "size": size, "seconds": seconds,
        "commit": _commit(), "source_digest": _source_digest(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)), "blas_pin": BLAS_PIN,
        "reps": len(child["walls_s"]), "step_samples": sum(map(len, child["step_ms"])),
        "setup_samples": len(setup_samples), "failed_frac": failed / attempted,
        "kernel_nominal_s": speed.NOMINAL_S,
        "kernel_s_median": statistics.median(child["kernel_s"]),
        "raw_setup_s": statistics.median(setup_raw) if setup_raw else None,
        "raw_wall_s": statistics.median(child["walls_s"]) if child["walls_s"] else None,
        "final_eval_reward": child["final_eval_reward"], "digest": child["digest"],
        "why": workloads.WHY[name], "problems": problems,
    }
    if trace:
        info.update({"traced_reps": child["traced_reps"],
                     "traced_self_checks": child["traced_self_checks"],
                     "layers_all": child["layers"]})
    result = {"correct": failed == 0 and not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    (workdir / "result.json").write_text(json.dumps({"result": result, "info": info}, indent=1))

    print(f"perfbench {name} seed={seed} trace={trace} reps={info['reps']} "
          f"step_samples={info['step_samples']} failed_frac={info['failed_frac']:.4g}")
    for key, m in metrics.items():
        print(f"  {key:<50} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'final_eval_reward':<50} {child['final_eval_reward']:>14.6g} reward")
    print("info " + json.dumps({k: v for k, v in info.items() if k != "layers_all"}))
    print(json.dumps(result))
    return result


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full",
                   help="smoke shrinks every rep, for the benchmark's self-tests")
    args = p.parse_args()
    if not (SRC / "queuerl" / "__init__.py").is_file():
        return _fail(f"no queuerl sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import workloads

    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        if name not in workloads.WORKLOADS:
            return _fail(f"unknown workload {name!r}; choose from {sorted(workloads.WORKLOADS)}")
    for name in names:
        if run_workload(name, args.seed, args.seconds, args.trace, args.size) is None:
            return _fail(f"{name} did not finish")
    return 0


if __name__ == "__main__":
    sys.exit(main())
