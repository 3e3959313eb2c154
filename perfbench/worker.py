"""One workload in one fresh process; started by run.py, not by hand.

Role ``setup`` measures set-up once, stops at the first step and times the
reference kernel of ``speed.py``. Role ``run`` repeats the workload's rep
until ``--seconds`` have passed, times the kernel before the first rep and
after every rep, checks every rep, evaluates the final policy outside the
timed region and writes a JSON report to ``--report``. With ``--trace 1``
the second half of the run is traced.
"""

from time import perf_counter

T0 = perf_counter()  # before any import the set-up time includes

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from queuerl import rl_env  # noqa: E402


MIN_REPS = 3  # per half of a traced run, and per untraced run
SETUP_KERNEL_RUNS = 3  # a set-up process reports the median of these


class _SetupDone(Exception):
    """Raised at the first step of a set-up-only process."""


def _stop_at_first_step():
    raise _SetupDone


def measure_setup(workload_cls, inputs: dict) -> float:
    clock = tracer.StepClock(rl_env, on_first_step=_stop_at_first_step)
    clock.install()
    try:
        w = workload_cls(inputs)
        w.before_rep()
        w.rep()
    except _SetupDone:
        pass
    finally:
        clock.uninstall()
    if clock.first_step_at is None:
        raise RuntimeError("the workload took no step")
    return clock.first_step_at - T0


class Runner:
    """Runs reps back to back, checks each and keeps what it measured.

    Untraced reps give the end-to-end numbers. While ``recorder`` is set,
    reps give per-layer numbers instead, from the spans of the rep alone
    (the checks after it are excluded). The reference kernel runs before
    the first rep and after each one; a rep's ``scale`` is ``NOMINAL_S`` over
    the mean of the kernel times on either side of it.
    """

    def __init__(self, w, clock: tracer.StepClock):
        self.w = w
        self.clock = clock
        self.recorder: tracer.SpanRecorder | None = None
        self.kernel_s = [speed.kernel_s()]
        self.walls: list[float] = []
        self.scales: list[float] = []
        self.steps: list[int] = []
        self.step_ms: list[list[float]] = []  # per rep
        self.traced: list[dict] = []
        self.last_spans: list = []
        self.digests: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def one_rep(self) -> None:
        w, clock, recorder = self.w, self.clock, self.recorder
        w.before_rep()
        clock.begin_rep()
        if recorder is not None:
            recorder.take_spans()
        first_interval = len(clock.intervals_ms)
        started = perf_counter()
        try:
            outcome = w.rep()
        except Exception as exc:  # a step that raised fails its rep; the run goes on
            steps = max(clock.steps, 1)
            outcome = workloads.RepOutcome(steps, "", steps, [f"raised {exc!r}"])
        ended = perf_counter()
        spans, counters = recorder.take_spans() if recorder is not None else ([], {})
        self.kernel_s.append(speed.kernel_s())
        scale = speed.NOMINAL_S / statistics.fmean(self.kernel_s[-2:])
        clock.end_episode()
        if not outcome.problems:
            w.check_rep(outcome)
        if clock.conservation_failures:
            outcome.problems.append(f"{clock.conservation_failures} episodes lost jobs")
        self.attempted += outcome.steps
        self.failed += min(outcome.steps, outcome.failed_steps + clock.failed_steps)
        self.problems += outcome.problems
        self.digests.append(outcome.digest)
        if clock.first_step_at is None or outcome.problems:
            return
        wall = ended - clock.first_step_at
        if recorder is None:
            self.walls.append(wall)
            self.scales.append(scale)
            self.steps.append(outcome.steps)
            self.step_ms.append(clock.intervals_ms[first_interval:])
        else:
            self.traced.append(rep_layers(spans, counters, clock, wall, ended - started))
            self.traced[-1]["rep_scale"] = scale
            self.last_spans = spans

    def repeat(self, deadline: float, min_reps: int) -> None:
        done = len(self.digests)
        while len(self.digests) - done < min_reps or perf_counter() < deadline:
            self.one_rep()

    def check_identical(self) -> None:
        """Reps share their inputs, so any difference is a fault."""
        if len(set(self.digests)) > 1:
            self.problems.append(f"reps differ: {sorted(set(self.digests))}")
            self.failed = self.attempted


def rep_layers(spans, counters, clock: tracer.StepClock, wall: float, whole: float) -> dict:
    """Per-layer totals of one traced rep, with the counters taken outside spans."""
    stats = tracer.layer_stats(spans, counters)
    stats["netsim.jobs_in_queues_max"] = clock.queue_max
    logs = getattr(getattr(clock.env, "net", None), "job_logs", None) or {}
    stats["netsim.job_records"] = sum(len(v) for v in logs.values())
    busy = stats.get("netsim.QueueNetwork.simulate.total_s", 0.0)
    events = stats.get("netsim.QueueNetwork.simulate.events", 0)
    stats["netsim.events_per_busy_s"] = events / busy if busy > 0 else 0.0
    stats["self_sum_s"] = sum(v for k, v in stats.items() if k.endswith(".self_s"))
    stats["rep_wall_s"] = wall
    stats["rep_whole_s"] = whole
    return stats


def trace_reps(runner: Runner, deadline: float, min_reps: int) -> None:
    """Repeat with every layer wrapped; the step clock stays outermost."""
    recorder = tracer.SpanRecorder()
    runner.clock.uninstall()
    recorder.install()
    runner.clock.install()
    runner.recorder = recorder
    try:
        runner.repeat(deadline, min_reps)
    finally:
        runner.recorder = None
        runner.clock.uninstall()
        recorder.uninstall()


def summarise_trace(runner: Runner) -> dict:
    traced = runner.traced
    layers = {k: statistics.median(rep.get(k, 0.0) for rep in traced)
              for k in sorted({k for rep in traced for k in rep})}
    if traced and runner.walls:
        layers["trace.overhead_frac"] = (
            statistics.median(rep["rep_wall_s"] * rep["rep_scale"] for rep in traced)
            / statistics.median(w * s for w, s in zip(runner.walls, runner.scales)) - 1.0)
    origin = min((span[2] for span in runner.last_spans), default=0.0)
    return {
        "layers": layers,
        "traced_reps": len(traced),
        "traced_self_checks": [(rep["self_sum_s"], rep["rep_whole_s"]) for rep in traced],
        "spans": [{"id": sid, "name": name, "start": start - origin, "end": end - origin,
                   "parent": parent} for sid, name, start, end, parent in runner.last_spans],
    }


def run(args, inputs: dict) -> dict:
    clock = tracer.StepClock(rl_env, sample_queues=bool(args.trace))
    clock.install()
    try:
        w = workloads.WORKLOADS[args.workload](inputs)
        runner = Runner(w, clock)
        share = 0.5 if args.trace else 1.0  # a traced run traces its second half
        runner.repeat(perf_counter() + share * args.seconds, MIN_REPS)
        if args.trace:
            trace_reps(runner, perf_counter() + share * args.seconds, MIN_REPS)
        runner.check_identical()
    finally:
        clock.uninstall()

    t_eval = perf_counter()
    final_reward = w.final_eval()
    report = summarise_trace(runner) if args.trace else {}
    report.update({
        "walls_s": runner.walls,
        "scales": runner.scales,
        "kernel_s": runner.kernel_s,
        "steps": runner.steps,
        "step_ms": runner.step_ms,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "problems": runner.problems[:20],
        "digest": runner.digests[0],
        "final_eval_reward": final_reward,
        "final_eval_steps": inputs["eval_steps"],
        "final_eval_s": perf_counter() - t_eval,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    return report


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--role", choices=("setup", "run"), required=True)
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    p.add_argument("--inputs", required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--report")
    args = p.parse_args()
    inputs = json.loads(Path(args.inputs).read_text())
    if args.role == "setup":
        setup_s = measure_setup(workloads.WORKLOADS[args.workload], inputs)
        kernel_s = statistics.median(speed.kernel_s() for _ in range(SETUP_KERNEL_RUNS))
        print(json.dumps({"setup_s": setup_s, "kernel_s": kernel_s}))
        return 0
    report = run(args, inputs)
    spans = report.pop("spans", [])
    if spans:
        with open(Path(args.report).with_name("spans.jsonl"), "w") as fh:
            fh.writelines(json.dumps(span) + "\n" for span in spans)
    Path(args.report).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
