"""resilp benchmark: time to a verdict and scenario throughput.

    python3 perfbench/run.py --workload sched-scaled --seed 0 --seconds 25 --trace 0

Runs one workload from the root of a checkout, deciding each instance
through resilp's command line (in process, or as a child process for
``cli-cold``), one instance at a time in a closed loop.  A run repeats
whole passes over the workload for about ``--seconds``, checks every
verdict, witness and ``scenarios_checked`` against ``expected.json``, and
prints its metrics, one per line, then one JSON object as the last line.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs untraced
and traced passes and reports the per-layer metrics and the tracing
overhead.  Times are CPU time, and end-to-end times are scaled to the
machine's speed: see :func:`cpu_seconds` and speed.py.  Exit code 0 when
every instance matched, 1 when any failed, 2 when the checkout has no
resilp sources.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional

import workloads
from speed import Speed
from stats import percentile
from tracing import Span, Tracer, layer_metrics

STARTED = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench_run"
EXPECTED_PATH = HERE / "expected.json"

SETUP_REPEATS = 7
# Share of the measured CPU time spent on reference loops, see speed.py.
# Set-up is short, so it takes more of them.
SETUP_REFERENCE_SHARE = 0.5
PASS_REFERENCE_SHARE = 0.05
# One decision may take this long before it counts as failed.
INSTANCE_LIMIT_S = 60.0
# No decision starts later than this after process start, so a run that
# has gone wrong still exits well inside its 180 s.
DEADLINE_S = 150.0
# `python -c pass` and `python -c "import resilp.cli"` spawns per traced run.
SPAWN_PAIRS = 5

END_TO_END = {
    "verdict_ms_p50": "ms",
    "verdict_ms_p90": "ms",
    "scenarios_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    "cli.main_self_ms": "ms",
    "parse.busy_s": "s",
    "parse.calls": "count",
    "parse.errors": "count",
    "encode.busy_s": "s",
    "encode.calls": "count",
    "encode.vars": "count",
    "encode.rows": "count",
    "engine.check_self_s": "s",
    "engine.enumerate_busy_s": "s",
    "engine.scenarios": "count",
    "engine.substitute_busy_s": "s",
    "engine.substitute_calls": "count",
    "engine.solves_per_scenario": "ratio",
    "engine.errors": "count",
    "ilp.solve_busy_s": "s",
    "ilp.solve_calls": "count",
    "ilp.solve_ms_p50": "ms",
    "ilp.solve_ms_p90": "ms",
    "ilp.feasible_ratio": "ratio",
    "trace.overhead_s": "s",
    "trace.overhead_share": "ratio",
}


class Overrun(BaseException):
    """One in-process decision ran past its limit.  A BaseException, so the
    CLI's own ``except Exception`` boundary lets it through."""


def _alarm(signum, frame):
    raise Overrun()


def cpu_seconds() -> float:
    """CPU time of the main thread (the only one) and of the children it
    has waited for, less the reference loops' (speed.py).

    Every time the benchmark reports is read from this clock, not from the
    wall clock, and end-to-end times are then scaled to the machine's
    speed.  resilp computes and never waits, so the two clocks differ only
    by the time the machine ran something else in its place: on a shared
    virtual machine that is the hypervisor's steal time, which comes in
    bursts and is none of the program's doing.
    """
    while True:
        loops = Speed.spent
        children = resource.getrusage(resource.RUSAGE_CHILDREN)
        now = time.thread_time() + children.ru_utime + children.ru_stime
        if Speed.spent == loops:  # no loop ran on a timer in between
            return now - loops


def child_env() -> dict:
    """The package is not installed: children find it on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def time_left() -> float:
    return DEADLINE_S - (time.perf_counter() - STARTED)


# ------------------------------------------------------------------ set-up


class Setup:
    """Everything a pass needs: the CLI module, the instances in pass order
    with their command lines, and the expected outcomes.  The instance
    files are written apart (:meth:`write`), so that the benchmark's own
    file writing stays out of the timed set-up."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        # A fresh import each time, so set-up time includes the import.
        for name in [m for m in sys.modules if m == "resilp" or m.startswith("resilp.")]:
            del sys.modules[name]
        self.cli = importlib.import_module("resilp.cli")
        self.expected: Dict[str, dict] = json.loads(EXPECTED_PATH.read_text())
        self.instances = workloads.build(workload, seed, self.expected)
        self.workdir = workdir
        self.items = [(iid, command(workdir, iid, problem))
                      for iid, problem, _ in self.instances]
        workdir.mkdir(parents=True, exist_ok=True)
        problems = sorted({problem for _, problem, _ in self.instances})
        warm = [write_instance(workdir, f"warmup-{p}", p, workloads.WARMUP[p]) for p in problems]
        if workload == "cli-cold":
            spawn(warm[0], INSTANCE_LIMIT_S)
        else:
            for argv in warm:
                decide_in_process(self.cli, argv, INSTANCE_LIMIT_S)

    def write(self) -> None:
        for iid, problem, doc in self.instances:
            write_instance(self.workdir, iid, problem, doc)


def command(workdir: Path, iid: str, problem: str) -> List[str]:
    """The ``resilp`` arguments that decide one instance document."""
    which = ["--raw"] if problem == "raw" else ["--problem", problem]
    return ["check", *which, str(workdir / f"{iid}.json")]


def write_instance(workdir: Path, iid: str, problem: str, doc: dict) -> List[str]:
    """Write one instance document; the ``resilp`` arguments that decide it."""
    (workdir / f"{iid}.json").write_text(json.dumps(doc))
    return command(workdir, iid, problem)


# --------------------------------------------------------------- deciding


def decide_in_process(cli, argv: List[str], limit: float,
                      tracer: Optional[Tracer] = None, iid: str = ""):
    """(seconds, exit code or None on overrun, stdout) of ``cli.main``."""
    out = io.StringIO()
    previous = signal.signal(signal.SIGALRM, _alarm)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            signal.setitimer(signal.ITIMER_REAL, limit)
            start = cpu_seconds()
            try:
                if tracer is None:
                    code = cli.main(argv)
                else:
                    with tracer.span("cli.main", trace=iid):
                        code = cli.main(argv)
            except Overrun:
                code = None
            elapsed = cpu_seconds() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
    finally:
        signal.signal(signal.SIGALRM, previous)
    return elapsed, code, out.getvalue()


def spawn(argv: List[str], limit: float, prefix: Optional[List[str]] = None):
    """(CPU seconds, exit code or None on overrun, stdout) of one child,
    from spawn to exit."""
    cmd = prefix or [sys.executable, "-m", "resilp"]
    start = cpu_seconds()
    try:
        proc = subprocess.run([*cmd, *argv], capture_output=True, text=True,
                              timeout=limit, env=child_env(), cwd=ROOT)
    except subprocess.TimeoutExpired:
        return cpu_seconds() - start, None, ""
    return cpu_seconds() - start, proc.returncode, proc.stdout


def judge(code: Optional[int], stdout: str, want: dict) -> Optional[str]:
    """None when the outcome matches ``want``, else why the instance failed."""
    if code is None:
        return "limit overrun"
    if code not in (0, 1):
        return f"exit code {code}"
    try:
        verdict = json.loads(stdout)["verdict"]
    except (ValueError, KeyError, TypeError):
        return "unreadable report"
    got = {k: verdict.get(k) for k in ("resilient", "witness", "scenarios_checked")}
    if got != want:
        return f"drift: expected {want}, got {got}"
    if code != (0 if want["resilient"] else 1):
        return f"exit code {code} disagrees with the verdict"
    return None


class Record(NamedTuple):
    iid: str
    seconds: Optional[float]  # None when the decision never ran; see run_pass
    failure: Optional[str]  # None when the outcome matched expected.json
    scenarios: int  # scenarios_checked of a matching decision, else 0


class Pass(NamedTuple):
    records: List[Record]
    seconds: float  # CPU time of the whole pass
    wall: float


def run_pass(setup: Setup, decide: Callable, speed: Optional[Speed] = None) -> List[Record]:
    """Decide every instance once, in pass order; failures do not stop it.
    With ``speed``, reference loops run in step with the decisions, and
    each decision's CPU time is scaled by the factor of the loops that ran
    since the previous decision's factor."""
    records: List[Record] = []
    unscaled: List[int] = []

    def scale(factor):
        for i in unscaled:
            records[i] = records[i]._replace(seconds=records[i].seconds * factor)
        unscaled.clear()

    for iid, argv in setup.items:
        limit = min(INSTANCE_LIMIT_S, time_left())
        if limit <= 0:
            records.append(Record(iid, None, "not started before the deadline", 0))
            continue
        try:
            seconds, code, stdout = decide(iid, argv, limit)
            failure = judge(code, stdout, setup.expected[iid])
        except Exception as exc:  # a broken harness call must not end the run
            seconds, failure = None, f"{type(exc).__name__}: {exc}"
        scenarios = 0 if failure else setup.expected[iid]["scenarios_checked"]
        records.append(Record(iid, seconds, failure, scenarios))
        if speed is not None and seconds is not None:
            unscaled.append(len(records) - 1)
            factor = speed.sample(seconds)
            if factor is not None:
                scale(factor)
    if unscaled:
        scale(speed.sample(0.0, at_least_one=True))
    return records


def run_passes(setup: Setup, decide: Callable, budget_s: float,
               speed: Optional[Speed] = None) -> List[Pass]:
    """Whole passes while the next one is expected to end within the
    budget; at least one."""
    passes: List[Pass] = []
    start = time.perf_counter()
    while True:
        gc.collect()
        t, cpu = time.perf_counter(), cpu_seconds()
        records = run_pass(setup, decide, speed)
        passes.append(Pass(records, cpu_seconds() - cpu, time.perf_counter() - t))
        ahead = statistics.mean(p.wall for p in passes)
        if time.perf_counter() - start + ahead > budget_s or ahead > time_left():
            return passes


# ----------------------------------------------------------------- metrics


def end_to_end(passes: List[Pass], setup_times: List[float], cli_cold: bool) -> Dict[str, float]:
    """Percentiles are taken within each pass and averaged over the passes,
    and throughput is total scenarios over total decision time, so that
    neither figure depends on how many passes fit."""
    def mean_percentile(q):
        return statistics.mean(
            percentile([r.seconds * 1e3 for r in p.records if r.seconds is not None] or [0.0], q)
            for p in passes)

    records = [r for p in passes for r in p.records]
    deciding = sum(r.seconds for r in records if r.seconds is not None)
    who = resource.RUSAGE_CHILDREN if cli_cold else resource.RUSAGE_SELF
    return {
        "verdict_ms_p50": mean_percentile(0.5),
        "verdict_ms_p90": mean_percentile(0.9),
        "scenarios_per_s": sum(r.scenarios for r in records) / deciding if deciding else 0.0,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }


def cli_layer() -> Dict[str, float]:
    """Interpreter start and ``import resilp.cli``, each from fresh spawns."""
    bare, imported = [], []
    for _ in range(SPAWN_PAIRS):
        bare.append(spawn([], INSTANCE_LIMIT_S, [sys.executable, "-c", "pass"])[0])
        imported.append(spawn([], INSTANCE_LIMIT_S,
                              [sys.executable, "-c", "import resilp.cli"])[0])
    interpreter = statistics.median(bare) * 1e3
    return {
        "cli.interpreter_ms": interpreter,
        "cli.import_ms": statistics.median(imported) * 1e3 - interpreter,
    }


def read_spans(path: Path) -> List[Span]:
    """Spans a traced child wrote with :meth:`Tracer.write`."""
    spans = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            d = json.loads(line)
            span = Span(d["trace"], d["id"], d["parent"], d["name"], d["start"])
            span.end, span.child, span.error, span.note = d["end"], d["child"], d["error"], d["note"]
            spans.append(span)
    return spans


# --------------------------------------------------------------- reporting


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown"
    in a checkout that is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
    }


def report(env: dict, passes: List[Pass], metrics: Dict[str, float],
           units: Dict[str, str], extra: dict) -> bool:
    records = [r for p in passes for r in p.records]
    failures = [r for r in records if r.failure]
    attempted = len(records)
    print(f"# env {json.dumps(env, sort_keys=True)}")
    for r in failures[:20]:
        print(f"# failed {r.iid}: {r.failure}")
    for key, value in extra.items():
        print(f"# {key}: {value}")
    print(f"failed_share {len(failures) / attempted:.6g} share ({len(failures)}/{attempted})")
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return not failures


# -------------------------------------------------------------------- main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="resilp benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "resilp" / "__init__.py").is_file():
        print(f"error: no resilp sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = RUN_DIR / f"work-{os.getpid()}"
    env = environment(args)
    cpus = os.sched_getaffinity(0)
    # Reference loops and the measured work must share one CPU (speed.py);
    # child processes inherit this.
    os.sched_setaffinity(0, {min(cpus)})
    try:
        return measure(args, env, workdir)
    finally:
        os.sched_setaffinity(0, cpus)
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, env: dict, workdir: Path) -> int:
    """Set up, run the passes and report; the exit code of main."""
    cli_cold = args.workload == "cli-cold"
    setup_times = []
    setup_speed = Speed(SETUP_REFERENCE_SHARE)
    with setup_speed.ticking():
        for _ in range(1 if args.trace else SETUP_REPEATS):
            # No garbage left from before, so the collector does the same
            # work in every set-up and every run.
            gc.collect()
            t = cpu_seconds()
            setup = Setup(args.workload, args.seed, workdir)
            spent = cpu_seconds() - t
            setup_times.append(spent * setup_speed.sample(spent, at_least_one=True))
    setup.write()

    if cli_cold:
        def untraced(iid, argv, limit):
            return spawn(argv, limit)
    else:
        def untraced(iid, argv, limit):
            return decide_in_process(setup.cli, argv, limit)

    if not args.trace:
        with Speed(PASS_REFERENCE_SHARE).ticking() as speed:
            passes = run_passes(setup, untraced, args.seconds, speed)
        metrics = end_to_end(passes, setup_times, cli_cold)
        extra = {"passes": len(passes), "verdicts_per_pass": len(setup.items),
                 "setup_repeats": len(setup_times), "speed_factor": speed.factor,
                 "reference_loops": speed.loops, "setup_speed_factor": setup_speed.factor}
        return 0 if report(env, passes, metrics, END_TO_END, extra) else 1

    # Traced run: untraced passes, then traced passes, half the time each.
    plain = run_passes(setup, untraced, args.seconds / 2)
    tracer = Tracer()
    if cli_cold:
        tracechild = [sys.executable, str(HERE / "tracechild.py")]

        def traced(iid, argv, limit):
            out = workdir / f"spans-{iid}.jsonl"
            outcome = spawn([str(out), iid, *argv], limit, tracechild)
            if out.exists():
                tracer.spans.extend(read_spans(out))
            return outcome

        passes = run_passes(setup, traced, args.seconds / 2)
    else:
        def traced(iid, argv, limit):
            return decide_in_process(setup.cli, argv, limit, tracer, iid)

        with tracer.installed():
            passes = run_passes(setup, traced, args.seconds / 2)
    RUN_DIR.mkdir(exist_ok=True)
    tracer.write(RUN_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
    metrics = layer_metrics(tracer.spans, len(passes))
    metrics.update(cli_layer())
    base = statistics.median(p.seconds for p in plain)
    metrics["trace.overhead_s"] = statistics.median(p.seconds for p in passes) - base
    metrics["trace.overhead_share"] = metrics["trace.overhead_s"] / base
    extra = {"untraced_passes": len(plain), "traced_passes": len(passes),
             "spans": len(tracer.spans), "missing_targets": tracer.missing}
    return 0 if report(env, plain + passes, metrics, PER_LAYER, extra) else 1


if __name__ == "__main__":
    sys.exit(main())
