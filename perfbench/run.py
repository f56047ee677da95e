"""End-to-end and per-layer benchmark of the entspace CLI.

Run from the repository root:

    python3 perfbench/run.py --workload exact-build --seed 1 --seconds 30 --trace 0

``--trace 0`` drives the CLI as a closed loop with one client: one
``python -m entspace.cli`` subprocess at a time, the workload's invocation
list over and over until ``--seconds`` have passed (the pass in flight is
finished).  Every output is checked by ``checker.py`` and its stdout digest
compared with every earlier run of the same argv on the same source tree.
Its times are in reference seconds: each subprocess's time is scaled by how
fast its CPU ran two fixed tasks just before and just after it (see
``reference``).

``--trace 1`` replays the same list in-process through
``entspace.cli.main(argv)``, alternating untraced passes with passes traced
by ``spans.py``, and reports per-layer self times and counts.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it holds the run's metadata.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import io
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import checker
import spans
import workloads

SETUP_REPEATS = 9
IMPORT_REPEATS = 5
TIMEOUT_S = 20.0          # per invocation; a timeout counts as a failure
OVERRUN_S = 60.0          # hard stop past --seconds, so a run ends within 180 s
TAIL_MIN_BEYOND = 10      # the tail percentile keeps this many samples above it
REFERENCE_LOOPS = 60_000
REFERENCE_REPEATS = 3
REFERENCE_S = {"loop": 0.006, "spawn": 0.0035}   # nominal times, see ``reference``
BARE_STARTUP = ["-c", "import entspace.cli"]
IMPORT_PROBE = ["-c", "import time; t = time.perf_counter(); import entspace.cli; "
                      "print(time.perf_counter() - t)"]
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END_UNITS = {
    "wall_s": "s", "cmd_p50_s": "s", "cmd_tail_s": "s", "cpu_s": "s",
    "setup_s": "s", "peak_rss_mb": "MB",
}


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("mb_per_s"):
        return "MB/s"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    if name.endswith("bytes_out"):
        return "bytes"
    return "count"


@dataclass
class Sample:
    argv: list[str]
    rc: int | None
    wall: float
    cpu: float = 0.0
    refs: tuple[dict, ...] = ()   # reference() just before and just after
    digest: str = ""
    failure: str | None = None

    @property
    def scale(self) -> float:
        """Reference seconds per second: 1 / the slow-down the references saw."""
        logs = [math.log(r[k] / REFERENCE_S[k]) for r in self.refs for k in REFERENCE_S]
        return math.exp(-statistics.fmean(logs)) if logs else 1.0


class Ledger:
    """Checks outputs and keeps one stdout digest per argv across runs.

    Digests persist per source-tree hash, so a second run of the same seed
    on the same code is held to byte-identical stdout.
    """

    def __init__(self, path: Path):
        self.path = path
        self.known: dict[str, str] = {}
        if path.is_file():
            self.known = json.loads(path.read_text())
        self.checked: set[str] = set()
        self.failures: list[str] = []

    def judge(self, sample: Sample, stdout: bytes) -> None:
        key = " ".join(sample.argv)
        sample.digest = hashlib.sha256(stdout).hexdigest()
        prev = self.known.get(key)
        if prev is not None and prev != sample.digest:
            sample.failure = "stdout digest differs from an earlier run of the same argv"
        elif sample.rc != checker.EXPECTED_EXIT or sample.digest not in self.checked:
            sample.failure = checker.check(sample.argv, sample.rc, stdout)
        if sample.failure is None:
            self.checked.add(sample.digest)
            self.known.setdefault(key, sample.digest)
        else:
            self.failures.append(f"{key}: {sample.failure}")

    def save(self) -> None:
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.known, indent=0, sort_keys=True))
        os.replace(tmp, self.path)


def _src_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def tail(values: list[float]) -> tuple[int, float, int]:
    """Highest whole percentile with at least TAIL_MIN_BEYOND samples above it.

    Nearest-rank.  With too few samples for any percentile from 50 up, the
    median is returned and the count above it says so.
    """
    xs = sorted(values)
    n = len(xs)
    for q in range(99, 49, -1):
        rank = math.ceil(q * n / 100)
        if n - rank >= TAIL_MIN_BEYOND:
            return q, xs[rank - 1], n - rank
    rank = math.ceil(n / 2)
    return 50, xs[rank - 1], n - rank


# -- subprocess runs (end-to-end) ----------------------------------------------

def _loop() -> None:
    acc = 0
    for i in range(REFERENCE_LOOPS):
        acc += i * i % 7


def _spawn() -> None:
    subprocess.run([sys.executable, "-V"], stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL, check=True)


def reference() -> dict[str, float]:
    """Fastest of a few timings of two fixed tasks on this process's CPU.

    A shared host changes the speed of each of this machine's CPUs by up to
    1.5x, each on its own and for every process on it alike.  The tasks are
    a pure-Python loop and the start of a bare interpreter (``python -V``):
    the CLI's time is interpreter work plus process start-up.  Timed just
    before and just after a subprocess, on the CPU that subprocess is pinned
    to, they give the speed it ran at.  Its time times ``Sample.scale`` is
    the time it would take on a machine that does the tasks in
    ``REFERENCE_S``.  The tasks touch no entspace code, so no change to the
    program can move them.
    """
    times = {}
    for name, task in (("loop", _loop), ("spawn", _spawn)):
        best = math.inf
        for _ in range(REFERENCE_REPEATS):
            t0 = time.perf_counter()
            task()
            best = min(best, time.perf_counter() - t0)
        times[name] = best
    return times


def _child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


class CpuRotation:
    """Pins this process, and so the next subprocess, to one CPU after another.

    Every subprocess runs on one CPU, the one its references were timed
    on, and the CPUs take turns so each invocation meets each of them.
    """

    def __init__(self) -> None:
        self.cpus = sorted(os.sched_getaffinity(0))
        self.turn = 0

    def next(self) -> None:
        os.sched_setaffinity(0, {self.cpus[self.turn % len(self.cpus)]})
        self.turn += 1

    def restore(self) -> None:
        os.sched_setaffinity(0, self.cpus)


CPUS = CpuRotation()


def _run_child(args: list[str], env: dict,
               timeout: float) -> tuple[int | None, bytes, float, float, tuple[dict, dict]]:
    """(exit code or None on timeout, stdout, wall s, child CPU s, references)."""
    CPUS.next()
    before = reference()
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, *args], env=env, stdin=subprocess.DEVNULL,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
            rc = proc.returncode
        except subprocess.TimeoutExpired:
            proc.kill()
            out, _ = proc.communicate()
            rc = None
    wall = time.perf_counter() - t0
    done = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (done.ru_utime + done.ru_stime) - (usage.ru_utime + usage.ru_stime)
    return rc, out, wall, cpu, (before, reference())


def measure_end_to_end(root: Path, argvs: list[list[str]], seconds: float, ledger: Ledger):
    env = _child_env(root)
    for _ in range(2):  # compile bytecode and warm the page cache, untimed
        _run_child(BARE_STARTUP, env, TIMEOUT_S)

    def startup() -> Sample:
        rc, _, wall, cpu, refs = _run_child(BARE_STARTUP, env, TIMEOUT_S)
        return Sample(BARE_STARTUP, rc, wall, cpu, refs)

    setup: list[Sample] = []
    samples: list[Sample] = []
    passes: list[list[Sample]] = []
    start = time.perf_counter()
    deadline = start + seconds + OVERRUN_S
    while not passes or time.perf_counter() - start < seconds:
        # spread start-up samples over the run, so one slow moment cannot skew them
        setup += [startup(), startup()]
        batch = []
        for argv in argvs:
            left = deadline - time.perf_counter()
            if left <= 0:
                break
            rc, out, wall, cpu, refs = _run_child(["-m", "entspace.cli", *argv], env,
                                                  min(TIMEOUT_S, left))
            sample = Sample(argv, rc, wall, cpu, refs)
            ledger.judge(sample, out)
            batch.append(sample)
        samples.extend(batch)
        if len(batch) < len(argvs):
            break
        passes.append(batch)

    while len(setup) < SETUP_REPEATS:
        setup.append(startup())

    def end_to_end(scaled: bool) -> dict[str, float]:
        def t(s: Sample, what: str) -> float:
            return getattr(s, what) * (s.scale if scaled else 1.0)

        def per_pass(what: str) -> float:
            """The list's total, from each invocation's median over the passes."""
            if not passes:  # the only pass hit the hard stop
                return math.nan
            return sum(statistics.median(t(b[i], what) for b in passes)
                       for i in range(len(argvs)))

        walls = [t(s, "wall") for s in samples]
        return {
            "wall_s": per_pass("wall"),
            "cmd_p50_s": statistics.median(walls),
            "cmd_tail_s": tail(walls)[1],
            "cpu_s": per_pass("cpu"),
            "setup_s": statistics.median(t(s, "wall") for s in setup),
        }

    q, _, beyond = tail([s.wall * s.scale for s in samples])
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {**end_to_end(scaled=True), "peak_rss_mb": peak_kb / 1024}
    meta = {
        "unscaled": end_to_end(scaled=False),
        "reference_s": {"nominal": REFERENCE_S, "median": {
            k: statistics.median(r[k] for s in samples + setup for r in s.refs)
            for k in REFERENCE_S}},
        "passes": len(passes),
        "samples": len(samples),
        "cmd_tail_percentile": q,
        "samples_beyond_tail": beyond,
        "setup_samples": len(setup),
    }
    return metrics, samples, meta


# -- in-process runs (traced) --------------------------------------------------

class InvocationTimeout(BaseException):
    """Raised by SIGALRM inside an in-process invocation."""


def _on_alarm(signum, frame):
    raise InvocationTimeout()


def _run_inprocess(main, argv: list[str], tracer: spans.Tracer | None,
                   timeout: float = TIMEOUT_S) -> tuple[Sample, bytes]:
    out, err = io.StringIO(), io.StringIO()
    signal.setitimer(signal.ITIMER_REAL, timeout)
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is None:
                rc = main(argv)
            else:
                rc = tracer.call("main", spans.CLI_LAYER, main, (argv,), {})
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    except InvocationTimeout:
        rc = None
    except Exception:  # a traceback is a failed invocation, not a failed benchmark
        err.write(traceback.format_exc())
        rc = 1
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    wall = time.perf_counter() - t0
    return Sample(argv, rc, wall), out.getvalue().encode("utf-8")


def measure_traced(root: Path, argvs: list[list[str]], seconds: float, ledger: Ledger,
                   span_path: Path):
    env = _child_env(root)
    import_s: list[float] = []

    def probe_import() -> None:
        rc, out, *_ = _run_child(IMPORT_PROBE, env, TIMEOUT_S)
        CPUS.restore()  # the in-process passes run unpinned
        if rc == 0:
            import_s.append(float(out.decode().strip()))

    sys.path.insert(0, str(root / "src"))
    import entspace.cli

    main = entspace.cli.main
    tracer = spans.Tracer()
    samples: list[Sample] = []
    plain_walls: list[float] = []
    traced_walls: list[float] = []
    per_pass: list[dict[str, float]] = []
    all_spans: list[tuple[int, list[spans.Span]]] = []

    deadline = time.perf_counter() + seconds + OVERRUN_S

    def one_pass(traced: bool) -> float:
        wall = 0.0
        for argv in argvs:
            left = deadline - time.perf_counter()
            if left <= 0:
                break
            tracer.rid += 1
            sample, out = _run_inprocess(main, argv, tracer if traced else None,
                                         min(TIMEOUT_S, left))
            ledger.judge(sample, out)
            samples.append(sample)
            wall += sample.wall
        return wall

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        one_pass(False)  # warm-up: first-call costs inside numpy and entspace
        start = time.perf_counter()
        while not traced_walls or time.perf_counter() - start < seconds:
            probe_import()
            # alternate which kind goes first, so drift does not bias the overhead
            for traced in ((False, True) if len(traced_walls) % 2 == 0 else (True, False)):
                if traced:
                    with tracer.installed():
                        traced_walls.append(one_pass(True))
                    pass_spans = tracer.take()
                    all_spans.append((len(traced_walls), pass_spans))
                    per_pass.append(spans.layer_metrics(pass_spans))
                else:
                    plain_walls.append(one_pass(False))
    finally:
        signal.signal(signal.SIGALRM, previous)
    while len(import_s) < IMPORT_REPEATS:
        probe_import()

    metrics = {"cli.import_s": statistics.median(import_s) if import_s else math.nan}
    for name in per_pass[0]:
        metrics[name] = statistics.median(p[name] for p in per_pass)
    metrics["trace.overhead_frac"] = (
        statistics.median(traced_walls) / statistics.median(plain_walls) - 1)

    with span_path.open("w") as fh:
        for pass_no, pass_spans in all_spans:
            for i, s in enumerate(pass_spans):
                fh.write(json.dumps({
                    "pass": pass_no, "id": i, "rid": s.rid, "name": s.name,
                    "layer": s.layer, "start": s.start, "end": s.end,
                    "parent": s.parent, **s.info}) + "\n")
    meta = {
        "passes": len(traced_walls),
        "untraced_passes": len(plain_walls),
        "top_layer": spans.top_layer(metrics),
        "spans_file": str(span_path.relative_to(root)),
        "import_samples": len(import_s),
    }
    return metrics, samples, meta


# -- entry point -----------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "entspace" / "cli.py").is_file():
        print(f"error: {root} holds no src/entspace; run from the repository root",
              file=sys.stderr)
        return 2
    out_dir = root / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    src_sha = _src_digest(root)
    ledger = Ledger(out_dir / f"digests-{src_sha[:16]}.json")
    argvs = workloads.invocations(args.workload, args.seed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    try:
        if args.trace:
            metrics, samples, extra = measure_traced(
                root, argvs, args.seconds, ledger, out_dir / f"spans-{tag}.jsonl")
        else:
            metrics, samples, extra = measure_end_to_end(root, argvs, args.seconds, ledger)
    finally:
        CPUS.restore()
    ledger.save()

    failed = sum(1 for s in samples if s.failure)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(root),
        "src_sha256": src_sha,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "blas_env": {k: os.environ[k] for k in BLAS_ENV if k in os.environ},
        "cpus": CPUS.cpus,
        "loop": "closed, 1 client",
        "invocations_per_pass": len(argvs),
        "failed_frac": failed / len(samples),
        "failures": ledger.failures[:5],
        **extra,
    }
    result = {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }
    (out_dir / f"result-{tag}.json").write_text(json.dumps({
        "meta": meta, "result": result,
        "samples": [{"argv": " ".join(s.argv), "rc": s.rc, "wall": s.wall,
                     "cpu": s.cpu, "refs": s.refs, "digest": s.digest,
                     "failure": s.failure}
                    for s in samples],
    }, indent=1))

    for name, m in result["metrics"].items():
        print(f"# {name:<28} {m['value']:>14.6g} {m['unit']}")
    print(f"# {'failed_frac':<28} {meta['failed_frac']:>14.6g} ratio")
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
