"""valkit benchmark: drives the real `vk` CLI as a closed loop with one client.

    python3 bench/run.py --workload relations-kb --seed 1 --seconds 25 --trace 0

Run from the repository root. Set-up generates the workload's inputs from
the seed (bench/gen.py), writes them as files under bench/out/, computes
their oracle verdicts (bench/oracle.py) and makes one untimed warm-up call.
Set-up runs seven times, each followed by one reference child, and reports
its median scaled by theirs.

--trace 0 times `python -m valkit ...` children one at a time, in whole
passes over the inputs: at least three passes (so every input repeats), more
while they fit in --seconds. The gated times take each input's median
repeat. About once a second the loop also times a fixed valkit-free
reference child (bench/reference.py); the gated times are scaled by its
median run, which cancels most of the host's drift in speed (see
bench/README.md). The runner and its children share one CPU. Every
operation is checked: exit code, verdict against the oracle, `vk verify` on
every analyze report, and byte-equal output across repeats (each pass uses
another PYTHONHASHSEED).

--trace 1 replays the same inputs in process and reports per-layer numbers
(bench/tracing.py).

Human-readable lines go first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics. See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

import gen
import oracle

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 7
MIN_PASSES = 3
OP_TIMEOUT_S = 60.0
RUN_BUDGET_S = 170.0  # every run must exit well within 180 s
SOLVE_OP = {"infer-potentials": "infer"}
INTERP_REPEATS = 5
REF_CHILD_S = 0.1  # gated times are scaled to a host on which the reference child takes this long
REF_EVERY_S = 1.0  # least time between two reference children in the timed loop


class Child(NamedTuple):
    code: int | None  # None after a timeout
    out: bytes
    err: bytes
    wall: float  # spawn to exit, s
    cpu: float  # user + system time of the child, s
    rss_mb: float  # the child's max-RSS

    def error(self) -> str:
        return f"exit {self.code}: {self.err.decode(errors='replace').strip()[:200]}"


class Run:
    """State of one benchmark run: inputs, timings and check results."""

    def __init__(self, workload: str, seed: int, seconds: int):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.started = time.perf_counter()
        self.workdir = BENCH / "out" / f"{workload}-s{seed}"
        self.instances: list[gen.Instance] = []
        self.samples: dict[str, list[float]] = {"analyze": [], "verify": [], "infer": []}
        self.by_input: dict[str, list[tuple[float, float]]] = {}  # "op input" -> (wall, cpu)
        self.outputs: dict[str, bytes] = {}
        self.ref_walls: list[float] = []  # reference children of the timed loop
        self.peak_rss_mb = 0.0  # largest max-RSS of a valkit child in the timed loop
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.passes = 0

    # ------------------------------------------------------------- set-up

    def setup(self) -> float:
        """Generate inputs and oracles, write the files, make one warm-up call."""
        t0 = time.perf_counter()
        shutil.rmtree(self.workdir, ignore_errors=True)
        (self.workdir / "inputs").mkdir(parents=True)
        (self.workdir / "reports").mkdir()
        self.instances = gen.generate(self.workload, self.seed)
        for inst in self.instances:
            if inst.builtin is None:
                path = self.workdir / "inputs" / f"{inst.name}.json"
                path.write_text(json.dumps(inst.doc, indent=1) + "\n", encoding="utf-8")
        warm = min(self.instances, key=lambda inst: (inst.size, inst.name))
        child = self.spawn(self.op_argv(warm), hash_seed=self.hash_seed(0))
        if child.code != 0:
            raise SystemExit(f"error: warm-up {warm.name}: {child.error()}")
        return time.perf_counter() - t0

    def source(self, inst: gen.Instance) -> str:
        if inst.builtin is not None:
            return f"builtin:{inst.builtin}"
        return (self.workdir / "inputs" / f"{inst.name}.json").relative_to(ROOT).as_posix()

    def report_path(self, inst: gen.Instance) -> Path:
        return self.workdir / "reports" / f"{inst.name}.json"

    def op_argv(self, inst: gen.Instance) -> list[str]:
        if inst.op == "infer":
            return ["infer", self.source(inst), "--query", ",".join(inst.query), "--json"]
        return ["analyze", self.source(inst), "--json"]

    def hash_seed(self, pass_no: int) -> int:
        return (self.seed * 1_000_003 + pass_no) % 4_294_967_296

    # ------------------------------------------------------------ children

    def spawn(self, argv: list[str], hash_seed: int, module: bool = True) -> Child:
        """Run one `python -m valkit` child (or `python <argv>`) from the repository root.

        The environment is explicit: valkit comes from src/, not from an
        installation, and the hash seed is fixed per pass. Output goes to
        files and the child is reaped with wait4, which gives its own
        rusage (CPU time and max-RSS) rather than a running total.
        """
        env = {
            "PATH": os.environ.get("PATH", os.defpath),
            "PYTHONPATH": "src",
            "PYTHONHASHSEED": str(hash_seed),
        }
        cmd = [sys.executable, "-m", "valkit", *argv] if module else [sys.executable, *argv]
        remaining = RUN_BUDGET_S - (time.perf_counter() - self.started)
        out_path, err_path = self.workdir / "child.out", self.workdir / "child.err"
        killed = threading.Event()

        def kill() -> None:
            killed.set()
            with contextlib.suppress(ProcessLookupError):
                os.kill(proc.pid, signal.SIGKILL)

        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=out, stderr=err)
            timer = threading.Timer(max(1.0, min(OP_TIMEOUT_S, remaining)), kill)
            timer.start()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        code = None if killed.is_set() else proc.returncode
        return Child(code, out_path.read_bytes(), err_path.read_bytes(), wall,
                     usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)

    def interpreter_costs(self) -> tuple[float, float]:
        """Median wall of a bare interpreter start, and of `import valkit.cli` minus that."""
        def median_wall(code: str) -> float:
            walls = [self.spawn(["-c", code], self.hash_seed(0), module=False).wall for _ in range(INTERP_REPEATS)]
            return statistics.median(walls)

        start = median_wall("pass")
        return start, median_wall("import valkit.cli") - start

    # ----------------------------------------------------------- timed loop

    def sample(self, inst: gen.Instance, op: str, child: Child) -> None:
        self.samples[op].append(child.wall)
        self.by_input.setdefault(f"{op} {inst.name}", []).append((child.wall, child.cpu))
        self.peak_rss_mb = max(self.peak_rss_mb, child.rss_mb)

    def reference(self) -> float:
        """Wall time of one reference child (bench/reference.py); it must succeed."""
        child = self.spawn([str((BENCH / "reference.py").relative_to(ROOT))], self.hash_seed(0), module=False)
        if child.code != 0:
            raise SystemExit(f"error: reference child: {child.error()}")
        return child.wall

    def record(self, inst: gen.Instance, op: str, problems: list[str]) -> None:
        """Count one attempted op; it fails if any check found a problem."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.extend(f"{inst.name} {op}: {p}" for p in problems)

    def same_as_before(self, inst: gen.Instance, out: bytes) -> bool:
        return self.outputs.setdefault(inst.name, out) == out

    def run_instance(self, inst: gen.Instance, hash_seed: int) -> None:
        child = self.spawn(self.op_argv(inst), hash_seed)
        self.sample(inst, inst.op, child)
        if child.code != 0:
            self.record(inst, inst.op, [child.error()])
            if inst.op == "analyze":
                self.record(inst, "verify", ["no report to verify"])
            return
        problems = oracle.check(inst, child.out)
        if not self.same_as_before(inst, child.out):
            problems.append("output differs from an earlier repeat")
        self.record(inst, inst.op, problems)
        if inst.op == "infer":
            return
        path = self.report_path(inst)
        path.write_bytes(child.out)
        verify = self.spawn(["verify", path.relative_to(ROOT).as_posix(), self.source(inst)], hash_seed)
        self.sample(inst, "verify", verify)
        ok = verify.code == 0 and verify.out.startswith(b"ok")
        self.record(inst, "verify", [] if ok else [verify.error()])

    def timed_loop(self) -> float:
        """Whole passes: at least MIN_PASSES, then more while they fit in --seconds."""
        t0 = time.perf_counter()
        passes = 0
        last_ref = -REF_EVERY_S
        while True:
            elapsed = time.perf_counter() - t0
            if passes >= MIN_PASSES and elapsed + elapsed / passes > self.seconds:
                break
            if time.perf_counter() - self.started > RUN_BUDGET_S - 30:
                break
            for inst in self.instances:
                if time.perf_counter() - last_ref >= REF_EVERY_S:
                    last_ref = time.perf_counter()
                    self.ref_walls.append(self.reference())
                self.run_instance(inst, self.hash_seed(passes + 1))
            passes += 1
        self.passes = passes
        return time.perf_counter() - t0

    def digest(self) -> str:
        """One digest over every --json output (first repeat of each input, by name)."""
        h = hashlib.sha256()
        for name in sorted(self.outputs):
            h.update(name.encode() + b"\n" + self.outputs[name])
        return h.hexdigest()


def tail_percentile(samples: int) -> int:
    """Highest whole percentile with at least 10 samples beyond it (0 below 12 samples)."""
    return max(0, (100 * (samples - 11)) // (samples - 1))


def percentile(values: list[float], p: int) -> float:
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def commit_of(root: Path) -> str:
    """The checked-out commit, read from .git without running git; 'unknown' if absent."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = root / ".git" / name
        if path.is_file():
            return path.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def untraced(run: Run, setup_times: list[float], setup_refs: list[float]) -> tuple[dict, list[tuple]]:
    loop_s = run.timed_loop()
    ops = sum(len(v) for v in run.samples.values())
    rss_mb = run.peak_rss_mb
    setup_raw = statistics.median(setup_times)
    setup_s = setup_raw * REF_CHILD_S / statistics.median(setup_refs)
    rows = [
        ("setup_raw_s", setup_raw, "s", f"median of {len(setup_times)} set-ups; not gated"),
        ("setup_s", setup_s, "s", f"setup_raw_s times {REF_CHILD_S} over the median of {len(setup_refs)} "
         "reference children, one after each set-up"),
    ]
    metrics = {"setup_s": (setup_s, "s")}
    typical = {key: statistics.median(wall for wall, _ in walls) for key, walls in run.by_input.items()}
    ref = statistics.median(run.ref_walls)
    scale = REF_CHILD_S / ref  # to a host on which the reference child takes REF_CHILD_S
    rows.append(("ref_child_s", ref, "s", f"median of {len(run.ref_walls)} reference children; not gated"))
    for op in ("analyze", "verify", "infer"):
        values = run.samples[op]
        if not values:
            continue
        p = tail_percentile(len(values))
        p50, tail = statistics.median(values), percentile(values, p)
        rows.append((f"{op}_p50_s", p50, "s", f"n={len(values)}"))
        rows.append((f"{op}_tail_s", tail, "s", f"p{p}, n={len(values)}"))
        if op == SOLVE_OP.get(run.workload, "analyze"):
            mean = statistics.mean(values)
            rows.append(("solve_mean_s", mean, "s", f"mean of the {len(values)} {op} children; not gated"))
            solve = statistics.mean(t for key, t in typical.items() if key.startswith(op + " "))
            n_inputs = sum(1 for key in typical if key.startswith(op + " "))
            rows.append(("solve_med_s", solve, "s",
                         f"mean over {n_inputs} inputs of the median of {run.passes} {op} children; not gated"))
            metrics["solve_ref_s"] = (solve * scale, "s")
            rows.append(("solve_ref_s", solve * scale, "s", f"solve_med_s times {scale:.4f}"))
    ops_per_s = len(typical) / sum(typical.values())
    metrics["ops_per_ref_s"] = (ops_per_s / scale, "1/s")
    metrics["peak_rss_mb"] = (rss_mb, "MB")
    rows.append(("ops_per_s", ops_per_s, "1/s",
                 f"{len(typical)} CLI ops of a pass over the sum of their median of {run.passes} walls; not gated"))
    rows.append(("ops_per_ref_s", ops_per_s / scale, "1/s", f"ops_per_s divided by {scale:.4f}"))
    rows.append(("loop_ops_per_s", ops / loop_s, "1/s",
                 f"{ops} CLI ops in {loop_s:.2f} s, {run.passes} passes; not gated"))
    rows.append(("failed_frac", run.failed / max(1, run.attempted), "frac", f"{run.failed} of {run.attempted} ops"))
    rows.append(("peak_rss_mb", rss_mb, "MB", "largest max-RSS of a valkit child"))
    start, import_s = run.interpreter_costs()
    rows.append(("cli.interp_start_s", start, "s", f"median of {INTERP_REPEATS}; not gated"))
    rows.append(("cli.import_s", import_s, "s", f"median of {INTERP_REPEATS}, minus start; not gated"))
    return metrics, rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "valkit" / "cli.py").is_file():
        print(f"error: no valkit sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2

    os.chdir(ROOT)  # inputs and reports are named relative to the root, as a user would
    # One CPU for the runner and its children (they inherit it), so that the
    # reference child runs where valkit's children run; only one is busy at a time.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    run = Run(args.workload, args.seed, args.seconds)
    setup_times, setup_refs = [], []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        setup_times.append(run.setup())
        if not args.trace:
            setup_refs.append(run.reference())
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit_of(ROOT),
        "instances": len(run.instances),
    }
    if args.trace:
        import tracing

        metrics, rows = tracing.traced(run)
    else:
        metrics, rows = untraced(run, setup_times, setup_refs)
    meta["json_digest"] = run.digest()

    print(" ".join(f"{k}={v}" for k, v in meta.items()))
    for name, value, unit, note in rows:
        print(f"  {name:48} {value:12.6g} {unit:6} {note}")
    for line in run.failures[:20]:
        print(f"  FAILED {line}")
    results = {
        "meta": meta,
        "metrics": {name: {"value": value, "unit": unit, "note": note} for name, value, unit, note in rows},
        "failures": run.failures,
        "wall_s_by_input": run.by_input,
        "ref_child_walls": run.ref_walls,
    }
    (run.workdir / f"results-trace{args.trace}.json").write_text(json.dumps(results, indent=1) + "\n")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
