"""Benchmark of the ``genfields`` command line, end to end and layer by layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cli-interactive --seed 1 --seconds 20 --trace 0

Every operation is one ``python -m genfields ...`` subprocess run against the
checkout's own ``src/``: interpreter start, import, parse, compute, render,
write.  The load is a closed loop -- one client, the next invocation starts
when the previous one has exited -- and each child may use 2 BLAS threads.

``--trace 0`` generates the workload's inputs from ``--seed``, sets up (a
fresh copy of the inputs plus one warm-up invocation, three times), then
runs whole passes of the workload for ``--seconds`` and reports the
end-to-end metrics.  ``--trace 1`` makes the separate traced run: the same
pass called in-process through ``genfields.cli.main`` with the layers
wrapped (``tracing.py``), plus an ``-X importtime`` breakdown of start-up,
and reports the per-layer metrics.  Every output is checked against a
plain-numpy recomputation (``checks.py``) and against the first pass, byte
for byte.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is non-zero when a
check failed.
"""

from __future__ import annotations

import os
import sys

# Children and the traced in-process run get at most two BLAS threads, the
# core count the benchmark is sized for; set before numpy is imported.
BLAS_THREADS = {var: "2" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import gen  # noqa: E402
import metrics  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")
OUT = os.path.join(ROOT, ".perfbench-out")

SETUP_RUNS = 3
IMPORT_RUNS = 5
CHILD_TIMEOUT_S = 120.0
RUN_BUDGET_S = 150.0


@dataclass
class Sample:
    label: str
    wall: float
    cpu: float = 0.0
    rss_mb: float = 0.0
    scale: float = 1.0  # reference speed / machine speed around this sample


class Calibration:
    """Machine-speed probes interleaved with the measured invocations.

    On a host shared with other tenants, CPU speed moves by 15-30% within
    seconds, and an invocation's time tracks it closely.  A probe
    is a fresh ``python -c "import numpy"`` -- interpreter start plus the
    heaviest dependency import, which no change to this repository alters
    (it runs without ``src/`` on its path).  Each sample is rescaled by
    ``REFERENCE_S / mean(probe before, probe after)``, so times read as
    seconds at a fixed reference speed; raw medians are printed alongside.
    A probe follows an invocation once ``INTERVAL_S`` has passed since the
    previous one.
    """

    REFERENCE_S = 0.2
    INTERVAL_S = 1.0

    def __init__(self, cwd: str):
        self.cwd = cwd
        self.env = {k: v for k, v in child_env().items() if k != "PYTHONPATH"}
        self.events: list = []
        self.last = -math.inf

    def probe(self) -> None:
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import numpy"], cwd=self.cwd, env=self.env,
                       check=True, timeout=CHILD_TIMEOUT_S)
        self.last = time.perf_counter()
        self.events.append(self.last - start)

    def add(self, sample: Sample) -> Sample:
        self.events.append(sample)
        if time.perf_counter() - self.last >= self.INTERVAL_S:
            self.probe()
        return sample

    def finish(self) -> list[float]:
        """Probe once more, set every sample's scale, return the probe times."""
        if not isinstance(self.events[-1], float):
            self.probe()
        probes = [None] * len(self.events)
        for order in (range(len(self.events)), reversed(range(len(self.events)))):
            last = None
            for i in order:
                if isinstance(self.events[i], float):
                    last = self.events[i]
                elif last is not None:
                    probes[i] = (probes[i] or ()) + (last,)
        for event, around in zip(self.events, probes):
            if isinstance(event, Sample):
                event.scale = self.REFERENCE_S / statistics.fmean(around)
        return [e for e in self.events if isinstance(e, float)]


class Verifier:
    """Checks each invocation once against the reference, then byte for byte.

    The first output of a label is recomputed with plain numpy; every later
    output of that label must have the same digest (reports are
    deterministic).  Failures are kept with their reason.
    """

    def __init__(self):
        self.digests: dict[str, str] = {}
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0

    def verify(self, inv: workloads.Invocation, code: int, out: str, err: str, files: dict) -> None:
        self.attempted += 1
        reason = None
        if code != inv.expect:
            reason = f"exit code {code}, expected {inv.expect}: {err.strip()[-300:]}"
        else:
            h = hashlib.sha256(out.encode("utf-8"))
            for name in inv.outputs:
                h.update(files.get(name, b"<missing>"))
            digest = h.hexdigest()
            if inv.label not in self.digests:
                try:
                    inv.check(out, err, files)
                    self.digests[inv.label] = digest
                except (checks.CheckError, KeyError, IndexError, TypeError, ValueError) as exc:
                    reason = f"check failed: {type(exc).__name__}: {exc}"
            elif digest != self.digests[inv.label]:
                reason = "output differs from the first pass"
        if reason is not None:
            self.failed += 1
            self.failures.append(f"{inv.label}: {reason}")


def child_env() -> dict:
    env = dict(os.environ)
    # Byte-compile as an installed package would; the first set-up pays for it.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(BLAS_THREADS, PYTHONPATH=SRC)
    return env


def read_outputs(workdir: str, inv: workloads.Invocation) -> dict:
    files = {}
    for name in inv.outputs:
        path = os.path.join(workdir, name)
        if os.path.exists(path):
            with open(path, "rb") as fh:
                files[name] = fh.read()
    return files


def run_child(inv: workloads.Invocation, workdir: str, env: dict, verifier: Verifier) -> Sample:
    """One ``python -m genfields`` invocation, timed, with its rusage."""
    for name in inv.outputs:
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(workdir, name))
    out_path, err_path = os.path.join(workdir, ".stdout"), os.path.join(workdir, ".stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "genfields", *inv.argv],
                                cwd=workdir, env=env, stdout=out, stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as fh:
        stdout = fh.read().decode("utf-8", "replace")
    with open(err_path, "rb") as fh:
        stderr = fh.read().decode("utf-8", "replace")
    verifier.verify(inv, proc.returncode, stdout, stderr, read_outputs(workdir, inv))
    return Sample(inv.label, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def percentile(values: list[float], p: int) -> float:
    if p == 50 or len(values) < 2:
        return statistics.median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def prepare(workload: str, seed: int, work: str) -> tuple[str, dict, list]:
    template = os.path.join(work, "inputs")
    start = time.perf_counter()
    info, data = gen.generate(workload, seed, template)
    info["gen_s"] = time.perf_counter() - start
    invocations = workloads.PASSES[workload](info, data)
    return template, info, invocations


def setup(template: str, work: str, invocations: list, env: dict, verifier: Verifier,
          runs: int, calibration: Calibration | None = None):
    """A fresh copy of the inputs plus one warm-up invocation, ``runs`` times."""
    times, workdir = [], None
    for i in range(runs):
        if workdir is not None:
            shutil.rmtree(workdir)
        workdir = os.path.join(work, f"setup{i}")
        start = time.perf_counter()
        shutil.copytree(template, workdir)
        copied = time.perf_counter() - start
        times.append(Sample("setup", copied + run_child(invocations[0], workdir, env, verifier).wall))
        if calibration is not None:
            calibration.add(times[-1])
    return workdir, times


def measure(workload: str, seed: int, seconds: int, work: str, started: float):
    env = child_env()
    verifier = Verifier()
    template, info, invocations = prepare(workload, seed, work)
    calibration = Calibration(work)
    calibration.probe()
    workdir, setups = setup(template, work, invocations, env, verifier, SETUP_RUNS, calibration)
    passes = []
    start = time.perf_counter()
    while not passes or (time.perf_counter() - start < seconds
                         and time.perf_counter() - started < RUN_BUDGET_S):
        passes.append([calibration.add(run_child(inv, workdir, env, verifier))
                       for inv in invocations])
    measured = time.perf_counter() - start
    probes = calibration.finish()

    def summary(scaled: bool) -> dict:
        def t(s, attr="wall"):
            return getattr(s, attr) * (s.scale if scaled else 1.0)

        walls = [t(s) for p in passes for s in p]
        return {
            "setup_s": statistics.median(t(s) for s in setups),
            "wall_s": statistics.median(sum(t(s) for s in p) for p in passes),
            "cmd_s.p50": percentile(walls, 50),
            "cmd_s.tail": percentile(walls, tail_pct),
            "cpu_s": statistics.median(sum(t(s, "cpu") for s in p) for p in passes),
            "peak_rss_mb": statistics.median(max(s.rss_mb for s in p) for p in passes),
        }

    tail_pct = workloads.TAIL_PERCENTILE[workload]
    values, raw = summary(True), summary(False)
    walls = [s.wall * s.scale for p in passes for s in p]
    notes = [
        f"passes={len(passes)} invocations_per_pass={len(invocations)} measured_s={measured:.3f}",
        f"cmd_s.tail is p{tail_pct} over {len(walls)} invocations, "
        f"{sum(1 for w in walls if w > values['cmd_s.tail'])} above it",
        "setup_s is the median of: " + " ".join(f"{s.wall * s.scale:.4f}" for s in setups),
        f"speed probes: n={len(probes)} median={statistics.median(probes):.4f} s "
        f"min={min(probes):.4f} max={max(probes):.4f} (reference {Calibration.REFERENCE_S} s)",
        "raw, not rescaled: " + " ".join(f"{k}={v:.4f}" for k, v in raw.items()),
    ]
    return values, info, verifier, notes


# ------------------------------------------------------------- traced run ---

def importtime_breakdown(env: dict) -> dict:
    """Median over cold interpreters of ``-X importtime`` for ``import genfields.cli``."""
    runs = []
    for _ in range(IMPORT_RUNS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import genfields.cli"],
                              env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"import genfields.cli failed: {proc.stderr[-500:]}")
        runs.append(parse_importtime(proc.stderr))
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


def parse_importtime(text: str) -> dict:
    """Top-level, per-package and genfields-own import seconds from -X importtime."""
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        self_us, cum_us, name = line[len("import time:"):].split("|", 2)
        entries.append((len(name) - len(name.lstrip()), name.strip(), int(self_us), int(cum_us)))
    # Lines come children-first; reversed, a stack of open entries gives parents.
    parents, stack = {}, []
    for i in reversed(range(len(entries))):
        level = entries[i][0]
        while stack and entries[stack[-1]][0] >= level:
            stack.pop()
        parents[i] = stack[-1] if stack else None
        stack.append(i)

    def package(name):
        return name.split(".")[0]

    result = {"startup.import_s": sum(cum for _, n, _, cum in entries if n == "genfields.cli") / 1e6}
    for pkg in ("numpy", "scipy", "click"):
        result[f"startup.import_s.{pkg}"] = sum(
            cum for i, (_, n, _, cum) in enumerate(entries)
            if package(n) == pkg and (parents[i] is None or package(entries[parents[i]][1]) != pkg)
        ) / 1e6
    result["startup.import_s.genfields"] = sum(
        s for _, n, s, _ in entries if package(n) == "genfields") / 1e6
    return result


def run_inprocess(cli, inv, workdir: str, verifier: Verifier, tracer: tracing.Tracer | None):
    """Call ``genfields.cli.main`` once with captured stdout/stderr."""
    for name in inv.outputs:
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(workdir, name))
    out, err = io.StringIO(), io.StringIO()
    span = tracer.open(tracing.ROOT, "cli") if tracer else None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(inv.argv))
    except Exception:  # a crash is a failed invocation; keep measuring the rest
        code = -1
        err.write(traceback.format_exc())
    finally:
        wall = time.perf_counter() - start
        if span is not None:
            tracer.close(span)
            tracer.op += 1
    files = read_outputs(workdir, inv)
    verifier.verify(inv, code, out.getvalue(), err.getvalue(), files)
    out_bytes = len(out.getvalue().encode("utf-8")) + sum(len(b) for b in files.values())
    return Sample(inv.label, wall), out_bytes


def traced(workload: str, seed: int, seconds: int, work: str, started: float):
    env = child_env()
    verifier = Verifier()
    template, info, invocations = prepare(workload, seed, work)
    workdir, _ = setup(template, work, invocations, env, verifier, 1)
    values = importtime_breakdown(env)

    sys.path.insert(0, SRC)
    import genfields.cli as cli

    here = os.getcwd()
    os.chdir(workdir)
    tracer = tracing.Tracer()
    try:
        for inv in invocations:  # warm-up pass, not timed
            run_inprocess(cli, inv, workdir, verifier, None)
        plain, traced_passes = [], []
        half = seconds / 2.0
        start = time.perf_counter()
        while not plain or time.perf_counter() - start < half:
            plain.append(sum(run_inprocess(cli, inv, workdir, verifier, None)[0].wall
                             for inv in invocations))
        tracer.install()
        try:
            start = time.perf_counter()
            while not traced_passes or (time.perf_counter() - start < half
                                        and time.perf_counter() - started < RUN_BUDGET_S):
                first = len(tracer.spans)
                results = [run_inprocess(cli, inv, workdir, verifier, tracer) for inv in invocations]
                traced_passes.append((results, tracer.spans[first:]))
        finally:
            tracer.uninstall()
    finally:
        os.chdir(here)

    per_pass = []
    for results, spans in traced_passes:
        m = tracing.layer_metrics(spans)
        m["cli.out_mb"] = sum(b for _, b in results) / 1e6
        m["trace.traced_wall_s"] = sum(s.wall for s, _ in results)
        per_pass.append(m)
    for name in per_pass[0]:
        values[name] = statistics.median(m[name] for m in per_pass)
    values["trace.untraced_wall_s"] = statistics.median(plain)
    values["trace.overhead_s"] = values["trace.traced_wall_s"] - values["trace.untraced_wall_s"]

    for problem in tracing.nesting_violations(tracer.spans):
        verifier.failures.append(f"span nesting: {problem}")
    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, f"spans-{workload}-seed{seed}.jsonl")
    tracer.write(spans_path)
    notes = [f"untraced passes={len(plain)} traced passes={len(traced_passes)} "
             f"spans={len(tracer.spans)} written to {os.path.relpath(spans_path, ROOT)}"]
    return values, info, verifier, notes


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.PASSES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "genfields", "cli.py")):
        print(f"error: no genfields source tree at {SRC}", file=sys.stderr)
        return 2

    os.makedirs(WORK, exist_ok=True)
    work = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    try:
        run = traced if args.trace else measure
        values, info, verifier, notes = run(args.workload, args.seed, args.seconds, work, started)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)

    declared = metrics.PER_LAYER if args.trace else metrics.END_TO_END
    result_metrics = {name: {"value": values[name], "unit": unit} for name, unit, *_ in declared}
    failed = verifier.failed
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("inputs: " + json.dumps(info, sort_keys=True))
    for note in notes:
        print(note)
    for name, m in result_metrics.items():
        moves = f"  (should move: {metrics.MOVES[name]})" if args.trace else ""
        print(f"{name} = {m['value']!r} {m['unit']}{moves}")
    print(f"fail_ratio = {failed}/{verifier.attempted}")
    for failure in verifier.failures:
        print(f"FAILED {failure}")
    correct = not verifier.failures
    print(json.dumps({"correct": correct, "attempted": verifier.attempted,
                      "failed": failed, "metrics": result_metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
