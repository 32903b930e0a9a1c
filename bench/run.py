#!/usr/bin/env python3
"""qleb benchmark: one closed-loop client per workload, outputs checked.

    python3 bench/run.py --workload {small-calls,large-spectra} \
        --seed N --seconds S --trace {0,1}

Run from the repository root (any directory works: paths are resolved from
this file). The library is imported from ``src/`` next to this directory; the
run fails with a non-zero exit code when it is missing.

One client runs the workload's op cycle (see ``workloads.py``) in a closed
loop: each op starts when the previous one has finished and been checked.
Whole cycles run until the timed op time reaches ``--seconds`` and the tail
percentile has at least ten samples beyond it. OpenBLAS, OpenMP and MKL are
pinned to one thread here and in every child process.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs the loop
untraced, then traced (``tracer.py``), runs the op kinds of the other
workload and the CLI commands as probes, and prints the per-layer metrics,
including the traced run's throughput against the untraced run's. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("QLEB_TOL_PROFILE", None)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("small-calls", "large-spectra")
# Fixed per workload so that a run and its parent report the same percentile;
# the loop runs until at least ten samples lie beyond it.
TAIL_PERCENTILE = {"small-calls": 99, "large-spectra": 80}
SETUP_ROUNDS = 3


def fail(message: str, code: int = 2):
    sys.stderr.write(f"error: {message}\n")
    sys.exit(code)


def import_library():
    """Put ``src/`` first on the import path of this process and its children."""
    if not (SRC / "qleb" / "__init__.py").is_file():
        fail(f"library sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    import qleb

    if Path(qleb.__file__).resolve().parent != (SRC / "qleb").resolve():
        fail(f"imported qleb from {qleb.__file__}, not from {SRC}")


def make_workdir(tag: str) -> Path:
    path = BENCH / "_work" / f"{tag}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def median(xs) -> float:
    return float(statistics.median(xs))


# -- executing ops ------------------------------------------------------------------------

class Ledger:
    """Attempted ops, failures and timings of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []
        self.times = defaultdict(list)  # kind -> in-process seconds
        self.proc_times = defaultdict(list)  # CLI kind -> process seconds
        self.defects = defaultdict(lambda: [0, 0])  # kind -> [defect shown, calls]

    def record(self, op, result, raised: bool) -> None:
        self.attempted += 1
        if raised:
            message = f"raised {type(result).__name__}: {result}"
        else:
            try:
                if op.defect is not None:
                    tally = self.defects[op.kind]
                    tally[0] += bool(op.defect(result))
                    tally[1] += 1
                message = op.check(result)
                if message is None and op.argv is not None:
                    if op.reference is None:
                        op.reference = result[1]
                    elif result[1] != op.reference:
                        message = "report bytes differ from the first run of this command"
            except Exception as exc:  # a malformed output must not stop the run
                message = f"check raised {type(exc).__name__}: {exc}"
        if message is not None:
            self.failures.append(f"{op.kind}: {message}")

    def run_in_process(self, op, keep_time: bool = True) -> float:
        """Run and check ``op``; traced runs do not keep their times as op times."""
        start = time.perf_counter()
        try:
            result, raised = op.call(), False
        except Exception as exc:
            result, raised = exc, True
        elapsed = time.perf_counter() - start
        if keep_time:
            self.times[op.kind].append(elapsed)
        self.record(op, result, raised)
        return elapsed

    def run_process(self, op) -> float:
        """Run and check a CLI op as a ``python -m qleb.cli`` process."""
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "qleb.cli", *op.argv],
                              capture_output=True, cwd=ROOT)
        elapsed = time.perf_counter() - start
        self.proc_times[op.kind].append(elapsed)
        self.record(op, (proc.returncode, proc.stdout), False)
        return elapsed


class Reference:
    """A fixed piece of numpy work, timed all through a run; it runs no qleb code.

    The host's speed drifts by tens of percent over tens of seconds, and it
    moves op times and this reference together. Dividing each op time by the
    median of the last five reference samples gives a time in reference units
    that drifts much less with the host. The work resembles the workload's
    ops: small numpy calls, and for ``large-spectra`` one LAPACK eigensolve.
    """

    INTERVAL_S = 0.25
    WINDOW = 5

    def __init__(self, workload: str) -> None:
        import numpy as np

        rng = np.random.default_rng(0)

        def hermitian(d):
            G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            return (G + G.conj().T) / 2

        eigh = np.linalg.eigh  # bound now: the traced run wraps np.linalg.eigh
        A, B = hermitian(8), hermitian(8)
        H = hermitian(128) if workload == "large-spectra" else None

        def work():
            for _ in range(40):
                w, V = eigh(A)
                C = (V * w) @ V.conj().T
                np.linalg.norm(C - B)
                np.trace(C @ B).real
            if H is not None:
                eigh(H)
        self._work = work
        self.samples: list[float] = []
        self.due = -float("inf")  # perf_counter time of the next sample

    def local(self) -> float:
        """Median of the latest reference samples, taking a new one when due."""
        now = time.perf_counter()
        if now >= self.due:
            self._work()
            end = time.perf_counter()
            self.samples.append(end - now)
            self.due = end + self.INTERVAL_S
        return median(self.samples[-self.WINDOW:])


class Loop:
    """Op times of one closed loop, in seconds and in reference units."""

    def __init__(self, reference: Reference) -> None:
        self.seconds: list[float] = []
        self.refs: list[float] = []
        self.reference = reference

    def throughput(self) -> float:
        return len(self.seconds) / sum(self.seconds)

    def throughput_per_ref(self) -> float:
        return len(self.refs) / sum(self.refs)


def closed_loop(ops, seconds: float, min_samples: int, execute, reference: Reference) -> Loop:
    """Run whole cycles of ``ops`` until ``seconds`` of op time and ``min_samples`` ops.

    A slow host gets at most twice ``seconds`` to reach ``min_samples``. The
    reference starts afresh, so that op times are divided by this loop's samples.
    """
    reference.samples.clear()
    reference.due = -float("inf")
    loop = Loop(reference)
    busy = 0.0
    while busy < seconds or (len(loop.seconds) < min_samples and busy < 2 * seconds):
        for op in ops:
            ref = loop.reference.local()
            elapsed = execute(op)
            loop.seconds.append(elapsed)
            loop.refs.append(elapsed / ref)
            busy += elapsed
    return loop


def percentile(xs, p: int) -> float:
    """The ``p``-th percentile, interpolated between the nearest samples."""
    return statistics.quantiles(xs, n=100, method="inclusive")[p - 1]


def min_samples_for(p: float) -> int:
    return int(10 / (1 - p / 100.0)) + 1


# -- set-up -------------------------------------------------------------------------------

def set_up(workload: str, seed: int, ledger: Ledger | None):
    """Seeded inputs and one warm-up call of every op; checks warm-up results if asked."""
    import workloads

    workdir = make_workdir(workload)
    ops = workloads.build(workload, seed, str(workdir))
    for op in ops:
        if ledger is None:
            op.call()
        else:
            ledger.run_in_process(op, keep_time=False)
    return ops, workdir


def setup_seconds(workload: str, seed: int) -> float:
    """Median wall time of fresh interpreters that import, generate and warm up."""
    rounds = []
    for _ in range(SETUP_ROUNDS):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-round",
             "--workload", workload, "--seed", str(seed)],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, cwd=ROOT)
        rounds.append(time.perf_counter() - start)
        if proc.returncode != 0:
            fail(f"set-up round failed: {proc.stderr.decode(errors='replace')}")
    return median(rounds)


# -- end-to-end run -----------------------------------------------------------------------

def end_to_end(workload: str, seed: int, seconds: float) -> dict:
    setup_s = setup_seconds(workload, seed)
    ledger = Ledger()
    ops, workdir = set_up(workload, seed, ledger)
    p = TAIL_PERCENTILE[workload]
    loop = closed_loop(ops, seconds, min_samples_for(p), ledger.run_in_process,
                       Reference(workload))
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    n = len(loop.seconds)
    tail = percentile(loop.refs, p)
    beyond = sum(x > tail for x in loop.refs)
    print(f"# {workload} seed={seed}: {n} ops in {n // len(ops)} cycles of {len(ops)}, "
          f"{sum(loop.seconds):.2f} s of op time; latency_tail_ref is p{p} "
          f"with {beyond} of {n} samples beyond it")
    print(f"# in seconds: {loop.throughput():.4g} ops/s, p50 {median(loop.seconds) * 1e3:.4g} ms, "
          f"p{p} {percentile(loop.seconds, p) * 1e3:.4g} ms; reference op "
          f"{median(loop.reference.samples) * 1e3:.4g} ms (median of {len(loop.reference.samples)})")
    report_shares(ledger)
    metrics = {
        "setup_s": (setup_s, "s"),
        "throughput_per_ref": (loop.throughput_per_ref(), "1/ref"),
        "latency_p50_ref": (median(loop.refs), "ref"),
        "latency_tail_ref": (tail, "ref"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    return finish(ledger, metrics, workdir)


def report_shares(ledger: Ledger) -> None:
    total = sum(sum(v) for v in ledger.times.values())
    shares = sorted(((sum(v) / total, k) for k, v in ledger.times.items()), reverse=True)
    print("# op time shares: " + ", ".join(f"{k} {s:.1%}" for s, k in shares))


def finish(ledger: Ledger, metrics: dict, workdir: Path) -> dict:
    import workloads

    shutil.rmtree(workdir, ignore_errors=True)
    contradictions = workloads.cutoff_contradictions()
    print(f"# known cutoff defect: is_singular and rho << sigma both hold on {contradictions} "
          f"of {len(workloads.CUTOFF_EPS)} near-cutoff pairs rho=diag(1,0), sigma=diag(e,1-e)")
    for kind, (shown, calls) in sorted(ledger.defects.items()):
        print(f"# known defect: {kind} on orthogonal supports answered True in {shown} of {calls} calls")
    for line in ledger.failures[:20]:
        print(f"# FAILED {line}")
    return {
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


# -- traced run ---------------------------------------------------------------------------

def traced(workload: str, seed: int, seconds: float) -> dict:
    import numpy as np

    import tracer as tracing
    import workloads

    ledger = Ledger()
    ops, workdir = set_up(workload, seed, ledger)
    own_kinds = {op.kind for op in ops}
    others: dict[str, list] = defaultdict(list)
    for other in workloads.OP_SETS:
        if other != workload:
            for op in workloads.build(other, seed, str(workdir)):
                others[op.kind].append(op)

    phase = seconds / 2
    reference = Reference(workload)  # made before the tracer wraps np.linalg.eigh
    untraced = closed_loop(ops, phase, 0, ledger.run_in_process, reference)

    for kops in others.values():
        probe_untraced(ledger, kops)
    eigh_s = eigh_reference(np.random.default_rng(seed))
    numpy_ms, import_ms = import_times()

    tracer = tracing.Tracer()
    tracer.install()
    try:
        def run_traced(op):
            tracer.begin_op(op.kind)
            return ledger.run_in_process(op, keep_time=False)

        traced_run = closed_loop(ops, phase, 0, run_traced, reference)
        for kops in others.values():
            for op in kops:
                run_traced(op)
    finally:
        tracer.uninstall()

    stats = tracer.by_kind
    self_check(stats)
    metrics = layer_metrics(stats, own_kinds, ledger, eigh_s)
    metrics["cli.numpy_import_ms"] = (numpy_ms, "ms")
    metrics["cli.import_ms"] = (import_ms, "ms")
    ratio = traced_run.throughput_per_ref() / untraced.throughput_per_ref()
    metrics["trace.throughput_ratio"] = (ratio, "ratio")
    print(f"# traced {workload} seed={seed}: traced throughput {traced_run.throughput():.4g}/s "
          f"vs untraced {untraced.throughput():.4g}/s; {ratio:.3f} in reference units")
    return finish(ledger, metrics, workdir)


def probe_untraced(ledger: Ledger, kops: list) -> None:
    """At least three runs and 0.2 s of one op kind that the workload does not run."""
    for op in kops:
        op.call()  # warm-up
    spent, reps = 0.0, 0
    while reps < 3 or (spent < 0.2 and reps < 200):
        spent += ledger.run_in_process(kops[reps % len(kops)])
        reps += 1
    for op in kops:
        if op.argv is not None:
            ledger.run_process(op)


def eigh_reference(rng) -> dict:
    """Median seconds of one ``np.linalg.eigh`` of a complex Hermitian matrix per size."""
    import numpy as np

    out = {}
    for d, reps in ((2, 2001), (8, 1001), (64, 101), (256, 11)):
        G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        H = (G + G.conj().T) / 2
        ts = []
        for _ in range(reps):
            start = time.perf_counter()
            np.linalg.eigh(H)
            ts.append(time.perf_counter() - start)
        out[d] = median(ts)
    return out


def import_times() -> tuple[float, float]:
    """Median wall ms of fresh interpreters running ``import numpy`` / ``import qleb``."""
    result = []
    for stmt in ("import numpy", "import qleb"):
        ts = []
        for _ in range(3):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", stmt], check=True, cwd=ROOT)
            ts.append(time.perf_counter() - start)
        result.append(median(ts) * 1e3)
    return result[0], result[1]


DEC = "lebesgue.lebesgue_decompose"


def decompositions_per_expansion(stats) -> float:
    s = stats["expansion.spin-perturbed"]
    return s.under("qlan.sqrt_expansion_check", DEC) / s.calls("qlan.sqrt_expansion_check")


def self_check(stats) -> None:
    """The spans must see every decomposition the code makes."""
    per_expansion = decompositions_per_expansion(stats)
    pure = stats["pure.spin-overlap-sqrt"]
    per_pure = pure.under("contiguity.pure_criterion", DEC) / pure.calls("contiguity.pure_criterion")
    if per_expansion != 24 or per_pure != 13:
        fail(f"trace self-check: {per_expansion} decompositions per expansion check (want 24), "
             f"{per_pure} per spin-overlap pure criterion (want 13)", 3)


def layer_metrics(stats, own_kinds, ledger: Ledger, eigh_s: dict) -> dict:
    """Per-layer metrics: op times from untraced runs, the rest from traced ones."""
    import tracer as tracing
    import workloads

    own = [stats[k] for k in own_kinds]
    ops = sum(s.ops for s in own)

    def per_op(fn) -> float:
        return sum(fn(s) for s in own) / ops

    def eigensolves(s, under=None) -> int:
        if under is None:
            return sum(s.calls(e) for e in tracing.EIGENSOLVES)
        return sum(s.under(under, e) for e in tracing.EIGENSOLVES)

    def op_ms(*prefixes: str) -> float:
        return median([t for k, ts in ledger.times.items() if k.startswith(prefixes)
                       for t in ts]) * 1e3

    m = {
        "matcore.eigensolves_per_op": (per_op(eigensolves), "count"),
        "matcore.hermitian_checks_per_op": (
            per_op(lambda s: s.calls("matcore.check_hermitian")), "count"),
        "matcore.self_ms_per_op": (per_op(lambda s: s.layer_self["matcore"]) * 1e3, "ms"),
        "matcore.lapack_ms_per_op": (per_op(lambda s: s.layer_self[tracing.KERNEL]) * 1e3, "ms"),
    }
    for d in (64, 256):
        s = stats[f"decompose.d{d}.full"]
        m[f"matcore.geometric_mean_ms.d{d}"] = (s.incl("matcore.geometric_mean") / s.ops * 1e3,
                                                "ms")
    for d in (2, 8, 64, 256):
        kind = f"decompose.d{d}.full"
        t = median(ledger.times[kind])
        m[f"lebesgue.decompose_ms.d{d}"] = (t * 1e3, "ms")
        m[f"lebesgue.decompose_eigh_eq.d{d}"] = (t / eigh_s[d], "eigh")
        m[f"lebesgue.eigensolves_per_decompose.d{d}"] = (
            eigensolves(stats[kind], DEC) / stats[kind].calls(DEC), "count")
    decompositions = sum(s.calls(DEC) for s in own)
    m["lebesgue.eigensolves_per_decompose"] = (
        sum(eigensolves(s, DEC) for s in own) / decompositions, "count")
    m["lebesgue.self_ms_per_decompose"] = (
        sum(s.self_time(DEC) for s in own) / decompositions * 1e3, "ms")
    m["lebesgue.predicate_ms"] = (op_ms("is_singular.", "is_abs_continuous."), "ms")
    m["lebesgue.cutoff_contradictions"] = (float(workloads.cutoff_contradictions()), "count")
    m["lebesgue.orthogonal_ac_errors"] = (
        float(sum(shown > 0 for shown, _ in ledger.defects.values())), "count")

    criteria = ("kakutani.", "block.", "pure.", "limit.")
    for prefix in criteria:
        m[f"contiguity.{prefix[:-1]}_ms"] = (op_ms(prefix), "ms")
    m["contiguity.self_ms_per_op"] = (per_op(lambda s: s.layer_self["contiguity"]) * 1e3, "ms")
    per_criterion = [s.calls(DEC) / s.ops for k, s in stats.items() if k.startswith(criteria)]
    m["contiguity.decompose_calls_per_op"] = (sum(per_criterion) / len(per_criterion), "count")
    m["presets.family_eval_ms_per_op"] = (
        per_op(lambda s: s.layer_entered["presets"]) * 1e3, "ms")

    qcf = stats["gaussian_qcf"]
    m["gaussian.qcf_us"] = (op_ms("gaussian_qcf") * 1e3, "us")
    m["gaussian.eigensolves_per_qcf"] = (
        eigensolves(qcf, "gaussian.gaussian_qcf") / qcf.calls("gaussian.gaussian_qcf"), "count")
    m["qlan.expansion_ms"] = (op_ms("expansion.spin-perturbed"), "ms")
    m["qlan.clt_ms"] = (op_ms("clt.spin-perturbed"), "ms")
    m["qlan.decompose_calls_per_expansion"] = (
        decompositions_per_expansion(stats), "count")
    clt = stats["clt.spin-perturbed"]
    m["qlan.unitary_exp_calls_per_clt"] = (
        clt.under("qlan.lecam3_numeric_check", "matcore.unitary_exp")
        / clt.calls("qlan.lecam3_numeric_check"), "count")

    for kind in sorted(ledger.proc_times):
        command = kind[len("cli."):]
        m[f"cli.main_ms.{command}"] = (median(ledger.times[kind]) * 1e3, "ms")
        m[f"cli.process_ms.{command}"] = (median(ledger.proc_times[kind]) * 1e3, "ms")
    return m


# -- entry point --------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-round", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    import_library()
    if args.setup_round:
        _, workdir = set_up(args.workload, args.seed, None)
        shutil.rmtree(workdir, ignore_errors=True)
        return 0
    if args.trace:
        result = traced(args.workload, args.seed, args.seconds)
    else:
        result = end_to_end(args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
