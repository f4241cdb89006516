"""Benchmark entry point: one workload, timed end to end or traced by layer.

    python3 perfbench/run.py --workload cos-grid --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; the package is imported from the
checkout's src/. The run sets up the workload several times (import, inputs,
warm-up), computes its references, then repeats whole rounds of operations
until --seconds have passed, checking every result.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the end-to-end
ones listed in BENCHMARK.json. With --trace 1 they are the per-layer ones:
untraced and traced rounds alternate, the traced ones record spans around
the package's functions, and the tracing overhead is their difference. The
full record (environment, the named per-workload metrics, set-up samples, spans)
is written under perfbench/out/.
"""

import os

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# one BLAS/OpenMP thread, set before numpy is first imported
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from scipy import special  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_REPS = 5
END_TO_END_UNITS = {
    "setup_s": "s", "peak_rss_mb": "MB", "latency_p50_ref_s": "s", "throughput_ref_per_s": "1/s",
}
# Timings are scaled to a reference host speed: the probe below runs between
# rounds for PROBE_SHARE of the time, and a time t measured while the probe
# takes p seconds is reported as t * PROBE_REF_S / p. On a shared 2-core host
# the speed of one core swung by a factor of 2 within minutes, moving every
# timing with it. Over 5 s windows the coefficient of variation of COS, MC and
# gammaincinv timings was 0.10 to 0.14 raw, and 0.02 to 0.06 scaled.
PROBE_REF_S = 0.020
PROBE_SHARE = 0.1
PROBE_MIN_SAMPLES = 3
CLIP_MESSAGE = "clipping negative cosine price"


def import_package():
    """Import switchlevy afresh (numpy and scipy stay loaded), with the cli
    and data_io modules that the package root does not import."""
    for name in [n for n in sys.modules if n == "switchlevy" or n.startswith("switchlevy.")]:
        del sys.modules[name]
    sl = importlib.import_module("switchlevy")
    importlib.import_module("switchlevy.cli")
    return sl


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(seed: int) -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "switchlevy").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def probe() -> float:
    """Seconds for a fixed mix of the kinds of work the workloads do, without
    switchlevy: complex math on a small array, a Python loop, normal and gamma
    draws streamed through a large array, and gammaincinv."""
    u = np.linspace(0.0, 200.0, 4096)
    uniforms = np.linspace(0.001, 0.999, 2000)
    t0 = time.perf_counter()
    z = 1j * 0.1 * u - 0.045 * u * u
    acc = 0.0
    for k in range(20):
        w = -3.0 * np.log(1.0 - z / (1.5 + 0.01 * k))
        acc += float(np.real(np.exp(0.5 * w)).sum())
    for k in range(1500):
        acc += math.cos(k * 0.001) * math.exp(-k * 1e-4)
    rng = np.random.default_rng(1)
    acc += float((rng.standard_normal(1 << 17) * np.sqrt(rng.gamma(0.5, size=1 << 17))).sum())
    acc += float(special.gammaincinv(0.05, uniforms).sum())
    return time.perf_counter() - t0


def probe_for(seconds: float) -> list[float]:
    samples = []
    t_end = time.perf_counter() + seconds
    while len(samples) < PROBE_MIN_SAMPLES or time.perf_counter() < t_end:
        samples.append(probe())
    return samples


def count_clips(caught, start: int = 0) -> int:
    return sum(1 for w in caught[start:] if str(w.message).startswith(CLIP_MESSAGE))


def run_untraced(workload, seconds: float, caught, setup_times, setup_probes):
    """Rounds until `seconds` have passed, with the probe between them; the
    end-to-end metrics, and the raw and named per-workload ones for the info line."""
    rounds, probes = [], []
    t_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        rounds.append(workload.run_round(lambda: None))
        probes += probe_for(PROBE_SHARE * (time.perf_counter() - t0))
        if time.perf_counter() - t_start >= seconds:
            break
    ops = [op for ops in rounds for op in ops]
    raw, named = workload.metrics(rounds)
    scale = PROBE_REF_S / statistics.median(probes)
    setup_scale = PROBE_REF_S / statistics.median(setup_probes)
    metrics = {
        "setup_s": statistics.median(setup_times) * setup_scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "latency_p50_ref_s": raw["latency_p50_s"] * scale,
        "throughput_ref_per_s": raw["throughput_per_s"] / scale,
    }
    named["cos_clips"] = (count_clips(caught), "count")
    named["failed_frac"] = (
        sum(op.failed for op in ops) / sum(op.attempted for op in ops), "failed/attempted"
    )
    info = {
        "raw": raw | {"setup_s": statistics.median(setup_times)},
        "probe_s": {"setup": statistics.median(setup_probes), "run": statistics.median(probes)},
        "named_metrics": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
    }
    return ops, metrics, info


def run_traced(workload, seconds: float, caught, spans, units: dict):
    """Alternate untraced and traced rounds until `seconds` have passed; the
    per-layer metrics of the traced rounds, whose counts must repeat exactly
    from round to round, and the spans of every traced round."""
    recorder = spans.Recorder()
    patches = spans.Patches(recorder)
    ops, untraced, traced, per_round, span_rounds = [], [], [], [], []

    def begin_op():
        recorder.op += 1

    t_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        ops += workload.run_round(lambda: None)
        untraced.append(time.perf_counter() - t0)

        recorder.spans, recorder.op = [], 0
        n_caught = len(caught)
        with patches:
            t0 = time.perf_counter()
            ops += workload.run_round(begin_op)
            wall = time.perf_counter() - t0
        traced.append(wall)
        metrics = spans.layer_metrics(
            recorder.spans, wall, workload.otm_maturities, workload.n_iters
        )
        metrics["cos.clips"] = count_clips(caught, n_caught)
        per_round.append(metrics)
        span_rounds.append(recorder.spans)
        if time.perf_counter() - t_start >= seconds:
            break

    metrics = {}
    for name, unit in units.items():
        if not name.startswith("trace."):
            values = [m[name] for m in per_round]
            metrics[name] = values[0] if unit == "count" else statistics.median(values)
    metrics["trace.round_s"] = statistics.median(traced)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    mismatched = sorted(
        name for name, unit in units.items()
        if unit == "count" and len({m[name] for m in per_round}) > 1
    )
    info = {"rounds": len(per_round), "mismatched_counts": mismatched}
    return ops, metrics, info, span_rounds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "switchlevy" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: run from a checkout holding src/switchlevy and BENCHMARK.json "
              f"(looked in {ROOT})", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in section}

    sys.path.insert(0, str(SRC))
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if units != (spans.per_layer_units() if args.trace else END_TO_END_UNITS):
        print("error: the metrics this benchmark reports differ from BENCHMARK.json",
              file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    workload_cls = workloads.WORKLOADS[args.workload]

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t0 = time.perf_counter()
        sl = import_package()
        cold_import_s = time.perf_counter() - t0
        if not Path(sl.__file__).resolve().is_relative_to(SRC.resolve()):
            print(f"error: switchlevy was imported from {sl.__file__}, not {SRC}",
                  file=sys.stderr)
            return 2
        setup_times, setup_probes = [], []
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            sl = import_package()
            workload = workload_cls(sl, args.seed, OUT_DIR)
            workload.warm_up()
            setup_times.append(time.perf_counter() - t0)
            setup_probes += probe_for(0.0)
        workload.prepare_checks()
        del caught[:]

        if args.trace:
            ops, metrics, info, span_rounds = run_traced(
                workload, args.seconds, caught, spans, units
            )
        else:
            ops, metrics, info = run_untraced(
                workload, args.seconds, caught, setup_times, setup_probes
            )

    attempted = sum(op.attempted for op in ops)
    failed = sum(op.failed for op in ops)
    for message in workload.failures:
        print(f"check failed: {message}", file=sys.stderr)
    mismatched = info.get("mismatched_counts", [])
    for name in mismatched:
        print(f"benchmark error: count {name} differs between identical rounds", file=sys.stderr)
    result = {
        "correct": failed == 0 and not mismatched,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    info |= {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(args.seed),
        "setup_samples_s": setup_times,
        "cold_import_s": cold_import_s,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = info | {"ops": [[op.kind, op.seconds] for op in ops], "result": result}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record))
    if args.trace:
        spans.write_spans(OUT_DIR / f"{stem}-spans.json", span_rounds)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
