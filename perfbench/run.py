"""Run one benchmark workload and print its result.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload train --seed 0 --seconds 20 --trace 0

Workloads: ``train``, ``evaluate`` and ``serve-cold`` (see
``perfbench/LAYERS.md``).  ``--trace 0`` measures the end-to-end metrics;
``--trace 1`` measures the per-layer split from spans recorded around calls
into the program's layers.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it describe the host and the run.

Set-up time is measured three times: in this process and in two fresh
processes started with ``--setup-only``, which set the workload up, tear it
down and print the time it took.  ``setup_s`` is the median of the three.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "src")

#: OpenBLAS starts a thread per core by default.  The policy's matrices are
#: small, and on a two-core host those threads compete with the program's
#: own, which made timings swing by a third between processes.  The
#: benchmark runs the program with one BLAS thread; the host line records it.
BLAS_THREADS = "1"

WORKLOADS = ("train", "evaluate", "serve-cold")

#: Set-up runs measured per run: this process and ``SETUP_SAMPLES - 1``
#: fresh ones.
SETUP_SAMPLES = 3

#: ``--trace 0`` prints exactly these, on every workload.
END_TO_END = (
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

#: ``--trace 1`` prints these and a ``<span>_s`` and ``<span>_calls`` for
#: every span in ``perfbench.spans.ENTRY_POINTS``, on every workload; a
#: layer a workload does not reach reads 0.
LAYER_EXTRAS = (
    ("rl.act_batch_rows", "count"),
    ("rl.update.gather_s", "s"),
    ("rl.update.evaluate_s", "s"),
    ("rl.update.backward_s", "s"),
    ("rl.update.optimizer_s", "s"),
    ("frontend.memo_hit_ratio", "ratio"),
    ("simulator.memo_hit_ratio", "ratio"),
    ("simulator.cost_sweeps", "count"),
    ("simulator.cost_memo_hit_ratio", "ratio"),
    ("cache.hit_ratio", "ratio"),
    ("cache.misses", "count"),
    ("cache.compiles_avoided", "count"),
    ("serving.batch_size_mean", "count"),
    ("serving.ticks", "count"),
    ("serving.coalesced_share", "ratio"),
    ("serving.rejected", "ratio"),
    ("serving.tier_share.store", "ratio"),
    ("serving.tier_share.frontend", "ratio"),
    ("serving.tier_share.cold", "ratio"),
    ("serving.service_p50_ms", "ms"),
    ("serving.edge_ms", "ms"),
    ("trace.overhead_share", "ratio"),
    ("trace.unattributed_share", "ratio"),
    ("quality.speedup_geomean", "ratio"),
)


def per_layer_metrics():
    """Every ``--trace 1`` metric as ``(name, unit)``."""
    from perfbench.spans import ENTRY_POINTS

    spans = []
    for name in dict.fromkeys(entry[0] for entry in ENTRY_POINTS):
        spans += [(f"{name}_s", "s"), (f"{name}_calls", "count")]
    return tuple(spans) + LAYER_EXTRAS


def make_workload(name: str, seed: int):
    if name == "train":
        from perfbench.workloads import Train

        return Train(seed)
    if name == "evaluate":
        from perfbench.workloads import Evaluate

        return Evaluate(seed)
    from perfbench.serve import ServeCold

    return ServeCold(seed)


def host_fingerprint() -> dict:
    import ctypes
    import glob

    import numpy

    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    threads = None
    for library in glob.glob(os.path.join(os.path.dirname(numpy.__file__) + ".libs", "*openblas*")):
        handle = ctypes.CDLL(library)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                threads = getter()
                break
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": threads,
    }


def setup_in_fresh_process(args) -> float:
    command = [
        sys.executable,
        os.path.abspath(__file__),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--setup-only",
    ]
    completed = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=120, env=dict(os.environ)
    )
    if completed.returncode != 0:
        raise RuntimeError(f"set-up in a fresh process failed:\n{completed.stderr}")
    return float(json.loads(completed.stdout.strip().splitlines()[-1])["setup_s"])


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true", help="set the workload up, print the time, exit"
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SOURCE, "repro")):
        print(f"no program to measure: {SOURCE}/repro is missing", file=sys.stderr)
        return 2
    os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
    sys.path[:0] = [SOURCE, ROOT]

    workload = make_workload(args.workload, args.seed)
    workload.setup()
    setup_s = time.perf_counter() - STARTED
    if args.setup_only:
        workload.close()
        print(json.dumps({"setup_s": setup_s}))
        return 0

    from perfbench.spans import Tracer

    try:
        outcome = workload.run(args.seconds, Tracer() if args.trace else None)
    finally:
        workload.close()
    if not args.trace:
        samples = [setup_s] + [setup_in_fresh_process(args) for _ in range(SETUP_SAMPLES - 1)]
        outcome.metrics["setup_s"] = (statistics.median(samples), "s")
        outcome.notes.append("setup_s samples: " + ", ".join(f"{s:.3f}" for s in samples))

    expected = per_layer_metrics() if args.trace else END_TO_END
    unexpected = set(outcome.metrics) - {name for name, _unit in expected}
    if unexpected:
        raise RuntimeError(f"metrics missing from the declared list: {sorted(unexpected)}")
    print(json.dumps({"host": host_fingerprint(), "workload": args.workload, "seed": args.seed}))
    for note in outcome.notes:
        print(note)
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": float(outcome.metrics.get(name, (0.0, unit))[0]), "unit": unit}
            for name, unit in expected
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
