"""Benchmark of sngcl's train-then-evaluate path.

    python3 perfbench/run.py --workload cora-quarter --seed 3 --seconds 50 --trace 0
    python3 perfbench/run.py --selfcheck

Run it from the root of a checkout.  It draws the workload's input from
the seed (cached under perfbench/.work/data), measures whole rounds of the
path for the given seconds, checks the outputs, and prints one JSON line
last: ``correct``, ``attempted`` (rounds), ``failed`` and the metrics named in
BENCHMARK.json, end-to-end ones with ``--trace 0`` and per-layer ones with
``--trace 1``.  The line before it records the thread settings, the BLAS
build, the host and the raw per-round figures.  ``--selfcheck`` runs both
modes on a 20-node graph for 3 epochs and checks that every metric is there.
See README.md in this directory.
"""

import os

# One BLAS/OpenMP thread, set before numpy loads, so that a run occupies one
# core of a 2-core host and its timings do not depend on a second core being
# free.  The loss history is bitwise the same with one thread or two.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import SELFCHECK, WORKLOADS  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"
PREPARE_TIMEOUT_S = 120


def parse_args(argv):
    p = argparse.ArgumentParser(description="Benchmark of sngcl's train-then-evaluate path.")
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selfcheck", action="store_true",
                   help="both modes on a tiny graph for 3 epochs; checks every metric is reported")
    args = p.parse_args(argv)
    if not args.selfcheck and args.workload is None:
        p.error("--workload is required unless --selfcheck is given")
    return args


def prepare(name: str, seed: int) -> Path:
    """The workload's canonical dataset directory, written by a process of
    its own on first use.  The cache key includes a digest of the generator,
    so an edited generator never reuses stale inputs."""
    key = hashlib.sha256((BENCH_DIR / "workloads.py").read_bytes()).hexdigest()[:12]
    target = WORK / "data" / f"{name}-seed{seed}-{key}"
    if (target / "manifest.txt").is_file():
        return target
    tmp = target.with_name(f"{target.name}.tmp{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    subprocess.run(
        [sys.executable, str(BENCH_DIR / "workloads.py"),
         "--workload", name, "--seed", str(seed), "--out", str(tmp)],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        check=True, timeout=PREPARE_TIMEOUT_S,
    )
    try:
        tmp.rename(target)
    except OSError:  # written meanwhile by another run
        shutil.rmtree(tmp, ignore_errors=True)
    return target


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def declared_metrics() -> dict[str, list[dict]]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    return {"end_to_end": spec["end_to_end"], "per_layer": spec["per_layer"]}


def with_units(values: dict[str, float], declared: list[dict]) -> dict:
    """The declared metrics in declared order, each with its unit; a metric
    declared but not computed, or not finite, is an error."""
    out = {}
    for m in declared:
        value = values.get(m["name"])
        if value is None or not math.isfinite(value):
            raise RuntimeError(f"metric {m['name']} was not measured (got {value!r})")
        out[m["name"]] = {"value": float(value), "unit": m["unit"]}
    return out


def measure_once(workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    import measure

    data_dir = prepare(workload.name, seed)
    warmup_dir = prepare(SELFCHECK.name, 0)
    out_dir = WORK / "runs" / str(os.getpid())
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        return measure.run(workload, data_dir, SELFCHECK, warmup_dir, out_dir, seed, seconds, trace)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def selfcheck(declared) -> int:
    ok = True
    for trace in (False, True):
        result, details = measure_once(SELFCHECK, 0, 0.0, trace)
        kind = "per_layer" if trace else "end_to_end"
        try:
            with_units(result["metrics"], declared[kind])
        except RuntimeError as exc:
            print(f"selfcheck trace={int(trace)}: {exc}")
            ok = False
        if not result["correct"] or result["failed"]:
            print(f"selfcheck trace={int(trace)}: checks failed: {details['problems']}")
            ok = False
        print(json.dumps({"trace": int(trace), **result}))
    print("selfcheck passed" if ok else "selfcheck FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sngcl" / "__init__.py").is_file():
        print(f"perfbench: program source {SRC / 'sngcl'} not found; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    declared = declared_metrics()
    if args.selfcheck:
        return selfcheck(declared)

    started = time.time()
    workload = WORKLOADS[args.workload]
    result, details = measure_once(workload, args.seed, args.seconds, bool(args.trace))
    kind = "per_layer" if args.trace else "end_to_end"
    result["metrics"] = with_units(result["metrics"], declared[kind])
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "started": started, **environment(), **details,
    }
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}-{int(started)}-{os.getpid()}.json"
    (results_dir / name).write_text(json.dumps({**record, "result": result}) + "\n", encoding="utf-8")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
