"""Benchmark of necplus, end to end and per module.

    python3 bench/run.py [--workload desk|paper_train|forecast|all]
                         [--seed N] [--seconds S] [--trace 0|1]

With one workload, runs it in this process and prints one line per metric,
then a JSON object as the last line of stdout: the end-to-end metrics with
`--trace 0`, the per-layer metrics of the traced run with `--trace 1`.
With `all` (the default), runs every workload in a process of its own.
Workloads and metrics are described in bench/README.md.
"""

import os

# BLAS threads are fixed before numpy is first imported, in this process and
# in the workload processes it starts.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("desk", "paper_train", "forecast")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_necplus():
    """Import necplus from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "necplus" / "__init__.py").is_file():
        sys.exit(f"error: no necplus sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH))
    import necplus
    if Path(necplus.__file__).resolve().parent != (src / "necplus").resolve():
        sys.exit(f"error: necplus imported from {necplus.__file__}, not {src}")


def environment(seed: int) -> dict:
    import numpy as np
    import scipy
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):   # numpy before 2.0 prints only
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, check=True,
                                    timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "seed": seed,
    }


def run_one(args) -> int:
    import_necplus()
    import measures
    import tracing
    import workloads

    result = workloads.run(args.workload, ROOT, args.seed, args.seconds,
                           bool(args.trace))
    session = result["session"]
    print(f"workload {args.workload}")
    print("environment " + json.dumps(environment(args.seed), sort_keys=True))
    if args.trace:
        metrics = tracing.layer_metrics(result["spans"])
        spans_path = ROOT / ".bench_work" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        with spans_path.open("w") as fh:
            for span in result["spans"]:
                fh.write(json.dumps(span.as_dict()) + "\n")
        print(f"spans written to {spans_path.relative_to(ROOT)}")
        for name, (value, unit) in metrics.items():
            print(f"  {name:48s} {value!r} {unit}")
    else:
        e2e = workloads.end_to_end(result)
        raw = workloads.end_to_end(result, raw=True)
        metrics = {name: (value, unit) for name, (value, unit, _) in e2e.items()}
        print("  metric, value, unit (samples) [unscaled wall-clock value]")
        for name, (value, unit, samples) in e2e.items():
            unscaled = f" [{raw[name][0]!r}]" if raw[name][0] != value else ""
            print(f"  {name:24s} {value!r} {unit} (n={samples}){unscaled}")
        n = e2e["predict_p50_ms"][2]
        print(f"  predict tail: highest percentile with >=10 samples beyond is "
              f"p{measures.tail_percentile(n)} of {n}")
        for note in workloads.accuracy_notes(result) + result["notes"]:
            print(f"  {note}")
    failed_share = session.failed / max(session.attempted, 1)
    print(f"  ops_failed_share {failed_share!r} ratio "
          f"({session.failed} of {session.attempted} operations)")
    complete = all(value is not None for value, _ in metrics.values())
    print(json.dumps({
        "correct": session.failed == 0 and complete,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """One process per workload; the last line maps workload -> result."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.exit(f"error: workload {name} exited with {proc.returncode}")
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
