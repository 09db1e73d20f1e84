"""Benchmark of the ssae codec: one workload, one seed, one JSON result.

Run from the root of a checkout:

    python3 bench/run.py --workload train --seed 1 --seconds 10 --trace 0

Workloads: ``train``, ``basestation_batch``, ``gateway_stream`` (see
``bench/workloads.py`` for why each exists).  The run builds its inputs
from ``--seed``, sets them up several times, then measures the workload
for ``--seconds`` (at least one pass).  With ``--trace 0`` it reports the
end-to-end metrics named in ``BENCHMARK.json``, the same five for every
workload:

- ``setup_s``: median of three set-ups;
- ``ok_rate``: share of operations (frames; training cycles in ``train``)
  that raised nothing and passed their output check;
- ``peak_rss_mb``: peak resident memory of the process;
- ``frames_per_s``: median over the passes of frames per second of busy
  time; ``train`` counts a frame once when parsed, once per objective
  evaluation it is fitted in and once when scored;
- ``rmse``: in sensor units.  ``train``: held-out RMSE of the fitted model,
  without CS.  ``basestation_batch``: geometric mean over the four configs
  of each config's RMSE after recovery.  ``gateway_stream``: the same for
  the transmitted codes decoded without CS.

Timings are scaled to a reference machine speed by a calibration task run
next to the work (see ``bench/calibration.py``); the report lines also
give them unscaled.  With ``--trace 1`` the run measures the same untraced
phase, then a traced phase of the same length, and reports the per-layer
metrics; the traced outputs must be bit-identical to the untraced ones.
Metrics of a layer a workload never calls read 0.

Report lines go to standard output, failures to standard error; the last
line of standard output is the result object.  The full result, with the
environment it was measured in, is written to
``bench/out/<workload>-seed<seed>-trace<t>.json`` and, for a traced run,
the spans to ``bench/out/spans-<workload>-seed<seed>.npz``.
"""

from __future__ import annotations

import os

# One process with one BLAS thread: the load of every workload.  This must
# happen before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 3


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def git_commit() -> str:
    """HEAD of the checkout, read from .git without starting a process."""
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


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_commit": git_commit(),
        "seed": seed,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def run(args) -> tuple[dict, dict]:
    """Set up, measure and score one workload; returns (result, full record)."""
    import calibration
    from tracing import Tracer
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; expected one of "
                         f"{sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)

    setup_s, setup_scaled = [], []
    for _ in range(SETUP_REPEATS):
        with calibration.Sampler("mixed") as sampler:
            t0 = time.perf_counter_ns()
            state = wl.setup(args.seed, str(OUT_DIR))
            dt = (time.perf_counter_ns() - t0 - sampler.total_ns) / 1e9
        setup_s.append(dt)
        setup_scaled.append(dt / sampler.slowdown())
    try:
        untraced = wl.measure(state, args.seconds, Tracer())
        rss = peak_rss_mb()
        phases = [untraced]
        if args.trace:
            tracer = Tracer()
            with tracer.installed():
                traced = wl.measure(state, args.seconds, tracer)
            phases.append(traced)
            spans = tracer.spans()
            spans.save(OUT_DIR / f"spans-{wl.name}-seed{args.seed}.npz")
    finally:
        wl.cleanup(state)

    if not untraced.rates or "rmse" not in untraced.quality:
        raise RuntimeError("no operation of the workload succeeded")
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    identical = not args.trace or same_outputs(untraced, traced)
    if not identical:
        print("failure: traced outputs differ from untraced outputs", file=sys.stderr)
    correct = failed == 0 and identical

    report = {
        "setup_s": (statistics.median(setup_scaled), "s"),
        "setup_s_unscaled": (statistics.median(setup_s), "s"),
        "error_rate": (failed / attempted, "share"),
        "peak_rss_mb": (rss, "MB"),
        **wl.report(state, untraced),
    }
    end_to_end = {
        "setup_s": statistics.median(setup_scaled),
        "ok_rate": (attempted - failed) / attempted,
        "peak_rss_mb": rss,
        "frames_per_s": untraced.frames_per_s,
        "rmse": untraced.quality["rmse"],
    }
    if args.trace:
        measured = wl.per_layer(state, untraced, traced, spans)
        measured["trace.overhead"] = untraced.frames_per_s / traced.frames_per_s - 1.0
        values = {m["name"]: 0.0 for m in spec["per_layer"]}
        unknown = sorted(set(measured) - set(values))
        if unknown:
            raise RuntimeError(f"metrics missing from BENCHMARK.json: {unknown}")
        values.update(measured)
        declared = spec["per_layer"]
    else:
        values = end_to_end
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in declared}
    result = {"correct": bool(correct), "attempted": int(attempted),
              "failed": int(failed), "metrics": metrics}
    record = {
        "workload": wl.name,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(args.seed),
        "setup_s_all": setup_scaled,
        "setup_s_unscaled_all": setup_s,
        "pass_frames_per_s": untraced.rates,
        "pass_frames_per_s_unscaled": untraced.raw_rates,
        "report": {k: {"value": float(v), "unit": u} for k, (v, u) in report.items()},
        "end_to_end": end_to_end,
        "result": result,
    }
    if args.trace:
        record.update(spans=len(spans), per_layer_measured=sorted(measured),
                      traced_outputs_identical=identical)
    return result, record


def same_outputs(a, b) -> bool:
    import numpy as np

    return (a.quality == b.quality and len(a.outputs) == len(b.outputs)
            and all(np.array_equal(x, y) for x, y in zip(a.outputs, b.outputs)))


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "ssae" / "__init__.py").is_file():
        print(f"error: no ssae package under {src}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    try:
        result, record = run(args)
    except Exception as exc:  # the run produced no result; say why, print none
        import traceback
        traceback.print_exc(file=sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    print("env " + json.dumps(record["env"], sort_keys=True))
    for name, m in record["report"].items():
        print(f"report {name} {m['value']:.6g} {m['unit']}")
    for name, m in result["metrics"].items():
        print(f"metric {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
