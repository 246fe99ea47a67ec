"""Host-time benchmark of the NDS simulator.

Run from the repository root::

    python3 perfbench/run.py [--workload paper_tiles|serve|serve_observed|all]
                             [--seed N] [--seconds S] [--trace 0|1]

``--trace 0`` (default) measures the end-to-end metrics with nothing
wrapped, after one warm-up iteration. Host times are scaled to a
reference host speed measured by probes between groups of ops (see
``bench_speed.py``), so that a slow or fast phase of a shared host does
not read as a change of the program. ``--trace 1`` runs a warm-up, an untraced and a traced
iteration and reports per-layer calls, self time, work counters and the
tracing overhead; the traced run's spans are written to
``perfbench/out/``.

Every run folds each simulated output into per-group digests and
compares them with the digests recorded in ``digests.json`` for that
seed (the default and the held-out seed are recorded), or, for other
seeds, with the run's first iteration. The digest is printed for any
seed so that two commits can be diffed on it. A mismatch or an
exception counts as failed ops and makes the exit code non-zero.
``--record`` stores the run's digests for its seed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

# Only the standard library is imported at module level: the set-up
# probes time every import the simulator needs, numpy included.
import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
OUT = HERE / "out"
#: fresh-interpreter set-ups per run; ``setup_s`` is their median
SETUP_PROBES = 5
#: timed iterations a run makes however long they take
MIN_ITERATIONS = 3
WORKLOAD_NAMES = ("paper_tiles", "serve", "serve_observed")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the recorded seed)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measured seconds per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this run's digests for its seed")
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def load_program() -> None:
    """Put the checkout's ``src`` first on the path and make sure the
    simulator imported is that one, not an installed copy."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no simulator sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro
    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"perfbench: imported repro from {repro.__file__},"
                         f" not from {SRC}")


def probe_setup(name: str, seed: int) -> None:
    """Time imports plus construction (and, for serving, table ingest)
    in this fresh interpreter; print the seconds, scaled to the
    reference host speed by a probe on either side."""
    import bench_speed
    before = bench_speed.probe()
    start = time.perf_counter()
    load_program()
    from bench_workloads import WORKLOADS
    WORKLOADS[name](seed).setup()
    elapsed = time.perf_counter() - start
    after = bench_speed.probe()
    print(repr(elapsed * bench_speed.scale(before, after)))


def setup_seconds(name: str, seed: int) -> list:
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--probe-setup",
             "--workload", name, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
            check=True)
        times.append(float(done.stdout.split()[-1]))
    return times


def recorded_digests(name: str, seed: int):
    if not DIGESTS.is_file():
        return None
    return json.loads(DIGESTS.read_text()).get(name, {}).get(str(seed))


def record_digests(name: str, seed: int, groups: dict) -> None:
    table = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    table.setdefault(name, {})[str(seed)] = groups
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def check_outputs(name: str, seed: int, samples: list, record: bool):
    """Compare every iteration's digests with the recorded ones (or the
    first iteration's), print the digest and return ``(attempted,
    failed)``."""
    from bench_stats import combined_digest, mismatched_ops
    first = samples[0].groups.digests()
    reference = recorded_digests(name, seed)
    source = "recorded"
    if reference is None:
        reference, source = first, "first iteration"
    attempted = failed = 0
    for sample in samples:
        attempted += sample.ops + sample.errors
        failed += sample.errors + mismatched_ops(
            sample.groups.digests(), sample.groups.ops, reference)
    digest = combined_digest(first)
    print(f"{name} seed {seed} digest {digest} "
          f"(checked against {source}: "
          f"{'match' if failed == 0 else 'MISMATCH'})")
    if record and failed == 0:
        record_digests(name, seed, first)
        print(f"{name} seed {seed} digests recorded in {DIGESTS.name}")
    return attempted, failed


def measure(name: str, seed: int, seconds: float, record: bool):
    """The untraced run: end-to-end metrics."""
    import bench_speed
    import bench_stats as st
    from bench_workloads import WORKLOADS, IterationSample
    setup = setup_seconds(name, seed)
    workload = WORKLOADS[name](seed)
    # a warm-up iteration (lazy imports, heap growth) whose outputs are
    # checked but whose times are not used
    warmup = IterationSample()
    workload.run(warmup)
    warmup.reads = warmup.writes = None
    gc.collect()
    # every timed call, and each group's median repetition (bench_stats)
    reads, writes = array("d"), array("d")
    samples = []
    began = time.perf_counter()
    last = 0.0
    # stop before an iteration that would end past ``seconds``
    while (len(samples) < MIN_ITERATIONS
           or time.perf_counter() - began + last <= seconds):
        start = time.perf_counter()
        sample = IterationSample()
        workload.run(sample)
        reads.extend(sample.reads)
        writes.extend(sample.writes)
        sample.reads = sample.writes = None
        samples.append(sample)
        gc.collect()
        last = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted, failed = check_outputs(name, seed, [warmup] + samples,
                                      record)

    first = samples[0]
    ingest_s = st.median_total([s.ingest_s for s in samples])
    request_s = st.median_total([s.request_s for s in samples])
    # per-iteration rates at reference speed, printed for their spread
    ingest = [s.ingest_bytes / 2 ** 20 / sum(s.ingest_s.values())
              for s in samples]
    served = [s.requests / sum(s.request_s.values()) for s in samples]
    # metric -> (value, unit, the samples whose quartiles are printed)
    rows = {
        "setup_s": (statistics.median(setup), "s", setup),
        "ingest_mb_per_s": (first.ingest_bytes / 2 ** 20 / ingest_s, "MB/s",
                            ingest),
        "read_p50_us": (_us(reads, 0.50), "us", reads),
        "read_p99_us": (_us(reads, 0.99), "us", reads),
        "write_p50_us": (_us(writes, 0.50), "us", writes),
        "write_p95_us": (_us(writes, 0.95), "us", writes),
        "req_per_s": (first.requests / request_s, "1/s", served),
        "peak_rss_mb": (peak_rss_mb, "MB", None),
    }
    metrics = {}
    for metric, (value, unit, values) in rows.items():
        if value is None:
            print(f"{name} {metric}: not computed: fewer than "
                  f"{st.MIN_BEYOND} calls beyond the percentile",
                  file=sys.stderr)
            failed += 1
            continue
        spread = ""
        if unit == "us":
            spread = (f"  (quartiles {_us(values, 0.25):.6g} .. "
                      f"{_us(values, 0.75):.6g}, n={len(values)} calls)")
        elif values is not None:
            q1, _, q3 = st.quartiles(values)
            spread = f"  (quartiles {q1:.6g} .. {q3:.6g}, n={len(values)})"
        print(f"{name} {metric} {value:.6g} {unit}{spread}")
        metrics[metric] = {"value": value, "unit": unit}
    probes = sorted(p for s in samples for p in s.probes)
    print(f"{name} error_rate {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} ops failed); 1 warm-up and "
          f"{len(samples)} timed iterations; host-speed probe median "
          f"{statistics.median(probes) * 1e3:.4g} ms (reference "
          f"{bench_speed.REFERENCE_S * 1e3:.4g} ms) over {len(probes)} "
          f"probes")
    return attempted, failed, metrics


def _us(values, fraction):
    from bench_stats import percentile
    value = percentile(values, fraction)
    return None if value is None else value * 1e6


def trace_run(name: str, seed: int, record: bool):
    """A warm-up, an untraced and a traced iteration: per-layer
    metrics."""
    from bench_trace import LAYERS, LayerTracer, SpanRecorder, layer_metrics
    from bench_workloads import WORKLOADS, IterationSample
    from repro.core.translator import translation_cache_stats
    workload = WORKLOADS[name](seed)
    warmup = IterationSample()
    workload.run(warmup)
    gc.collect()
    plain = IterationSample()
    began = time.perf_counter()
    workload.run(plain)
    plain_s = time.perf_counter() - began
    gc.collect()

    recorder = SpanRecorder(list(LAYERS))
    memo_before = translation_cache_stats()
    traced = IterationSample()
    with LayerTracer(recorder):
        began = time.perf_counter()
        workload.run(traced)
        traced_s = time.perf_counter() - began
    memo = {key: value - memo_before[key]
            for key, value in translation_cache_stats().items()}
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{name}-seed{seed}.csv"
    recorder.write(spans_path)
    attempted, failed = check_outputs(name, seed, [warmup, plain, traced],
                                      record)

    metrics = layer_metrics(recorder)
    counts = recorder.counters
    programmed = counts.get("nvm.flash.pages_programmed", 0)
    relocated = (counts.get("core.gc.pages_relocated", 0)
                 + counts.get("ftl.gc.pages_relocated", 0))
    user = programmed - relocated
    memo_hits = memo["region_hits"] + memo["pages_hits"]
    memo_total = memo_hits + memo["region_misses"] + memo["pages_misses"]
    cache = traced.cache
    demand = cache["hits"] + cache["misses"]
    for key in ("nvm.flash.pages_read", "nvm.flash.pages_programmed",
                "nvm.flash.blocks_erased", "core.allocator.pages_allocated",
                "ftl.mapping.pages_allocated", "core.gc.pages_relocated",
                "ftl.gc.pages_relocated", "runtime.scheduler.ops",
                "cluster.subops", "sim.resources.reservations"):
        metrics[key] = (counts.get(key, 0), "count")
    metrics.update({
        "nvm.flash.write_amplification": (
            programmed / user if user else 0.0, "ratio"),
        "core.translator.memo_hit_ratio": (
            memo_hits / memo_total if memo_total else 0.0, "ratio"),
        "cache.hit_ratio": (cache["hits"] / demand if demand else 0.0,
                            "ratio"),
        "cache.writebacks": (cache["writebacks"], "count"),
        "runtime.trace.spans": (traced.trace_spans, "count"),
        "trace_overhead_ratio": (traced_s / plain_s, "ratio"),
    })
    self_total = sum(recorder.self_s)
    if self_total > traced_s:
        print(f"{name}: summed self time {self_total:.6g} s exceeds the "
              f"traced wall {traced_s:.6g} s", file=sys.stderr)
        failed += 1
    for metric, (value, unit) in metrics.items():
        print(f"{name} {metric} {value:.6g} {unit}")
    print(f"{name} traced wall {traced_s:.6g} s, untraced {plain_s:.6g} s, "
          f"summed self time {self_total:.6g} s; sim.resources.reservations "
          f"counts non-inlined Timeline reservations only; spans kept "
          f"{len(recorder.spans)}, dropped {recorder.dropped}, written to "
          f"{spans_path.relative_to(ROOT)}")
    return attempted, failed, {metric: {"value": value, "unit": unit}
                               for metric, (value, unit) in metrics.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.probe_setup:
        probe_setup(args.workload, args.seed)
        return 0
    load_program()
    from bench_workloads import DEFAULT_SEED
    seed = DEFAULT_SEED if args.seed is None else args.seed
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    for name in names:
        if args.trace:
            done, lost, found = trace_run(name, seed, args.record)
        else:
            done, lost, found = measure(name, seed, args.seconds,
                                        args.record)
        attempted += done
        failed += lost
        if len(names) == 1:
            metrics = found
        else:
            metrics.update({f"{name}.{key}": value
                            for key, value in found.items()})
        gc.collect()
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
