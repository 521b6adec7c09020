"""Benchmark of the steinmann library and CLI.

Run from the root of a checkout:

    python3 bench/run.py --workload enumerate-cold --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1        # every metric of every workload
    python3 bench/run.py --compare OLD.json NEW.json    # two saved results

One run sets up its workload several times (``setup_s`` is the median),
draws its operations from the seed, and runs them in a closed loop with one
client until the timed operations add up to ``--seconds``.  Every result is
checked outside the timed region; a wrong result or a failed request counts
in ``failed``.  With ``--trace 1`` every deck (one round of the kind mix) runs
twice, untraced and under the span tracer, so the tracing overhead is
measured in the same run on the same operations.

Host speed on a shared machine drifts, so latencies are reported in ``ref``
units: each operation's time divided by the mean time of a fixed reference
kernel (see ``reference_kernel``) run right before and right after it.
Throughput is operations per second times the run's mean reference time.
The end-to-end metrics use these units; the record keeps the seconds too.

The last line of standard output is the result as one JSON object.  The full
record (environment, input digest, tail percentile, failures) goes to
``.bench_out/<workload>-seed<seed>-trace<t>.json``, and the spans of a traced
run to the matching ``.spans.jsonl.gz``.  The caches of a run live in a
temporary directory under ``.bench_tmp/`` that is removed at the end.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
TMP = ROOT / ".bench_tmp"
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9)
MIN_BEYOND_TAIL = 10
E2E_UNITS = {
    "setup_s": "s",
    "ops_per_ref": "1/ref",
    "latency_p50_ref": "ref",
    "latency_tail_ref": "ref",
    "peak_rss_mb": "MB",
}


class Context:
    """Where a run keeps its files, and the environment of its children."""

    def __init__(self, tmp: Path):
        self.tmp = tmp

    def child_env(self, cache_dir=None) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        env["STEINMANN_CACHE_DIR"] = str(cache_dir or self.tmp / "child-cache")
        return env


def percentile(sorted_values, pct):
    """Linear interpolation between closest ranks."""
    pos = (len(sorted_values) - 1) * pct / 100
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail_percentile(min_samples):
    """The highest ladder percentile with at least 10 samples beyond it in
    every run: runs never have fewer than ``min_samples`` samples."""
    fits = [p for p in TAIL_LADDER if min_samples * (100 - p) / 100 >= MIN_BEYOND_TAIL]
    return max(fits) if fits else 50


def latency_summary(latencies, tail_pct):
    s = sorted(latencies)
    return {
        "samples": len(s),
        "p50": statistics.median(s),
        "tail_pct": tail_pct,
        "tail": percentile(s, tail_pct),
        "beyond_tail": len(s) * (100 - tail_pct) / 100,
    }


def reference_kernel():
    """A fixed piece of pure-Python exact arithmetic (a 12x12 Fraction
    elimination), independent of the library: its time tracks the host's
    current speed."""
    rng = random.Random(12)
    n = 12
    m = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n + 1)] for _ in range(n)]
    for c in range(n):
        p = next(r for r in range(c, n) if m[r][c] != 0)
        m[c], m[p] = m[p], m[c]
        m[c] = [v / m[c][c] for v in m[c]]
        for r in range(n):
            if r != c and m[r][c] != 0:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return m


def probe():
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


def run_deck(wl, ops, first, tracer=None, refs=None):
    """Run one deck, timed and (with a tracer) traced.  Returns the latencies
    and the results still to be checked.  With ``refs``, the reference kernel
    runs before the deck and after every operation, and each operation's
    reference time (the mean of the probes on either side) is appended."""
    deck = [(i, ops[i % len(ops)]) for i in range(first, first + wl.deck_size)]
    calls = [wl.prepare(op, traced=tracer is not None) for _, op in deck]
    latencies, pending = [], []
    if tracer is not None and wl.in_process:
        tracer.install()
    before = probe() if refs is not None else None
    try:
        for (i, op), call in zip(deck, calls):
            result = error = None
            if tracer is not None:
                frame = tracer.begin_request(i)
            t0 = time.perf_counter()
            try:
                result = call()
            except Exception as exc:  # a failed request is counted, not fatal
                error = f"{type(exc).__name__}: {exc}"
            latencies.append(time.perf_counter() - t0)
            if refs is not None:
                after = probe()
                refs.append((before + after) / 2)
                before = after
            if tracer is not None:
                tracer.end_request(frame)
                if not wl.in_process:
                    wl.collect_trace(tracer)
            pending.append((i, op, result, error))
    finally:
        if tracer is not None:
            tracer.uninstall()
    return latencies, pending


def check_results(wl, pending, failures):
    """Check results outside the timed region; a wrong one is a failure."""
    for i, op, result, error in pending:
        if error is None:
            try:
                wl.check(op, result)
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
        if error is not None:
            failures.append({"op": i, "kind": op["kind"], "error": error[:300]})


def run_window(wl, ops, seconds, min_ops):
    """Closed loop: next operation only after the last one.  Runs whole decks
    (one round of the kind mix) until the timed operations add up to
    ``seconds`` and at least ``min_ops`` have run, so every run measures the
    same mix."""
    latencies, refs, failures = [], [], []
    while sum(latencies) < seconds or len(latencies) < min_ops:
        deck_lat, pending = run_deck(wl, ops, len(latencies), refs=refs)
        latencies += deck_lat
        check_results(wl, pending, failures)
    return latencies, refs, failures


def run_paired(wl, ops, seconds, tracer):
    """Each deck runs twice, untraced and traced, the order flipping from deck
    to deck, so that drift in the host's speed cancels out of the overhead."""
    plain, traced, failures = [], [], []
    first = 0
    while sum(plain) + sum(traced) < seconds:
        for with_trace in (False, True) if first % (2 * wl.deck_size) == 0 else (True, False):
            deck_lat, pending = run_deck(wl, ops, first, tracer if with_trace else None)
            (traced if with_trace else plain).extend(deck_lat)
            check_results(wl, pending, failures)
        first += wl.deck_size
    return plain, traced, failures


def environment() -> dict:
    from steinmann.rat import RAT_BACKEND

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "rat_backend": RAT_BACKEND,
        "python": platform.python_version(),
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "src_sha256": tree_digest(SRC),
    }


def git_commit():
    """HEAD of the checkout's git repository, read from files; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_workload(name, seed, seconds, traced):
    from workloads import WORKLOADS

    # One CPU for the run and its children: the reference probes then time
    # the same CPU as the operations (each CPU of a shared host drifts alone).
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    TMP.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=TMP))
    # the library's default cache is under the home directory; keep it here
    os.environ["STEINMANN_CACHE_DIR"] = str(tmp / "cache")
    try:
        wl = WORKLOADS[name](Context(tmp))
        setup_times = []
        for _ in range(wl.setup_reps):
            t0 = time.perf_counter()
            wl.setup()
            setup_times.append(time.perf_counter() - t0)
        ops = wl.make_ops(random.Random(seed))
        record = {
            "workload": name, "seed": seed, "seconds": seconds, "trace": int(traced),
            "env": environment(),
            "ops_sha256": hashlib.sha256(json.dumps(ops, sort_keys=True).encode()).hexdigest(),
            "ops_generated": len(ops), "setup_times_s": setup_times,
        }
        if traced:
            metrics, failures, attempted = measure_traced(wl, ops, seconds, record)
        else:
            metrics, failures, attempted = measure_plain(wl, ops, seconds, record)
        record.update(attempted=attempted, failed=len(failures),
                      failed_frac=len(failures) / attempted, failures=failures[:20])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    OUT.mkdir(exist_ok=True)
    record_path = OUT / f"{name}-seed{seed}-trace{int(traced)}.json"
    record_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return record, metrics, record_path


def measure_plain(wl, ops, seconds, record):
    """The end-to-end run: every latency also in reference-kernel units."""
    min_samples = wl.min_decks * wl.deck_size
    tail_pct = tail_percentile(min_samples)
    latencies, refs, failures = run_window(wl, ops, seconds, min_samples)
    kinds = [ops[i % len(ops)]["kind"] for i in range(len(latencies))]
    in_ref = [dt / r for dt, r in zip(latencies, refs)]
    lat_s, lat_ref = latency_summary(latencies, tail_pct), latency_summary(in_ref, tail_pct)
    if wl.in_process:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        peak_kb = wl.peak_rss_kb
    e2e = {
        "setup_s": statistics.median(record["setup_times_s"]),
        # a run-level total, so scaled by the run's mean reference time
        "ops_per_ref": len(latencies) / sum(latencies) * statistics.fmean(refs),
        "latency_p50_ref": lat_ref["p50"],
        "latency_tail_ref": lat_ref["tail"],
        "peak_rss_mb": peak_kb / 1024,
    }
    by_kind = {}
    for kind, dt in zip(kinds, latencies):
        by_kind.setdefault(kind, []).append(dt)
    record.update(
        end_to_end=e2e,
        seconds_view={
            "ops_per_s": len(latencies) / sum(latencies),
            "latency_p50_s": lat_s["p50"],
            "latency_tail_s": lat_s["tail"],
            "ref_mean_s": statistics.fmean(refs),
        },
        latency=lat_ref,
        samples=[[k, dt, r] for k, dt, r in zip(kinds, latencies, refs)],
        by_kind={
            kind: {"ops": len(v), "median_s": statistics.median(v),
                   "time_share": sum(v) / sum(latencies)}
            for kind, v in by_kind.items()
        },
    )
    metrics = {m: {"value": v, "unit": E2E_UNITS[m]} for m, v in e2e.items()}
    return metrics, failures, len(latencies)


def measure_traced(wl, ops, seconds, record):
    """The per-layer run: paired untraced and traced decks."""
    from tracing import Tracer, layer_metrics, metric_unit

    tracer = Tracer()
    plain, traced, failures = run_paired(wl, ops, seconds, tracer)
    n = len(traced)
    summary = tracer.summary()
    _, op_busy, op_self = summary["agg"]["op"]
    per_layer = layer_metrics(summary, n, {
        "run.ops": n,
        "run.busy_s": op_busy / n,
        "run.self_s": op_self / n,
        "trace.overhead_s": (sum(traced) - sum(plain)) / n,
        "trace.spans": tracer.span_count / n,
    })
    spans_path = OUT / f"{wl.name}-seed{record['seed']}-trace1.spans.jsonl.gz"
    OUT.mkdir(exist_ok=True)
    tracer.write_spans(spans_path)
    record.update(per_layer=per_layer, spans_file=str(spans_path.relative_to(ROOT)),
                  spans_dropped=tracer.dropped)
    metrics = {m: {"value": v, "unit": metric_unit(m)} for m, v in per_layer.items()}
    return metrics, failures, len(plain) + n


def import_library():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "steinmann" / "__init__.py").is_file():
        raise SystemExit(f"error: no steinmann package under {SRC}")
    sys.path[:0] = [str(SRC), str(BENCH)]
    import steinmann

    if Path(steinmann.__file__).resolve().parent != (SRC / "steinmann").resolve():
        raise SystemExit(f"error: imported steinmann from {steinmann.__file__}")


# ---------------------------------------------------------------------------
# the one command for every workload, and comparisons of saved records


def run_all(seed, seconds):
    from workloads import WORKLOADS

    records = {}
    for name in WORKLOADS:
        for traced in (0, 1):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed",
                   str(seed), "--seconds", str(seconds), "--trace", str(traced)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                raise SystemExit(f"error: {' '.join(cmd)} exited {proc.returncode}")
            path = OUT / f"{name}-seed{seed}-trace{traced}.json"
            records[name, traced] = json.loads(path.read_text())
    for name in WORKLOADS:
        plain, traced = records[name, 0], records[name, 1]
        lat, layers = plain["latency"], traced["per_layer"]
        print(f"{name}  (backend {plain['env']['rat_backend']}, inputs {plain['ops_sha256'][:12]})")
        for metric, value in plain["end_to_end"].items():
            print(f"  {metric:<16} {value:12.6g} {E2E_UNITS[metric]}")
        view = plain["seconds_view"]
        print(f"  in seconds: {view['ops_per_s']:.6g} ops/s, p50 {view['latency_p50_s']:.6g} s, "
              f"tail {view['latency_tail_s']:.6g} s; 1 ref = {view['ref_mean_s']:.6g} s (mean)")
        print(f"  {'failed_frac':<16} {plain['failed_frac']:12.6g} "
              f"({plain['failed']} of {plain['attempted']}; traced run "
              f"{traced['failed']} of {traced['attempted']})")
        print(f"  tail = p{lat['tail_pct']} of {lat['samples']} samples, "
              f"{lat['beyond_tail']} beyond it")
        op_s, overhead = layers["run.busy_s"], layers["trace.overhead_s"]
        print(f"  traced op {op_s:.4g} s = untraced {op_s - overhead:.4g} s + overhead "
              f"{overhead:.4g} s; layer spans cover {1 - layers['run.self_s'] / op_s:.1%}")
        if name == "enumerate-cold":
            counts = {m: layers[m] for m in (
                "ratgeom.strict_feasible.calls", "ratgeom.strict_feasible.infeasible",
                "arrangement.filter.calls", "arrangement.filter.vetoes", "arrangement.ray.hits",
                "arrangement.cache.misses", "arrangement.cache.writes")}
            print("  per op: " + ", ".join(f"{m} {v:g}" for m, v in counts.items()))
    return 0


def compare(old_path, new_path):
    old, new = (json.loads(Path(p).read_text()) for p in (old_path, new_path))
    if old["env"]["rat_backend"] != new["env"]["rat_backend"]:
        print(f"error: results use different rational backends "
              f"({old['env']['rat_backend']} vs {new['env']['rat_backend']})", file=sys.stderr)
        return 2
    if old["workload"] != new["workload"]:
        print("error: results are from different workloads", file=sys.stderr)
        return 2
    same_inputs = old["ops_sha256"] == new["ops_sha256"]
    print(f"{new['workload']}: inputs {'identical' if same_inputs else 'differ'}")
    for section in ("end_to_end", "seconds_view", "per_layer"):
        for metric, b in new.get(section, {}).items():
            a = old.get(section, {}).get(metric)
            if a is not None:
                ratio = f"{b / a:8.3f}x" if a else "       -"
                print(f"  {metric:<48} {a:12.6g} -> {b:12.6g} {ratio}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        parser.error("--workload is required")
    import_library()
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all")
    record, metrics, path = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"{args.workload}: {record['attempted']} ops, {record['failed']} failed; "
          f"record in {path.relative_to(ROOT)}", file=sys.stderr)
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
