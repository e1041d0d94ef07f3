"""prymsplit benchmark: one workload, one seed, one closed-loop client.

Run from the repository root:

    python3 perfbench/run.py --workload split-p23 --seed 1 --seconds 25 --trace 0

The package is imported from ./src.  One single-threaded client runs the
workload's ops back to back over a corpus generated from --seed outside the
timed region, checks every output, and stops after --seconds (but not before
it has covered the corpus once and made MIN_OPS timed ops).  The first op is
timed and reported on its own, never mixed into the steady-state figures.

--trace 0 prints the end-to-end metrics; --trace 1 traces every other op and
prints the per-layer metrics.  The last line of stdout is the result object;
the lines before it start with "#" and carry provenance and the workload
digest.  A record of the run, with the spans of a traced run, is written under
.bench_build/perfbench/.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("split-p23", "bruin-p3-full", "rational-split")
COLD_STARTS = 11  # setup_s is the median of this many fresh processes
MIN_OPS = 100  # steady ops needed for ten beyond the 90th percentile
LOOP_LIMIT_S = 120.0  # hard stop for the op loop, whatever MIN_OPS says
COLD_START_TIMEOUT_S = 60


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def cold_setup_seconds(root: Path, field_list, env) -> float:
    """Median time from spawning a fresh interpreter to its "ready" line."""
    times = []
    for _ in range(COLD_STARTS):
        start = perf_counter()
        with subprocess.Popen(
            [sys.executable, str(HERE / "coldstart.py"), json.dumps(field_list)],
            cwd=root, env=env, stdout=subprocess.PIPE, text=True,
        ) as proc:
            line = proc.stdout.readline()
            elapsed = perf_counter() - start
            code = proc.wait(timeout=COLD_START_TIMEOUT_S)
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"cold start exited {code} with {line!r}")
        times.append(elapsed)
    return statistics.median(times)


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def run_ops(workload, corpus, seconds, tracer):
    """The closed loop.  Returns (first op ms, steady untraced times, steady
    traced times, failed ops, first failure, workload digest)."""
    item_digests = [None] * len(corpus)
    untraced, traced = [], []
    first_ms = None
    failed = 0
    first_failure = None
    i = 0
    start = perf_counter()
    while True:
        elapsed = perf_counter() - start
        steady = len(untraced) + len(traced)
        if i > len(corpus) and steady >= MIN_OPS and elapsed >= seconds:
            break
        if elapsed >= LOOP_LIMIT_S and i > len(corpus):
            break
        index = i % len(corpus)
        item = corpus[index]
        tracing = tracer is not None and i % 2 == 1
        if tracing:
            tracer.op = i
            tracer.install()
        error = None
        t0 = perf_counter()
        try:
            out = workload.op(item)
        except Exception as exc:  # a raising op is a failed op; the loop goes on
            error = f"op raised {type(exc).__name__}: {exc}"
        dt = perf_counter() - t0
        if tracing:
            tracer.uninstall()
        if error is None:
            try:
                if not workload.check(item, out):
                    error = "output check failed"
                else:
                    digest = _digest(workload.outcome(item, out))
                    if item_digests[index] is None:
                        item_digests[index] = digest
                    elif item_digests[index] != digest:
                        error = "output differs from the same input's earlier output"
            except Exception as exc:  # malformed output fails the check
                error = f"output check raised {type(exc).__name__}: {exc}"
        if error is not None:
            failed += 1
            first_failure = first_failure or f"input {index}: {error}"
        if i == 0:
            first_ms = 1000 * dt
        else:
            (traced if tracing else untraced).append(dt)
        i += 1
    return first_ms, untraced, traced, failed, first_failure, _digest(item_digests)


def source_revision(root: Path) -> dict:
    """Git revision when the checkout has one, and a digest of src/ always."""
    revision = None
    head = root / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = root / ".git" / ref[5:]
            revision = ref_file.read_text().strip() if ref_file.is_file() else ref
        else:
            revision = ref
    sha = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        sha.update(path.relative_to(root).as_posix().encode())
        sha.update(path.read_bytes())
    return {"git_revision": revision, "src_sha256": sha.hexdigest()[:16]}


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "prymsplit" / "__init__.py").is_file():
        print(f"perfbench: no src/prymsplit under {root}; run from the repository root",
              file=sys.stderr)
        return 2
    # an ambient PRYM_THREADS would switch on the counting thread pool
    os.environ.pop("PRYM_THREADS", None)
    sys.path.insert(0, str(src))
    import prymsplit

    if Path(prymsplit.__file__).resolve().parent != (src / "prymsplit").resolve():
        print(f"perfbench: imported prymsplit from {prymsplit.__file__}, not ./src",
              file=sys.stderr)
        return 2
    import spans
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    field_list = [list(f) for f in workload.fields]
    tracer = spans.Tracer() if args.trace else None

    if tracer is None:
        setup_s = cold_setup_seconds(root, field_list, dict(os.environ))
        workloads.warm(field_list)
    else:
        tracer.install()
        workloads.warm(field_list)
        tracer.uninstall()
    corpus = workload.corpus(random.Random(args.seed), workload.corpus_size)

    first_ms, untraced, traced, failed, first_failure, digest = run_ops(
        workload, corpus, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted = 1 + len(untraced) + len(traced)

    correct = failed == 0
    notes = []
    if first_failure:
        notes.append(first_failure)
    reference = json.loads((HERE / "digests.json").read_text()).get(args.workload, {})
    expected = reference.get(str(args.seed))
    if expected is not None and expected != digest:
        correct = False
        notes.append(f"digest {digest} differs from the recorded {expected}")

    if tracer is None:
        max_p, probe_ok = workloads.split_max_p(random.Random(args.seed))
        if not probe_ok or max_p is None:
            correct = False
            notes.append(f"split_max_p probe failed a verification after p = {max_p}")
        metrics = {
            "op_tail_p90_ms": metric(1000 * statistics.quantiles(untraced, n=10)[-1], "ms"),
            "setup_s": metric(setup_s, "s"),
            "peak_rss_mb": metric(peak_rss_mb, "MiB"),
            "split_max_p": metric(max_p or 0, "prime"),
        }
    else:
        layer = tracer.layer_metrics(traced, untraced)
        layer["op.first_ms"] = first_ms
        units = json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]
        metrics = {m["name"]: metric(layer[m["name"]], m["unit"]) for m in units}

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        **source_revision(root),
        "digest": digest,
        "corpus": len(corpus),
        "first_op_ms": first_ms,
        "steady_ops": len(untraced) + len(traced),
        # unbounded: they swing with the share of a run the host runs fast
        "ops_per_s": len(untraced) / sum(untraced),
        "op_p50_ms": 1000 * statistics.median(untraced),
        "error_rate": failed / attempted,
        "notes": notes,
    }
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    out_dir = root / ".bench_build" / "perfbench"
    out_dir.mkdir(parents=True, exist_ok=True)
    record = {"info": info, "result": result}
    if tracer is not None:
        record["spans"] = tracer.spans
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record))
    print("# perfbench " + json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
