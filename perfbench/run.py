"""crosscut benchmark: end-to-end and per-layer numbers on three workloads.

    python3 perfbench/run.py --workload {scan-h2,count,faces} --seed N --seconds S --trace {0,1}

Run from anywhere; paths resolve against the checkout that holds this file.
Every measurement is a fresh child process (perfbench/child.py), started one
at a time from this process; there are no threads. The run pins itself, and so
every child, to one CPU, so that the host-speed probe (calibrate.py) run by
this process after a cold start times the CPU the cold start ran on: the two
vCPUs of a shared host can differ in speed.

A run makes one discarded warm-up start (the first start in a checkout may
compile bytecode), then runs passes of the workload until the next pass would
end after --seconds. A pass runs every step of the workload once, in the order
the seed gives. Before each pass the run times SETUP_PER_PASS cold starts of
the interpreter up to a ready `crosscut.cli`, each followed by PROBES_PER_SETUP
runs of the probe; spreading them over the run keeps one slow spell of a
shared machine from setting setup_s. An untraced pass times the probe itself,
every calibrate.INTERVAL_S, and leaves that time out of its wall time.

--trace 0 prints the end-to-end metrics, each the median over the run:
  wall_s       first step's start to last step's finish within a pass
  setup_s      spawn of the interpreter to `crosscut.cli` imported and ready
  peak_rss_mb  ru_maxrss of the pass's child process
and, on a line of its own, fail_ratio: steps failed / steps run. A step fails
on a wrong exit code, stdout that differs from the digest recorded at the seed
commit (digests.json), or a wrong paper fact (workloads.py). Each pass's wall
time and each cold start is scaled to the probe's reference speed, raw time
* REFERENCE_S / mean probe time during it (calibrate.py says why), before the
median is taken. The raw medians are printed beside them and every raw sample
is kept in the record.

--trace 1 alternates untraced and traced passes and prints the per-layer
metrics: self times of spans around calls into each module's public functions
(tracing.py), the counts recorded at the same boundaries, the traced wall time
and the tracing overhead (traced minus untraced median wall_s). Times are raw,
not scaled, so that self times add up to the traced wall time; they are
medians over the traced passes, counts are those of one pass (the note says
so if they differ between passes), and homology call percentiles pool every
traced pass. A ratio whose base is 0 (the layer made no calls) reads 0 with
its base printed as 0/0; a percentile with fewer than ten samples beyond it
reads 0 and is printed as n/a. A span the workload is expected to record but
did not fails the run.

The last line of stdout is one JSON object with keys correct, attempted,
failed and metrics. The full record (environment, raw samples, spans) is
written to .perfbench-results/<workload>-seed<seed>-trace<trace>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
RESULTS = ROOT / ".perfbench-results"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SETUP_PER_PASS = 2
PROBES_PER_SETUP = 3
CHILD_TIMEOUT_S = 120

# Metric names and units come from BENCHMARK.json. These per-layer values are
# derived from other numbers rather than read at a span boundary.
COMPUTED = frozenset(
    [
        "wall_s",
        "setup_s",
        "homology.boundary_nnz",
        "homology.nnz_per_s",
        "families.members_per_s",
        "lattice.interval_size",
        "trace.overhead_s",
    ]
)


class BenchError(RuntimeError):
    """The measurement itself failed; no result is printed."""


def _spawn(args: list[str]) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, str(CHILD), *args],
        cwd=ROOT,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def _finish(proc: subprocess.Popen, what: str) -> str:
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{what}: child ran past {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{what}: child exited {proc.returncode}: {err.strip()[-2000:]}")
    return out


def cold_start() -> float:
    """Seconds from spawning the interpreter until crosscut.cli is ready."""
    start = time.perf_counter()
    proc = _spawn(["setup"])
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    _finish(proc, "setup")
    if line.strip() != "ready":
        raise BenchError("setup: child did not report ready")
    return ready


def run_pass(workload: str, seed: int, trace: bool) -> dict:
    out = _finish(_spawn(["pass", workload, str(seed), "1" if trace else "0"]), f"{workload} pass")
    return json.loads(out)


def _commit() -> str | None:
    """HEAD of the checkout's git metadata, read without running git; None outside git."""
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


def _src_sha256() -> str:
    """Digest of every file under src/, which names the code measured even outside git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _layer_values(traced: list[dict], untraced_wall: list[float]) -> tuple[dict, dict]:
    """Per-layer values and the note printed beside each."""
    layers = [p["layers"] for p in traced]
    first = layers[0]
    values, notes = {}, {}
    for spec in SPEC["per_layer"]:
        name, unit = spec["name"], spec["unit"]
        if name in first["values"]:
            samples = [lay["values"][name] for lay in layers]
            if unit in ("s", "1/s"):
                values[name] = statistics.median(samples)
                notes[name] = f"median of {len(samples)} traced passes"
            else:
                values[name] = samples[0]
                notes[name] = "per pass"
                if len(set(samples)) > 1:
                    notes[name] += f", varies between passes: {min(samples)}..{max(samples)}"
            if name in first["bases"]:
                notes[name] += f"; base in one pass: {first['bases'][name]}"
    pooled = [d for lay in layers for d in lay["homology_call_s"]]
    for q, value in tracing.percentiles(pooled).items():
        name = f"homology.call_{q}_s"
        values[name] = value if value is not None else 0.0
        notes[name] = f"over {len(pooled)} calls" if value is not None else (
            f"n/a: {len(pooled)} calls leave fewer than ten beyond {q}"
        )
    traced_wall = [p["wall_s"] for p in traced]
    values["trace.wall_s"] = statistics.median(traced_wall)
    notes["trace.wall_s"] = f"median of {len(traced_wall)} traced passes"
    values["trace.overhead_s"] = values["trace.wall_s"] - statistics.median(untraced_wall)
    notes["trace.overhead_s"] = f"traced minus untraced median wall_s ({len(untraced_wall)} untraced passes)"
    return values, notes


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (ROOT / "src" / "crosscut" / "cli.py").is_file():
        raise BenchError(f"no crosscut sources under {ROOT / 'src'}")
    digests = workloads.load_digests()
    steps = workloads.steps(workload, seed)

    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    probe = calibrate.Probe()
    cold_start()
    probe.seconds()
    setup: list[float] = []
    setup_probe: list[float] = []

    # (traced, result) per pass; a traced run alternates untraced and traced
    # passes and stops only after a whole pair.
    passes: list[tuple[bool, dict]] = []
    start = time.perf_counter()
    longest = 0.0
    while True:
        traced = trace and len(passes) % 2 == 1
        t0 = time.perf_counter()
        for _ in range(SETUP_PER_PASS):
            setup.append(cold_start())
            setup_probe.append(statistics.mean(probe.seconds() for _ in range(PROBES_PER_SETUP)))
        passes.append((traced, run_pass(workload, seed, traced)))
        longest = max(longest, time.perf_counter() - t0)
        out_of_time = time.perf_counter() - start + longest > seconds
        if out_of_time and (not trace or len(passes) % 2 == 0):
            break

    failures: dict[str, list[str]] = {}
    attempted = failed = 0
    for _, p in passes:
        results = [(s["argv"], s["exit"], s["stdout"]) for s in p["steps"]]
        for key, problems in workloads.check_pass(results, digests, ROOT).items():
            attempted += 1
            if problems:
                failed += 1
                failures.setdefault(key, problems)

    untraced = [p for t, p in passes if not t]
    traced_passes = [p for t, p in passes if t]
    wall = [p["wall_s"] for p in untraced]
    rss = [p["peak_rss_mb"] for p in untraced]
    record = {
        "environment": {
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "pinned_cpus": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
            "commit": _commit(),
            "src_sha256": _src_sha256(),
            "workload": workload,
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "probe_reference_s": calibrate.REFERENCE_S,
        },
        "steps": [workloads.step_key(a) for a in steps],
        "samples": {
            "setup_s": setup,
            "setup_probe_s": setup_probe,
            "wall_s": wall,
            "wall_probe_s": [p["probe_s"] for p in untraced],
            "peak_rss_mb": rss,
        },
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
    }
    if trace:
        missing = [
            name
            for name in workloads.EXPECTED_SPANS[workload]
            if any(p["layers"]["calls"].get(name, 0) == 0 for p in traced_passes)
        ]
        if missing:
            raise BenchError(f"tracing coverage: no calls recorded for {', '.join(missing)} on {workload}")
        values, notes = _layer_values(traced_passes, wall)
        record["samples"]["traced_wall_s"] = [p["wall_s"] for p in traced_passes]
        record["per_pass_layers"] = [p["layers"] for p in traced_passes]
        record["rebound"] = traced_passes[0]["rebound"]
        record["spans"] = [p["spans"] for p in traced_passes]
        specs = SPEC["per_layer"]
        # Self times partition the top-level spans; the rest of wall_s is the
        # benchmark's own loop between steps.
        record["unattributed_s"] = [p["wall_s"] - p["layers"]["top_level_s"] for p in traced_passes]
    else:
        specs = SPEC["end_to_end"]
        ref = calibrate.REFERENCE_S
        if any(not p["probe_s"] for p in untraced):
            raise BenchError(f"a pass ended before the probe first ran at {calibrate.INTERVAL_S} s")
        values = {
            "wall_s": statistics.median(p["wall_s"] * ref / statistics.mean(p["probe_s"]) for p in untraced),
            "setup_s": statistics.median(t * ref / q for t, q in zip(setup, setup_probe)),
            "peak_rss_mb": statistics.median(rss),
        }
        probes = sum(len(p["probe_s"]) for p in untraced)
        notes = {
            "wall_s": (
                f"median of {len(wall)} scaled passes ({probes} probes, reference {ref * 1000:g} ms); "
                f"raw median {statistics.median(wall):.4f} s"
            ),
            "setup_s": f"median of {len(setup)} scaled cold starts; raw median {statistics.median(setup):.4f} s",
            "peak_rss_mb": f"median of {len(rss)} pass processes",
        }
    record["metrics"] = {
        m["name"]: {
            "value": values[m["name"]],
            "unit": m["unit"],
            "kind": "computed" if m["name"] in COMPUTED else "measured",
            "note": notes[m["name"]],
        }
        for m in specs
    }
    return record


def report(record: dict) -> None:
    env = record["environment"]
    print(
        f"crosscut benchmark: workload {env['workload']}, seed {env['seed']}, "
        f"{env['seconds']} s, trace {env['trace']}"
    )
    print(
        f"environment: Python {env['python']}, cpu_count {env['cpu_count']}, "
        f"commit {env['commit'] or 'unknown (not a git checkout)'}, src sha256 {env['src_sha256'][:16]}"
    )
    print(f"steps per pass, in order: {'; '.join(record['steps'])}")
    for name, m in record["metrics"].items():
        value = f"{m['value']:>14}" if isinstance(m["value"], int) else f"{m['value']:>14.6g}"
        print(f"  {name:32} {value} {m['unit']:6} {m['kind']}, {m['note']}")
    if "unattributed_s" in record:
        worst = max(record["unattributed_s"], key=abs)
        print(f"  traced wall_s not covered by any span: at most {worst:.6f} s per pass")
    print(f"  fail_ratio {record['failed']}/{record['attempted']} steps failed (measured)")
    for key, problems in record["failures"].items():
        print(f"  FAILED {key}: {'; '.join(problems)}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    report(record)
    print(f"full record: {path.relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": record["failed"] == 0,
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": {n: {"value": m["value"], "unit": m["unit"]} for n, m in record["metrics"].items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
