"""One benchmark child process, started fresh by run.py for each measurement.

    python3 perfbench/child.py setup
        imports crosscut.cli and prints "ready"; run.py times the spawn-to-ready interval.
    python3 perfbench/child.py pass WORKLOAD SEED TRACE
        runs one pass of the workload's steps and prints one JSON object: the pass
        wall time, the child's peak RSS, every step's exit code and stdout, and,
        with TRACE=0, the host-speed probe times (calibrate.py) taken during the
        pass or, with TRACE=1, the spans and per-layer metrics.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

# The imports above are ones crosscut.cli makes anyway; the harness's own
# modules load in run_pass, after "ready", so setup_s times only crosscut.
import crosscut.cli  # noqa: E402
from crosscut import families, lattice  # noqa: E402

if not Path(crosscut.cli.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"crosscut was imported from {crosscut.cli.__file__}, not from {ROOT / 'src'}")


def run_step(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of one step. Functions are looked up on their
    modules at call time, so a tracer's rebound names are the ones called."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        if argv[0] == "mobius":
            kind = families.kind_from_name(argv[argv.index("--family") + 1])
            lat = lattice.FamilyLattice(kind, int(argv[argv.index("--n") + 1]))
            mu = lattice.mobius(lat, lat.bottom, lattice.TOP)
            print(f"mu={mu} members={len(lat.members)}")
            code = 0
        else:
            code = crosscut.cli.main(argv)
    return code, buf.getvalue()


def run_pass(workload: str, seed: int, trace: bool) -> dict:
    import resource
    import time

    import calibrate
    import tracing
    import workloads

    steps = workloads.steps(workload, seed)
    tracer = tracing.Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    # Traced passes give raw per-layer times, so only untraced ones are probed.
    sampler = None if trace else calibrate.Sampler(calibrate.Probe())
    results = []
    start = time.perf_counter()
    with sampler or contextlib.nullcontext():
        for argv in steps:
            results.append(run_step(argv))
    wall = time.perf_counter() - start
    out = {
        "wall_s": wall - (sampler.busy_s if sampler else 0.0),
        "probe_s": sampler.samples if sampler else [],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "steps": [
            {"argv": argv, "exit": code, "stdout": text} for argv, (code, text) in zip(steps, results)
        ],
    }
    if tracer is not None:
        out["layers"] = tracing.layer_metrics(tracer.spans)
        out["rebound"] = tracer.rebound
        out["spans"] = [[name, s - start, e - start, parent] for name, s, e, parent, _ in tracer.spans]
    return out


def main() -> int:
    if sys.argv[1] == "setup":
        print("ready", flush=True)
        return 0
    _, _, workload, seed, trace = sys.argv
    json.dump(run_pass(workload, int(seed), trace == "1"), sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
