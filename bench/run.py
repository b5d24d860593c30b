"""koszulkit benchmark: closed-loop workloads, end-to-end metrics, and
an outside-in per-module trace.

    python3 bench/run.py --workload betti-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds run details (machine, output hashes, tail percentile, failures).
With ``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones.  Timings are scaled to a reference host speed measured
while they run (``speed.py``).  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import Sampler

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# workload -> tail percentile.  The betti-sweep percentile is the highest
# that leaves at least ten samples beyond it at the minimum pass count
# (2 x 46 items) and falls inside the samples of one kind of item (2iv-d),
# not between two.  koszul-bound6 (4 items a pass) and repro-paper (1) have
# too few items for that rule; their tail is the upper quartile, which for
# koszul-bound6 falls among the slow items (2ii, 2iv-d).
TAIL_PERCENTILE = {"betti-sweep": 90, "koszul-bound6": 75, "repro-paper": 75}
MIN_PASSES = 2  # per untraced run, so every output is also checked against a repeat
SETUP_RUNS = 5  # set-up runs per untraced run; setup_s is their median


CACHE_POLICY = (
    "every timed item gets a fresh Ideal parsed from text (no Groebner basis "
    "carries over) and starts with an empty hilbert._kpoly_cache (cold, as a "
    "one-shot CLI call) after an untimed gc.collect()"
)


def fail(msg: str):
    print(f"bench: {msg}", file=sys.stderr)
    raise SystemExit(2)


def import_library():
    if not (SRC / "koszulkit" / "__init__.py").is_file():
        fail(f"no koszulkit source under {SRC}; run from the root of a source checkout")
    sys.path.insert(0, str(SRC))
    import koszulkit

    if Path(koszulkit.__file__).resolve().parent != SRC / "koszulkit":
        fail(f"imported koszulkit from {koszulkit.__file__}, not from {SRC}")


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)


def sha256(obj) -> str:
    return hashlib.sha256(canonical(obj).encode()).hexdigest()


# ---------------------------------------------------------------------------
# set-up


def setup_only(args):
    """Child process: import, generate and parse the inputs, print them with
    the time spent probing the host's speed and the host's slowdown."""
    sampler = Sampler()
    sampler.start()
    import_library()
    import workloads

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer(sampler)
        tracer.install()
    out = {"items": workloads.make_inputs(args.workload, args.seed)}
    out["slowdown"] = sampler.stop()
    out["probe_s"] = sampler.probe_s
    if tracer is not None:
        out["generate_ideal"] = {
            "calls": tracer.calls["forms.generate_ideal"],
            "total_s": tracer.total_s["forms.generate_ideal"],
        }
    sys.stdout.write(json.dumps(out) + "\n")
    sys.stdout.flush()


def time_setups(args, count: int):
    """Time `count` set-ups, each in a fresh interpreter, from spawn to the
    moment its inputs are ready; return the inputs, the wall times and the
    times scaled to the reference host speed."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--setup-only"]
    times, scaled, result = [], [], None
    for _ in range(count):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.stdout.read()
            proc.wait()
        if proc.returncode != 0 or not line:
            fail(f"set-up failed with exit code {proc.returncode}")
        data = json.loads(line)
        if result is not None and data["items"] != result["items"]:
            fail("set-up produced different inputs for the same seed")
        result = data
        scaled.append((times[-1] - data["probe_s"]) / data["slowdown"])
    return result, times, scaled


# ---------------------------------------------------------------------------
# timed phase


class Phase:
    def __init__(self):
        self.latencies: list[float] = []  # scaled to the reference host speed
        self.wall: list[float] = []  # as measured, less the probes
        self.slowdowns: list[float] = []
        self.failures: list[str] = []
        self.passes = 0


def timed_phase(workload: str, items: list[dict], seconds: float, min_passes: int,
                outputs: dict, refs: dict, tracer=None) -> Phase:
    """Closed loop, one client: whole passes over the items.  After
    `min_passes`, a further pass starts only if a pass as long as the last
    one still ends within `seconds`.  Each item's time is scaled by the
    host's slowdown while it ran."""
    import workloads
    from koszulkit import hilbert

    ph = Phase()
    sampler = Sampler() if tracer is None else tracer.sampler
    start = last = time.perf_counter()
    while ph.passes < min_passes or 2 * time.perf_counter() - last - start <= seconds:
        last = time.perf_counter()
        for item in items:
            ideal = workloads.parse_item(item) if "text" in item else None
            gc.collect()
            hilbert._kpoly_cache.clear()
            sampler.start()
            if tracer is not None:
                tracer.active = True
            t0 = sampler.clock()
            try:
                out, err = workloads.run_item(workload, item, ideal), None
            except Exception as exc:  # a raising item is a failed item
                out, err = None, f"{type(exc).__name__}: {exc}"
            wall = sampler.clock() - t0
            if tracer is not None:
                tracer.active = False
            slowdown = sampler.stop()
            ph.wall.append(wall)
            ph.slowdowns.append(slowdown)
            ph.latencies.append(wall / slowdown)
            if err is None:
                err = workloads.check_item(workload, item, out, refs)
            if err is None and canonical(outputs.setdefault(item["id"], out)) != canonical(out):
                err = "output differs from the first pass"
            if err is not None:
                ph.failures.append(f"{item['id']}: {err}")
        ph.passes += 1
    return ph


def percentile(xs: list[float], pct: int) -> float:
    if len(xs) < 2:
        return xs[0]
    return statistics.quantiles(xs, n=100, method="inclusive")[pct - 1]


def machine_info() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "KOSZULKIT_THREADS_set": "KOSZULKIT_THREADS" in os.environ,
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# runs


def per_layer_metrics(tracer, traced: Phase, overhead: float, setup: dict) -> dict:
    """Per traced pass.  Span times are scaled to the reference host speed by
    the traced phase's overall slowdown."""
    from spans import ENTRY_SPANS, SPAN_NAMES

    def m(value, unit):
        return {"value": value, "unit": unit}

    passes, wall = traced.passes, sum(traced.wall)
    per_pass_s = sum(traced.latencies) / wall / passes
    out = {}
    for span in SPAN_NAMES:
        out[f"{span}.calls"] = m(tracer.calls[span] / passes, "count")
        out[f"{span}.self_s"] = m(tracer.self_s[span] * per_pass_s, "s")
    for span in ENTRY_SPANS:
        out[f"{span}.total_s"] = m(tracer.total_s[span] * per_pass_s, "s")
    c = tracer.counts
    for key in ("linalg.rref.cells", "linalg.complement_indices.cells", "groebner.buchberger.out_len",
                "quotient.resolve_over_quotient.gens"):
        out[key] = m(c[key] / passes, "count")
    out["modules.minimal_module_generators.kept_frac"] = m(
        c["kept_columns"] / c["candidate_columns"] if c["candidate_columns"] else 0.0, "fraction")
    out["resolution.minimalize_complex.pruned_frac"] = m(
        1 - c["minimal_rank_sum"] / c["input_rank_sum"] if c["input_rank_sum"] else 0.0, "fraction")
    from koszulkit import repro

    for name in repro.CHECKS:
        out[f"repro.{name}.total_s"] = m(tracer.total_s[f"repro.{name}"] * per_pass_s, "s")
    gen = setup.get("generate_ideal", {})
    out["setup.forms.generate_ideal.calls"] = m(gen.get("calls", 0), "count")
    out["setup.forms.generate_ideal.total_s"] = m(gen.get("total_s", 0.0) / setup["slowdown"], "s")
    out["coverage_frac"] = m(tracer.layer_s() / wall, "fraction")
    out["trace_overhead_frac"] = m(overhead, "fraction")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(TAIL_PERCENTILE))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_only:
        setup_only(args)
        return 0

    tail_pct = TAIL_PERCENTILE[args.workload]
    data, setup_wall, setup_times = time_setups(args, 1 if args.trace else SETUP_RUNS)
    import_library()
    import workloads

    items = data["items"]
    if not items:
        fail("the workload has no items")
    outputs, refs = {}, {}
    if args.trace:
        from spans import Tracer

        # the first pass of a process is slower (one-off costs), so it warms
        # up before the untraced and traced phases are compared
        warmup = timed_phase(args.workload, items, 0, 1, outputs, refs)
        half = args.seconds / 2
        plain = timed_phase(args.workload, items, half, 1, outputs, refs)
        tracer = Tracer(Sampler())
        tracer.install()
        traced = timed_phase(args.workload, items, half, 1, outputs, refs, tracer)
        tracer.uninstall()
        phases = [plain, traced, warmup]
        ips = [len(p.latencies) / sum(p.latencies) for p in (plain, traced)]
        metrics = per_layer_metrics(tracer, traced, ips[0] / ips[1] - 1, data)
    else:
        phases = [timed_phase(args.workload, items, args.seconds, MIN_PASSES, outputs, refs)]
        lat = phases[0].latencies
        metrics = {
            "items_per_s": {"value": len(lat) / sum(lat), "unit": "1/s"},
            "item_p50_s": {"value": statistics.median(lat), "unit": "s"},
            "item_tail_s": {"value": percentile(lat, tail_pct), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        }

    attempted = sum(len(p.latencies) for p in phases)
    failures = [f for p in phases for f in p.failures]
    lat, wall = phases[0].latencies, phases[0].wall
    ordered = [outputs.get(it["id"]) for it in items]
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "load": "closed loop, one client, one process",
        "passes": [p.passes for p in phases],
        "items_per_pass": len(items),
        "tail_percentile": tail_pct,
        "samples": len(lat),
        "samples_beyond_tail": sum(1 for x in lat if x > percentile(lat, tail_pct)),
        "setup_runs_s": setup_times,
        "host_slowdown_median": statistics.median(phases[0].slowdowns),
        "wall": {
            "items_per_s": len(wall) / sum(wall),
            "item_p50_s": statistics.median(wall),
            "item_tail_s": percentile(wall, tail_pct),
            "setup_s": statistics.median(setup_wall),
        },
        "failed_frac": len(failures) / attempted,
        "failures": failures[:10],
        "inputs_sha256": sha256(items),
        "outputs_sha256": sha256(ordered),
        "verdicts_sha256": sha256([workloads.verdict_summary(args.workload, it, o)
                                   for it, o in zip(items, ordered) if o is not None]),
        "cache_policy": CACHE_POLICY,
        "machine": machine_info(),
    }
    print(json.dumps({"details": details}))
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
