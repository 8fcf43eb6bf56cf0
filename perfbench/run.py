"""The repository benchmark: three workloads on two clocks, outputs checked.

Run from the repository root::

    python3 perfbench/run.py --workload diagnose --seed 1 --seconds 30 --trace 0

``--workload`` is ``diagnose``, ``train-enhancer`` or ``serve-sim``.  The
run builds everything from ``--seed`` and runs whole rounds of the
workload for ``--seconds``.  It checks the outputs, prints a report and
ends with one JSON line ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` sets up three fresh processes, one after
another, then measures in two of them at once, one per CPU, and reports
the end-to-end metrics.  ``--trace 1``
measures in this process with spans around the program's layers,
reports the per-layer metrics instead and writes the spans to
``.perfbench/``.  The exit code is 1 when any check fails.  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

# One OpenBLAS thread, set before NumPy loads and inherited by the
# measuring processes, which run one per CPU at once (README, "Noise").
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import checks  # noqa: E402
import harness  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = Path.cwd() / ".perfbench"
SETUPS = 3       # fresh processes set up per untraced run; setup_s is their median
MEASURERS = 2    # of them, how many measure at once, one per CPU
COVERAGE_FLOOR = 0.95

#: Registry ops the workloads dispatch; any other op is summed into
#: ``backend.other``.
KERNEL_OPS = ("conv", "conv_bias_act", "conv_weight_grad", "deconv", "unpool_deconv",
              "maxpool", "avgpool", "unpool", "batchnorm", "leaky_relu", "relu")

END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "op_s": "s"}


def make_workload(name: str, seed: int, tracer):
    """The workload's module is imported here, so a run loads only its own."""
    if name == "diagnose":
        from diagnose import Diagnose

        return Diagnose(seed, tracer)
    if name == "train-enhancer":
        from train_enhancer import TrainEnhancer

        return TrainEnhancer(seed, tracer)
    from serve_sim import ServeSim

    return ServeSim(seed, tracer, OUT)


def backend_metrics(spans, self_times, ops: int) -> dict:
    """Per registry op: self time and calls per operation, computed rates.

    GFLOP/s and GB/s divide the analytic ``OpCounts`` of each dispatch
    by its measured self time: they are computed, not counted by
    hardware.
    """
    acc = {op: [0.0, 0, 0, 0] for op in (*KERNEL_OPS, "other")}
    has_kernel = set()
    for span, own in zip(spans, self_times):
        if not span.name.startswith("backend."):
            continue
        has_kernel.add(span.parent)
        slot = acc.get(span.name[len("backend."):], acc["other"])
        slot[0] += own
        slot[1] += 1
        slot[2] += span.flops
        slot[3] += span.bytes
    out = {}
    for op, (secs, calls, flops, nbytes) in acc.items():
        out[f"backend.{op}.s"] = secs / ops
        out[f"backend.{op}.calls"] = calls / ops
        if op != "other":
            out[f"backend.{op}.gflop_per_s"] = flops / secs / 1e9 if secs else 0.0
            out[f"backend.{op}.gb_per_s"] = nbytes / secs / 1e9 if secs else 0.0
    # Stage time no dispatch covers, in the stages that dispatch at all.
    out["backend.unattributed_s"] = sum(
        self_times[i] for i in has_kernel if i is not None) / ops
    return out


#: The default mixed fleet, as ``serve_sim.device_key`` names it.
FLEET_DEVICES = ("nvidia_v100_gpu", "nvidia_t4_gpu", "intel_xeon_gold_6128_cpu",
                 "intel_arria_10_gx_1150_fpga")


def layer_metric_names() -> list:
    """Every per-layer metric a traced run prints, whatever the workload."""
    names = ["pipeline.enhance_s", "pipeline.segment_s", "pipeline.classify_s"]
    names += list(backend_metrics([], [], 1))
    names += ["backend.fft_cache_entries",
              "ct.project_s", "ct.noise_s", "ct.fbp_s", "ct.rays_per_s",
              "nn.forward_s", "nn.loss_s", "nn.backward_s", "nn.optim_s", "nn.validate_s",
              "serve.run_s", "serve.summary_s", "serve.queue_mean_depth",
              "serve.result_cache_hit_ratio", "dag.artifact_hit_ratio", "dag.model_swaps",
              "dag.stages_skipped", "serve.modelled_diagnosis_p99_s",
              "serve.modelled_monitoring_p99_s"]
    names += [f"serve.util.{d}" for d in FLEET_DEVICES]
    names += ["telemetry.events", "telemetry.events_per_request",
              "trace.coverage_pct", "trace.overhead_pct"]
    return names


def run_round(workload, r: int, tracer):
    """Round ``r`` with spans and dispatch records going to ``tracer``."""
    from repro.backend import trace_dispatches

    workload.tracer = tracer
    if not tracer.enabled:
        return workload.round(r)
    with workload.instrumented(), trace_dispatches(tracer):
        return workload.round(r)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("diagnose", "train-enhancer", "serve-sim"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--worker", choices=("setup", "measure", "measure-and-check"),
                   help="internal: one process of an untraced run")
    p.add_argument("--cpu", type=int, help="internal: the CPU a measuring process runs on")
    return p.parse_args(argv)


def measure(workload, seconds: float, tracer) -> list:
    """Whole rounds until ``seconds`` have passed; at least one."""
    rounds = []
    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        rd = run_round(workload, len(rounds), tracer)
        rd.wall = time.perf_counter() - t0
        rounds.append(rd)
    return rounds


def digest_of(rounds) -> list:
    return [harness.Digest().add(rounds[0].inputs).hexdigest(),
            harness.Digest().add(rounds[0].outputs).hexdigest()]


def worker(args) -> int:
    """Set up, say ``ready``, wait for ``go``; measure, check if asked, print one JSON line."""
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    workload = make_workload(args.workload, args.seed, harness.NullTracer())
    workload.setup()
    print("ready", flush=True)
    sys.stdin.readline()
    if args.worker == "setup":
        return 0
    rounds = measure(workload, args.seconds, harness.NullTracer())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    results = workload.checks(rounds) if args.worker == "measure-and-check" else []
    print(json.dumps({
        "stray": harness.live_children(),
        "round_op_times": [rd.wall / rd.ops for rd in rounds],
        "peak_rss_mb": peak_rss_mb,
        "attempted": sum(rd.ops for rd in rounds),
        "round_outputs": [harness.Digest().add(rd.outputs).hexdigest() for rd in rounds],
        "digest": digest_of(rounds),
        "named": workload.named_metrics(rounds),
        "checks": [[c.name, c.ok, c.detail] for c in results],
    }))
    return 0


def untraced(args):
    """End-to-end metrics from ``SETUPS`` fresh processes.

    They set up one after another; ``setup_s`` is the median of their
    set-ups.  Then one process per CPU, up to ``MEASURERS``, measures for
    ``seconds``, all at once.  Memory is the median over the measuring
    processes.  ``op_s`` is the median over all their rounds of a round's
    wall time, input generation included, per operation.  The host's
    other tenants slow each CPU on its own, for seconds to minutes at a
    time, so rounds from both CPUs steady the median (README, "Noise").
    """
    cpus = sorted(os.sched_getaffinity(0))[:MEASURERS]
    roles = ["measure-and-check"] + ["measure"] * (len(cpus) - 1)
    roles += ["setup"] * (SETUPS - len(roles))
    started = harness.run_workers(HERE / "run.py", args.workload, args.seed,
                                  args.seconds, roles, cpus)
    setups = [setup for setup, _ in started]
    runs = [(setup, run) for setup, run in started if run is not None]
    results = [checks.Check(*c) for _, run in runs for c in run["checks"]]
    stray = [pid for _, run in runs for pid in run["stray"]]
    results.append(checks.Check("no_stray_processes_in_workers", not stray,
                                f"children still running: {stray}" if stray else "none left"))
    common = min(len(run["round_outputs"]) for _, run in runs)
    same = all(run["round_outputs"][:common] == runs[0][1]["round_outputs"][:common]
               for _, run in runs)
    results.append(checks.Check("processes_agree", same,
                                f"{len(runs)} processes, rounds 0-{common - 1} compared"))
    notes = []
    for name in runs[0][1]["named"]:
        _, unit, note = runs[0][1]["named"][name]
        value = harness.median(run["named"][name][0] for _, run in runs)
        notes.append(f"metric {name} = {value:.6g} {unit} "
                     f"(median over {len(runs)} processes of: {note})")
    values = {
        "setup_s": harness.median(setups),
        "peak_rss_mb": harness.median(run["peak_rss_mb"] for _, run in runs),
        "op_s": harness.median(t for _, run in runs for t in run["round_op_times"]),
    }
    metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    attempted = sum(run["attempted"] for _, run in runs)
    return results, metrics, attempted, runs[0][1]["digest"], notes


def traced(args):
    """Per-layer metrics from one process with spans and dispatch records."""
    tracer = harness.Tracer()
    workload = make_workload(args.workload, args.seed, tracer)
    workload.setup()
    rounds = measure(workload, args.seconds, tracer)
    attempted = sum(rd.ops for rd in rounds)

    from repro.backend.fast import fft_cache_size

    found = workload.layer_metrics(tracer, rounds)
    found.update(backend_metrics(tracer.spans, tracer.self_times(), attempted))
    found["backend.fft_cache_entries"] = float(fft_cache_size())
    # Exactly the listed names; a layer this workload does not run reads 0.
    layers = {name: found.get(name, 0.0) for name in layer_metric_names()}
    share = tracer.coverage(workload.top_span, workload.stage_spans)
    layers["trace.coverage_pct"] = 100.0 * share
    tracer.write(OUT / f"trace-{args.workload}-{args.seed}.json")

    results = workload.checks(rounds)
    # Round 0 once more untraced, which must give the same outputs bit
    # for bit, then traced again: the overhead compares the two adjacent,
    # equally warm runs.
    plain = run_round(workload, 0, harness.NullTracer())
    again = run_round(workload, 0, harness.Tracer())
    results.append(checks.traced_reproduces(rounds[0].outputs, plain.outputs))
    if args.workload == "diagnose":
        results.append(checks.coverage_floor(share, COVERAGE_FLOOR,
                                             "stage spans within diagnose"))
    layers["trace.overhead_pct"] = 100.0 * (sum(again.op_times) / sum(plain.op_times) - 1.0)
    metrics = {k: {"value": float(v), "unit": layer_unit(k)} for k, v in layers.items()}
    return results, metrics, attempted, digest_of(rounds), []


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are not at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.worker:
        return worker(args)

    results, metrics, attempted, digest, notes = (traced if args.trace else untraced)(args)
    stray = harness.live_children()
    results.append(checks.Check("no_stray_processes", not stray,
                                f"children still running: {stray}" if stray else "none left"))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} x {make_workload(args.workload, 0, None).operation}")
    print("host " + json.dumps(harness.host_manifest(ROOT), sort_keys=True))
    print(f"digest inputs={digest[0]} outputs={digest[1]}")
    for c in results:
        print(c)
    for line in notes:
        print(line)
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    correct = all(c.ok for c in results)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": 0,
                      "metrics": metrics}))
    return 0 if correct else 1


def layer_unit(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if name.endswith("gflop_per_s"):
        return "GFLOP/s"
    if name.endswith("gb_per_s"):
        return "GB/s"
    if name.endswith("rays_per_s"):
        return "rays/s"
    if name.endswith("_pct"):
        return "%"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("ratio") or name.startswith("serve.util."):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
