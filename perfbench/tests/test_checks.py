"""Each benchmark check accepts a right output and rejects a wrong one.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
The inputs are small versions of the workloads' own.
"""

import copy
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import harness
import run

ROOT = Path(__file__).resolve().parents[2]


# -- diagnose ---------------------------------------------------------------
def test_probability_range():
    assert checks.probabilities_valid([0.0, 0.3, 1.0]).ok
    for bad in ([0.2, float("nan")], [1.2], [-0.1], []):
        assert not checks.probabilities_valid(bad).ok


@pytest.fixture(scope="module")
def small_scan():
    from repro.data.datasets import add_lowdose_noise_hu
    from repro.data.phantom3d import chest_volume

    rng = harness.rng_for(7, 0)
    return add_lowdose_noise_hu(chest_volume(size=32, num_slices=16, covid=True, rng=rng),
                                rng=rng)


def _framework(seed):
    from repro.pipeline import ClassificationAI, ComputeCovid19Plus, EnhancementAI

    return ComputeCovid19Plus(
        enhancement=EnhancementAI(rng=harness.rng_for(seed, 0)),
        classification=ClassificationAI(rng=harness.rng_for(seed, 1)))


def test_backend_agreement_rejects_probability_from_other_weights(small_scan):
    from repro.backend.precision import ULP_RTOL

    rtol = ULP_RTOL["float64"]
    fw = _framework(1)
    ref = fw.diagnose(small_scan)
    fast = fw.to_backend("fast").diagnose(small_scan)
    assert checks.backend_agreement(fast.probability, ref.probability,
                                    fast.segmented_volume, ref.segmented_volume, rtol).ok
    other = _framework(2).to_backend("fast").diagnose(small_scan)
    assert other.probability != ref.probability
    assert not checks.backend_agreement(other.probability, ref.probability,
                                        fast.segmented_volume, ref.segmented_volume,
                                        rtol).ok


def test_lung_checks_reject_wrong_masks():
    truth = np.zeros((4, 32, 32), dtype=bool)
    truth[:, 8:24, 6:14] = truth[:, 8:24, 18:26] = True
    assert checks.lung_dice([truth], [truth], 0.9).ok
    assert checks.lung_precision([truth], [truth], 0.95).ok
    one_lung = truth.copy()
    one_lung[:, :, 16:] = False
    assert not checks.lung_dice([one_lung], [truth], 0.9).ok
    spilled = truth | np.roll(truth, 6, axis=1)
    assert not checks.lung_precision([spilled], [truth], 0.95).ok


# -- train-enhancer ---------------------------------------------------------
@pytest.fixture(scope="module")
def small_ct():
    from repro.ct import paper_geometry

    return paper_geometry(scale=32 / 512.0), 350.0 / 32


def test_siddon_check_rejects_scaled_sinogram(small_ct):
    from repro.ct import Sinogram

    geometry, pixel = small_ct
    sino = Sinogram.from_image(np.full((32, 32), 0.02), geometry, pixel).data
    assert checks.siddon_uniform(sino, geometry, 0.02, 32, pixel).ok
    assert not checks.siddon_uniform(sino * 1.01, geometry, 0.02, 32, pixel).ok


def test_dose_order_rejects_swapped_pairs(small_ct):
    from repro.ct import hu_to_mu, simulate_low_dose_pair
    from repro.data.phantom import ChestPhantomConfig, chest_slice

    geometry, pixel = small_ct
    truths, fulls, lows = [], [], []
    for i in range(6):
        rng = harness.rng_for(3, i)
        mu = hu_to_mu(chest_slice(ChestPhantomConfig(size=32), rng))
        full, low, _ = simulate_low_dose_pair(mu, geometry, 1e3, pixel, rng=rng)
        truths.append(mu)
        fulls.append(full)
        lows.append(low)
    assert checks.dose_order(truths, fulls, lows).ok
    assert not checks.dose_order(truths, lows, fulls).ok


def test_gradient_check_rejects_flipped_sign():
    import train_enhancer

    bench = train_enhancer.TrainEnhancer(5, harness.NullTracer())
    bench.setup()
    bench.round(0)
    probes = bench.gradient_probes()
    rtol = train_enhancer.FD_RTOL
    assert checks.gradient_matches(probes, rtol).ok
    flipped = [(fds, -autograd) for fds, autograd in probes]
    assert not checks.gradient_matches(flipped, rtol).ok
    # One direction spoilt by a kink is outvoted; a wrong gradient is not.
    fds, autograd = probes[0]
    kinked = {eps: fd * 1.01 for eps, fd in fds.items()}
    assert checks.gradient_matches([probes[0], (kinked, autograd), probes[0]], rtol).ok


def test_losses_finite():
    assert checks.losses_finite({"a": [0.1, 0.2]}).ok
    assert not checks.losses_finite({"a": [0.1, float("inf")]}).ok


# -- serve-sim --------------------------------------------------------------
@pytest.fixture(scope="module")
def served(tmp_path_factory):
    import serve_sim

    bench = serve_sim.ServeSim(3, harness.NullTracer(), tmp_path_factory.mktemp("serve"))
    requests = bench.stream(300, (0,))
    report, summary = bench.serve(requests)
    counts = {}
    for q in requests:
        counts[q.kind] = counts.get(q.kind, 0) + 1
    return bench, report, summary, counts


def test_conservation_rejects_summary_with_one_request_dropped(served):
    _, _, summary, counts = served
    assert checks.conservation(summary, counts).ok
    dropped = copy.deepcopy(summary)
    dropped["kinds"]["diagnosis"]["completed"] -= 1
    assert not checks.conservation(dropped, counts).ok


def test_replay_rejects_trace_with_one_request_dropped(served):
    from repro.serve import summarize_trace

    bench, report, summary, _ = served
    assert checks.replay_matches(summary, bench.replayed(report)).ok
    done = [i for i, e in enumerate(report.events) if e.kind == "request_done"]
    events = report.events[:done[0]] + report.events[done[0] + 1:]
    assert not checks.replay_matches(summary, summarize_trace(events)).ok


# -- traced runs and tracing ------------------------------------------------
def test_same_bits_sees_one_ulp():
    x = np.linspace(0, 1, 5)
    y = x.copy()
    assert checks.same_bits({"p": 0.25, "v": x}, {"p": 0.25, "v": y})
    y[2] = np.nextafter(y[2], 2.0)
    assert not checks.same_bits({"p": 0.25, "v": x}, {"p": 0.25, "v": y})
    assert not checks.same_bits([0.25], [np.nextafter(0.25, 1.0)])


def test_self_time_subtracts_children():
    tracer = harness.Tracer()
    tracer.spans = [harness.Span("a", 0.0, 10.0, None, 0),
                    harness.Span("b", 1.0, 4.0, 0, 0),
                    harness.Span("c", 5.0, 6.0, 0, 0),
                    harness.Span("d", 2.0, 3.0, 1, 0)]
    assert tracer.self_times() == [6.0, 2.0, 1.0, 1.0]
    assert tracer.coverage("a", ["b", "c"]) == pytest.approx(0.4)


# -- the benchmark as a whole -----------------------------------------------
def test_benchmark_json_lists_what_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == run.layer_metric_names()
    assert [w["name"] for w in spec["workloads"]] == ["diagnose", "train-enhancer",
                                                       "serve-sim"]


_DIGEST = """
import sys
sys.path[:0] = [{bench!r}, {src!r}]
import harness, run
w = run.make_workload({name!r}, 4, harness.NullTracer())
w.setup()
r = run.run_round(w, 0, harness.NullTracer())
print(harness.Digest().add(r.inputs).hexdigest(), harness.Digest().add(r.outputs).hexdigest())
"""


@pytest.mark.parametrize("name", ["diagnose", "train-enhancer", "serve-sim"])
def test_digests_do_not_depend_on_hash_seed(name, tmp_path):
    code = _DIGEST.format(bench=str(run.HERE), src=str(run.SRC), name=name)
    digests = set()
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        out = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                             capture_output=True, text=True, check=True, timeout=170)
        digests.add(out.stdout.strip())
    assert len(digests) == 1


def test_benchmark_alone_exits_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "serve-sim",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
