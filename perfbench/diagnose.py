"""``diagnose``: one client diagnosing low-dose chest scans back to back.

A closed loop with one scan in flight through
``ComputeCovid19Plus.diagnose`` on the ``fast`` kernel backend.  Each
round generates one seeded 32×64×64 low-dose scan (``chest_volume`` +
``add_lowdose_noise_hu``; odd rounds COVID-positive) and diagnoses it.
"""

from __future__ import annotations

import time
from typing import Dict, List

import numpy as np

from repro.backend.precision import ULP_RTOL, tier_for
from repro.data.datasets import add_lowdose_noise_hu
from repro.data.phantom import ChestPhantomConfig
from repro.data.phantom3d import chest_volume, lung_mask_volume
from repro.pipeline import (ClassificationAI, ComputeCovid19Plus, EnhancementAI,
                            SegmentationAI)

import checks
from harness import Round, median, rng_for, spans_around

SIZE = 64
SLICES = 32
BACKEND = "fast"
# The median Dice over a run's scans is gated, and on every scan the mask
# must lie inside the true lung; see checks.lung_dice for why not each
# scan's Dice.
DICE_FLOOR = 0.9
PRECISION_FLOOR = 0.95
STAGES = ("pipeline.enhance", "pipeline.segment", "pipeline.classify")

# rng_for keys
_ENHANCER, _CLASSIFIER, _SCAN, _WARM_SCAN = 0, 1, 2, 3


class Diagnose:
    name = "diagnose"
    operation = "diagnose call"
    top_span = "pipeline.diagnose"
    stage_spans = STAGES

    def __init__(self, seed: int, tracer):
        self.seed = seed
        self.tracer = tracer
        self._scan0 = None

    # -- inputs -----------------------------------------------------------
    def make_scan(self, key, covid: bool) -> np.ndarray:
        rng = rng_for(self.seed, *key)
        volume = chest_volume(size=SIZE, num_slices=SLICES, covid=covid, rng=rng)
        return add_lowdose_noise_hu(volume, rng=rng)

    def true_lungs(self, key) -> np.ndarray:
        """Generator truth: ``chest_volume`` draws its anatomy seed first."""
        anatomy_seed = int(rng_for(self.seed, *key).integers(0, 2**31))
        return lung_mask_volume((SLICES, SIZE, SIZE), ChestPhantomConfig(size=SIZE),
                                anatomy_seed)

    # -- lifecycle --------------------------------------------------------
    def setup(self) -> None:
        self.framework = ComputeCovid19Plus(
            enhancement=EnhancementAI(rng=rng_for(self.seed, _ENHANCER)),
            classification=ClassificationAI(rng=rng_for(self.seed, _CLASSIFIER)),
            backend=BACKEND)
        self.framework.diagnose(self.make_scan((_WARM_SCAN,), covid=True))

    def instrumented(self):
        return spans_around(self.tracer, [
            (ComputeCovid19Plus, "enhance_volume_hu", "pipeline.enhance"),
            (SegmentationAI, "apply", "pipeline.segment"),
            (ClassificationAI, "predict_proba", "pipeline.classify"),
        ])

    def round(self, r: int) -> Round:
        covid = r % 2 == 1
        t0 = time.perf_counter()
        scan = self.make_scan((_SCAN, r), covid)
        t1 = time.perf_counter()
        with self.tracer.span(self.top_span, item=r):
            result = self.framework.diagnose(scan)
        t2 = time.perf_counter()
        outputs: Dict[str, object] = {
            "probability": result.probability,
            "prediction": result.prediction,
            "lung_mask": result.lung_mask,
        }
        if r == 0:
            self._scan0 = scan
            outputs["segmented_volume"] = result.segmented_volume
        return Round(1, [t2 - t1], [t1 - t0], scan if r == 0 else None, outputs)

    # -- checks -----------------------------------------------------------
    def checks(self, rounds: List[Round]) -> List[checks.Check]:
        probs = [rd.outputs["probability"] for rd in rounds]
        truths = [self.true_lungs((_SCAN, r)) for r in range(len(rounds))]
        masks = [rd.outputs["lung_mask"] for rd in rounds]
        out = [
            checks.probabilities_valid(probs),
            checks.lung_dice(masks, truths, DICE_FLOOR),
            checks.lung_precision(masks, truths, PRECISION_FLOOR),
        ]
        # The seeded subset re-run on the bit-exact oracle: scan 0.
        fw = self.framework
        fw.to_backend("reference")
        try:
            ref = fw.diagnose(self._scan0)
        finally:
            fw.to_backend(BACKEND)
        rtol = ULP_RTOL["float64"] if tier_for(BACKEND) == "ulp" else 0.0
        first = rounds[0].outputs
        out.append(checks.backend_agreement(
            first["probability"], ref.probability, first["segmented_volume"],
            ref.segmented_volume, rtol))
        return out

    # -- reporting --------------------------------------------------------
    def named_metrics(self, rounds: List[Round]) -> Dict[str, tuple]:
        times = [t for rd in rounds for t in rd.op_times]
        return {
            "diagnose_s": (median(times), "s", f"median of {len(times)} calls"),
            "scan_generation_s": (median(t for rd in rounds for t in rd.input_times), "s",
                                  "chest_volume + add_lowdose_noise_hu"),
        }

    def layer_metrics(self, tracer, rounds: List[Round]) -> Dict[str, float]:
        return {f"{name}_s": median(tracer.durations(name)) for name in STAGES}
