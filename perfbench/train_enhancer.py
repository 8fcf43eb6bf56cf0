"""``train-enhancer``: the §3.1 Enhancement-AI job on the ``reference`` backend.

Each round is one whole job.  It simulates three 64×64 low/full-dose
slice pairs through ``repro.ct`` (Siddon projection → Poisson counts at
1e4 photons → Hann FBP over 90 views × 128 detectors), one slice at a
time and in this process, then trains a freshly seeded DDnet with
``EnhancementAI.train`` for two epochs on two pairs, validating on the
third after every epoch.
"""

from __future__ import annotations

import time
from typing import Dict, List

import numpy as np

from repro import nn
from repro.backend import clear_kernel_caches
from repro.ct import (Sinogram, hu_to_mu, mu_to_hu, normalize_unit, paper_geometry,
                      simulate_low_dose_pair)
from repro.data.datasets import EnhancementDataset
from repro.data.lesions import add_lesion
from repro.data.phantom import ChestPhantomConfig, chest_slice
from repro.models.ddnet import DDnet
from repro.nn.losses import CompositeLoss
from repro.nn.optim import Adam
from repro.pipeline import EnhancementAI
from repro.tensor.tensor import Tensor

import checks
from harness import Round, int_seed, median, rng_for, spans_around

SIZE = 64
BLANK_SCAN = 1.0e4
TRAIN_PAIRS = 2
VAL_PAIRS = 1
EPOCHS = 2
STEPS_PER_ROUND = EPOCHS * TRAIN_PAIRS
PIXEL_MM = 350.0 / SIZE        # a chest spans ~350 mm whatever the grid
UNIFORM_MU = 0.02              # per mm, for the Siddon check
FD_STEPS = (1e-9, 1e-10, 3e-11, 1e-11)
FD_DIRECTIONS = 3
FD_RTOL = 1e-4

# rng_for keys
_MODEL, _LOADER, _SLICE, _DIRECTION, _WARM = 0, 1, 2, 3, 4


class TrainEnhancer:
    name = "train-enhancer"
    operation = "optimizer step"
    top_span = "nn.train"
    stage_spans = ("nn.forward", "nn.loss", "nn.backward", "nn.optim", "nn.validate")

    def __init__(self, seed: int, tracer):
        self.seed = seed
        self.tracer = tracer
        self.step = -1
        self.truths: List[np.ndarray] = []
        self.fulls: List[np.ndarray] = []
        self.lows: List[np.ndarray] = []

    # -- the repro.ct chain, one slice at a time --------------------------
    def phantom(self, key):
        """Ground-truth μ map of one seeded slice, and the rng to go on with."""
        rng = rng_for(self.seed, *key)
        image, masks = chest_slice(ChestPhantomConfig(size=SIZE, vessel_count=10), rng,
                                   return_masks=True)
        if rng.random() < 0.5 and masks["lungs"].any():
            image = add_lesion(image, masks["lungs"], "ggo", rng=rng)
        return hu_to_mu(image), rng

    def acquire(self, mu: np.ndarray, rng):
        """The steps of ``simulate_low_dose_pair``, one span each."""
        span = self.tracer.span
        with span("ct.project"):
            clean = Sinogram.from_image(mu, self.geometry, PIXEL_MM)
        with span("ct.noise"):
            noisy = clean.with_noise(BLANK_SCAN, rng=rng)
        with span("ct.fbp"):
            full = clean.reconstruct(SIZE, "hann")
            low = noisy.reconstruct(SIZE, "hann")
        return full, low

    def make_pairs(self, key, count: int = TRAIN_PAIRS + VAL_PAIRS, keep: bool = True):
        lows, fulls, times = [], [], []
        for i in range(count):
            mu, rng = self.phantom((*key, i))
            t0 = time.perf_counter()
            full, low = self.acquire(mu, rng)
            times.append(time.perf_counter() - t0)
            if keep:
                self.truths.append(mu)
                self.fulls.append(full)
                self.lows.append(low)
            fulls.append(normalize_unit(mu_to_hu(full))[None])
            lows.append(normalize_unit(mu_to_hu(low))[None])
        return np.stack(lows), np.stack(fulls), times

    # -- lifecycle --------------------------------------------------------
    def setup(self) -> None:
        self.geometry = paper_geometry(scale=SIZE / 512.0)
        lows, fulls, _ = self.make_pairs((_WARM,), count=1, keep=False)
        EnhancementAI(rng=rng_for(self.seed, _WARM)).train(
            EnhancementDataset(lows, fulls), epochs=1)

    def instrumented(self):
        # Trainer validates under eval mode; the loss that follows a
        # forward pass belongs to the same phase.
        phase = {"training": True}

        def forward(model):
            phase["training"] = model.training
            if not model.training:
                return "nn.validate", None
            self.step += 1
            return "nn.forward", self.step

        def in_step(name):
            return lambda _: (name if phase["training"] else "nn.validate", self.step)

        return spans_around(self.tracer, [
            (DDnet, "forward", forward),
            (CompositeLoss, "forward", in_step("nn.loss")),
            (Tensor, "backward", in_step("nn.backward")),
            (Adam, "step", in_step("nn.optim")),
        ])

    def round(self, r: int) -> Round:
        lows, fulls, times = self.make_pairs((_SLICE, r))
        enhancer = EnhancementAI(rng=rng_for(self.seed, _MODEL, r))
        train = EnhancementDataset(lows[:TRAIN_PAIRS], fulls[:TRAIN_PAIRS])
        val = EnhancementDataset(lows[TRAIN_PAIRS:], fulls[TRAIN_PAIRS:])
        t0 = time.perf_counter()
        with self.tracer.span(self.top_span, item=r):
            history = enhancer.train(train, epochs=EPOCHS, val_dataset=val,
                                     seed=int_seed(self.seed, _LOADER, r))
        elapsed = time.perf_counter() - t0
        outputs = {"train_loss": list(history.train_loss), "val_loss": list(history.val_loss)}
        if r == 0:
            self.first_pairs = (lows, fulls)
            outputs.update(lows=lows, fulls=fulls)
        return Round(STEPS_PER_ROUND, [elapsed / STEPS_PER_ROUND], times,
                     (lows, fulls) if r == 0 else None, outputs)

    # -- checks -----------------------------------------------------------
    def gradient_probes(self) -> list:
        """Central differences of round 0's first-step loss along random ±1 directions.

        Returns ``(finite differences by step, autograd derivative)`` per
        direction, for :func:`checks.gradient_matches`.
        """
        lows, fulls = self.first_pairs
        enhancer = EnhancementAI(rng=rng_for(self.seed, _MODEL, 0))
        loader = nn.DataLoader(EnhancementDataset(lows[:TRAIN_PAIRS], fulls[:TRAIN_PAIRS]),
                               batch_size=1, shuffle=True,
                               seed=int_seed(self.seed, _LOADER, 0))
        x, y = next(iter(loader))
        model = enhancer.model
        model.train(True)
        params = model.parameters()
        enhancer.loss(model(Tensor(x)), Tensor(y)).backward()
        start = [p.data.copy() for p in params]

        def loss_at(direction, shift: float) -> float:
            for p, p0, d in zip(params, start, direction):
                p.data = p0 + shift * d
            clear_kernel_caches()
            return enhancer.loss(model(Tensor(x)), Tensor(y)).item()

        probes = []
        for k in range(FD_DIRECTIONS):
            rng = rng_for(self.seed, _DIRECTION, k)
            direction = [rng.choice([-1.0, 1.0], size=p.data.shape) for p in params]
            autograd = float(sum(np.sum(p.grad * d) for p, d in zip(params, direction)
                                 if p.grad is not None))
            fds = {eps: (loss_at(direction, eps) - loss_at(direction, -eps)) / (2 * eps)
                   for eps in FD_STEPS}
            probes.append((fds, autograd))
        return probes

    def checks(self, rounds: List[Round]) -> List[checks.Check]:
        uniform = Sinogram.from_image(np.full((SIZE, SIZE), UNIFORM_MU), self.geometry,
                                      PIXEL_MM)
        mu, rng = self.phantom((_SLICE, 0, 0))
        full, low, _ = simulate_low_dose_pair(mu, self.geometry, BLANK_SCAN, PIXEL_MM,
                                              "hann", rng=rng)
        same = checks.same_bits([full, low], [self.fulls[0], self.lows[0]])
        return [
            checks.siddon_uniform(uniform.data, self.geometry, UNIFORM_MU, SIZE, PIXEL_MM),
            checks.dose_order(self.truths, self.fulls, self.lows),
            checks.gradient_matches(self.gradient_probes(), FD_RTOL),
            checks.losses_finite({f"round{r}.{k}": rd.outputs[k]
                                  for r, rd in enumerate(rounds)
                                  for k in ("train_loss", "val_loss")}),
            checks.Check("acquisition_is_simulate_low_dose_pair", same,
                         "round 0 pair 0 against simulate_low_dose_pair, bit for bit"),
        ]

    # -- reporting --------------------------------------------------------
    def named_metrics(self, rounds: List[Round]) -> Dict[str, tuple]:
        pair_times = [t for rd in rounds for t in rd.input_times]
        step_times = [t for rd in rounds for t in rd.op_times]
        return {
            "acquire_slices_per_s": (len(pair_times) / sum(pair_times), "slices/s",
                                     f"{len(pair_times)} pairs"),
            "train_steps_per_s": (1.0 / median(step_times), "steps/s",
                                  f"median of {len(step_times)} train calls"),
        }

    def layer_metrics(self, tracer, rounds: List[Round]) -> Dict[str, float]:
        pairs = sum(len(rd.input_times) for rd in rounds)
        steps = sum(rd.ops for rd in rounds)
        project = sum(tracer.durations("ct.project"))
        out = {f"ct.{n}_s": sum(tracer.durations(f"ct.{n}")) / pairs
               for n in ("project", "noise", "fbp")}
        out["ct.rays_per_s"] = (pairs * self.geometry.num_views
                                * self.geometry.num_detectors / project)
        for n in ("forward", "loss", "backward", "optim"):
            out[f"nn.{n}_s"] = sum(tracer.durations(f"nn.{n}")) / steps
        out["nn.validate_s"] = sum(tracer.durations("nn.validate")) / (len(rounds) * EPOCHS)
        return out
