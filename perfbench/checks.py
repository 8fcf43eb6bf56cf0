"""Output checks, each computed apart from the code it checks.

Every function returns a :class:`Check`; none of them calls the
program function whose output it judges.  The benchmark's own tests
(``perfbench/tests``) hand each one a wrong output and assert that it
is rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping, Sequence

import numpy as np


@dataclass
class Check:
    name: str
    ok: bool
    detail: str

    def __str__(self) -> str:
        return f"check {self.name}: {'ok' if self.ok else 'FAILED'} ({self.detail})"


# ---------------------------------------------------------------------------
# diagnose
# ---------------------------------------------------------------------------
def probabilities_valid(probabilities: Sequence[float]) -> Check:
    p = np.asarray(probabilities, dtype=float)
    ok = bool(p.size) and bool(np.all(np.isfinite(p))) and bool(np.all((p >= 0) & (p <= 1)))
    return Check("probability_range", ok, f"{p.size} probabilities in "
                 f"[{np.nanmin(p) if p.size else float('nan'):.4g}, "
                 f"{np.nanmax(p) if p.size else float('nan'):.4g}]")


def close_within(candidate, reference, rtol: float) -> float:
    """Largest error of ``candidate`` in units of ``rtol * max|reference|``."""
    c = np.asarray(candidate, dtype=np.float64)
    r = np.asarray(reference, dtype=np.float64)
    if c.shape != r.shape:
        return math.inf
    if rtol == 0.0:
        return 0.0 if np.array_equal(c, r) else math.inf
    scale = max(float(np.max(np.abs(r))) if r.size else 0.0, 1e-300)
    return float(np.max(np.abs(c - r))) / (rtol * scale) if r.size else 0.0


def backend_agreement(fast_prob: float, ref_prob: float, fast_volume: np.ndarray,
                      ref_volume: np.ndarray, rtol: float) -> Check:
    """``fast`` agrees with ``reference`` on the same weights within ``rtol``."""
    p_err = abs(fast_prob - ref_prob)
    v_err = float(np.max(np.abs(np.asarray(fast_volume) - np.asarray(ref_volume)))) \
        if np.shape(fast_volume) == np.shape(ref_volume) else math.inf
    ok = (close_within(fast_prob, ref_prob, rtol) <= 1.0
          and close_within(fast_volume, ref_volume, rtol) <= 1.0)
    return Check("fast_vs_reference", ok,
                 f"|dP| = {p_err:.2e}, max |dHU| = {v_err:.2e}, rtol {rtol:g}")


def dice(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=bool)
    b = np.asarray(b, dtype=bool)
    denom = int(a.sum()) + int(b.sum())
    return 2.0 * int((a & b).sum()) / denom if denom else 1.0


def precision(mask: np.ndarray, truth: np.ndarray) -> float:
    """Share of mask voxels that lie in the true lung."""
    mask = np.asarray(mask, dtype=bool)
    return int((mask & np.asarray(truth, dtype=bool)).sum()) / max(int(mask.sum()), 1)


def _floor(name: str, score, masks, truths, floor: float, what: str) -> Check:
    scores = [score(m, t) for m, t in zip(masks, truths)]
    ok = len(scores) == len(masks) == len(truths) and bool(scores) and min(scores) >= floor
    return Check(name, ok, f"min {min(scores) if scores else float('nan'):.4f} over "
                 f"{len(scores)} {what}, floor {floor}")


def lung_dice(masks: Sequence[np.ndarray], truths: Sequence[np.ndarray],
              floor: float) -> Check:
    """Median Dice of the lung masks against the generator's lung truth.

    The median, because on some seeds the threshold segmentation drops
    whole lungs on a few slices or leaves border lesions out, taking one
    scan's Dice as low as 0.70 (perfbench/README.md, known faults).
    """
    scores = [dice(m, t) for m, t in zip(masks, truths)]
    ok = len(scores) == len(masks) == len(truths) and bool(scores) and \
        float(np.median(scores)) >= floor
    return Check("lung_mask_dice", ok,
                 f"median {np.median(scores) if scores else float('nan'):.4f}, min "
                 f"{min(scores) if scores else float('nan'):.4f} over {len(scores)} scans, "
                 f"floor on the median {floor}")


def lung_precision(masks: Sequence[np.ndarray], truths: Sequence[np.ndarray],
                   floor: float) -> Check:
    """Each lung mask lies inside the generator's lung truth."""
    return _floor("lung_mask_precision", precision, masks, truths, floor, "scans")


# ---------------------------------------------------------------------------
# train-enhancer
# ---------------------------------------------------------------------------
def chord_lengths(starts: np.ndarray, ends: np.ndarray, half_x: float,
                  half_y: float) -> np.ndarray:
    """Length of each segment start→end inside the box |x|≤half_x, |y|≤half_y."""
    d = ends - starts
    t_lo = np.zeros(len(d))
    t_hi = np.ones(len(d))
    for axis, half in ((0, half_x), (1, half_y)):
        s, v = starts[:, axis], d[:, axis]
        moving = np.abs(v) > 1e-12
        safe = np.where(moving, v, 1.0)
        t1 = (-half - s) / safe
        t2 = (half - s) / safe
        inside = (s >= -half) & (s <= half)
        t_lo = np.where(moving, np.maximum(t_lo, np.minimum(t1, t2)),
                        np.where(inside, t_lo, 1.0))
        t_hi = np.where(moving, np.minimum(t_hi, np.maximum(t1, t2)),
                        np.where(inside, t_hi, 0.0))
    return np.clip(t_hi - t_lo, 0.0, None) * np.linalg.norm(d, axis=1)


def siddon_uniform(sinogram: np.ndarray, geometry, mu: float, image_size: int,
                   pixel_size: float, rtol: float = 1e-9) -> Check:
    """Line integrals of a uniform image equal ``mu`` × the ray–box chord."""
    half = image_size * pixel_size / 2.0
    extent = 0.75 * pixel_size * float(np.hypot(image_size, image_size))
    expected = np.empty((geometry.num_views, geometry.num_detectors))
    for view in range(geometry.num_views):
        starts, ends = geometry.rays(view, extent)
        expected[view] = mu * chord_lengths(np.asarray(starts, float),
                                            np.asarray(ends, float), half, half)
    sino = np.asarray(sinogram, dtype=np.float64)
    err = float(np.max(np.abs(sino - expected))) if sino.shape == expected.shape else math.inf
    ok = err <= rtol * float(np.max(expected))
    return Check("siddon_uniform", ok,
                 f"max |integral - mu*chord| = {err:.2e} over {expected.size} rays")


def dose_order(truths: Sequence[np.ndarray], fulls: Sequence[np.ndarray],
               lows: Sequence[np.ndarray]) -> Check:
    """Full-dose FBP is closer to the true attenuation than low-dose FBP.

    Summed over all pairs of a run: on a single 64×64 slice at 1e4
    photons the Hann-filtered reconstruction error is ~99% of the
    low-dose error, and about one slice in 250 inverts the order.
    """
    full_err = sum(float(np.sum((f - t) ** 2)) for f, t in zip(fulls, truths))
    low_err = sum(float(np.sum((lo - t) ** 2)) for lo, t in zip(lows, truths))
    ok = len(truths) > 0 and full_err < low_err
    return Check("fbp_dose_order", ok,
                 f"full/low squared error {full_err / low_err if low_err else math.inf:.4f} "
                 f"over {len(truths)} pairs")


def gradient_matches(probes: Sequence[tuple], rtol: float) -> Check:
    """Central differences converge to the autograd directional derivatives.

    Each probe is ``(finite_differences, autograd)`` for one direction,
    where ``finite_differences`` maps step size to the central
    difference.  The loss is piecewise smooth (max-pool, leaky ReLU): a
    step that straddles a kink spoils that one difference, so each
    direction is judged by its closest step, and the check by the median
    direction.  A wrong gradient is wrong in every direction.
    """
    best = []
    for fds, autograd in probes:
        errors = [abs(fd - autograd) / max(abs(autograd), 1e-300) for fd in fds.values()]
        best.append(min(errors) if errors else math.inf)
    ok = bool(best) and float(np.median(best)) <= rtol
    return Check("finite_difference_gradient", ok,
                 f"closest relative error per direction "
                 f"{', '.join(f'{b:.1e}' for b in best)}; tolerance on the median {rtol:g}")


def losses_finite(history: Mapping[str, Sequence[float]]) -> Check:
    values = [v for series in history.values() for v in series]
    ok = bool(values) and all(math.isfinite(v) for v in values)
    return Check("loss_history_finite", ok, f"{len(values)} epoch losses")


# ---------------------------------------------------------------------------
# serve-sim
# ---------------------------------------------------------------------------
def conservation(summary: Mapping, requested: Mapping[str, int]) -> Check:
    """Per kind, completed + shed equals the requests sent, and none is shed."""
    kinds: Dict[str, Mapping] = summary.get("kinds", {})
    bad = []
    for kind, n in sorted(requested.items()):
        got = kinds.get(kind, {"completed": 0, "shed": 0})
        if got["completed"] + got["shed"] != n or got["shed"] != 0:
            bad.append(f"{kind}: {got['completed']}+{got['shed']} of {n}")
    extra = sorted(set(kinds) - set(requested))
    if extra:
        bad.append(f"unrequested kinds {extra}")
    if summary.get("requests") != sum(requested.values()):
        bad.append(f"requests {summary.get('requests')} != {sum(requested.values())}")
    return Check("serve_conservation", not bad,
                 "; ".join(bad) or f"{sum(requested.values())} requests, none shed")


def replay_matches(live: Mapping, replayed: Mapping) -> Check:
    """The summary recomputed from the JSONL trace equals the live one."""
    diff = sorted(k for k in replayed if k not in live or live[k] != replayed[k])
    ok = bool(replayed) and not diff
    return Check("trace_replay", ok,
                 f"{len(replayed)} keys equal" if ok else f"differ: {diff}")


# ---------------------------------------------------------------------------
# traced runs
# ---------------------------------------------------------------------------
def same_bits(a, b) -> bool:
    """Exact equality of nested lists/dicts of arrays and numbers."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a, b = np.asarray(a), np.asarray(b)
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same_bits(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(same_bits(x, y) for x, y in zip(a, b))
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    return type(a) is type(b) and a == b


def traced_reproduces(traced, untraced) -> Check:
    return Check("traced_equals_untraced", same_bits(traced, untraced),
                 "round 0 outputs compared bit for bit")


def coverage_floor(share: float, floor: float, what: str) -> Check:
    return Check("span_coverage", share >= floor,
                 f"{what}: {100 * share:.2f}% covered, floor {100 * floor:g}%")
