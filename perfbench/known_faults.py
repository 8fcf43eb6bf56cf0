"""Show each known fault the benchmark works around or leaves standing.

Run from the repository root::

    python3 perfbench/known_faults.py stale-fft     # fast validates on stale filters
    python3 perfbench/known_faults.py shm-tracker   # workers=1 still starts a process
    python3 perfbench/known_faults.py fft-cache     # 64 entries fill on mixed shapes
    python3 perfbench/known_faults.py lung-border   # lung left out of the lung mask

Each prints what it measured and exits 0 when the fault still shows.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from harness import NullTracer, live_children, rng_for  # noqa: E402


def stale_fft() -> bool:
    """Validation after in-place Adam writes reads cached filter transforms."""
    from repro.backend import clear_kernel_caches
    from repro.data.datasets import EnhancementDataset
    from repro.pipeline import EnhancementAI
    from repro.tensor import no_grad
    from repro.tensor.tensor import Tensor
    from train_enhancer import TRAIN_PAIRS, TrainEnhancer

    bench = TrainEnhancer(1, NullTracer())
    bench.setup()
    lows, fulls, _ = bench.make_pairs((2, 0))
    enhancer = EnhancementAI(rng=rng_for(1, 0, 0)).to_backend("fast")
    val = EnhancementDataset(lows[TRAIN_PAIRS:], fulls[TRAIN_PAIRS:])
    history = enhancer.train(EnhancementDataset(lows[:TRAIN_PAIRS], fulls[:TRAIN_PAIRS]),
                             epochs=2, val_dataset=val)
    clear_kernel_caches()
    enhancer.model.eval()
    with no_grad():
        x, y = val[0]
        fresh = enhancer.loss(enhancer.model(Tensor(x[None])), Tensor(y[None])).item()
    rel = abs(history.val_loss[-1] - fresh) / abs(fresh)
    print(f"epoch-2 validation loss on fast {history.val_loss[-1]:.12e}; the same weights "
          f"on fast after clear_kernel_caches() {fresh:.12e}: relative difference {rel:.1e}")
    return rel > 1e-9


def shm_tracker() -> bool:
    """``make_enhancement_pairs(workers=1)`` starts multiprocessing's resource tracker."""
    from repro.data.datasets import make_enhancement_pairs

    before = live_children()
    make_enhancement_pairs(1, size=32, physics=False, workers=1, rng=rng_for(1, 0))
    after = live_children()
    print(f"child processes before: {before}, after a workers=1 call: {after}")
    return len(after) > len(before)


def fft_cache() -> bool:
    """Three scan shapes need more filter transforms than the cache keeps."""
    from repro.backend.fast import _FFT_CACHE_MAX, fft_cache_size
    from repro.data.phantom3d import chest_volume
    from repro.pipeline import ClassificationAI, ComputeCovid19Plus, EnhancementAI

    fw = ComputeCovid19Plus(enhancement=EnhancementAI(rng=rng_for(1, 0)),
                            classification=ClassificationAI(rng=rng_for(1, 1)),
                            backend="fast")
    sizes = []
    for size in (32, 48, 64):
        fw.diagnose(chest_volume(size=size, num_slices=16, rng=rng_for(1, size)))
        sizes.append(fft_cache_size())
    print(f"cache entries after 32, 48 and 64 px scans: {sizes} (cap {_FFT_CACHE_MAX})")
    return sizes[-1] == _FFT_CACHE_MAX and sizes[-1] < sizes[0] * len(sizes)


def lung_border() -> bool:
    """The threshold segmentation leaves lung out of the lung mask."""
    import checks
    from diagnose import Diagnose
    from repro.data.phantom import ChestPhantomConfig
    from repro.data.phantom3d import chest_volume, lung_mask_volume
    from repro.pipeline.segmentation import threshold_lung_mask

    # Border lesions: positive scans, noise-free.
    worst = 1.0
    for r in range(8):
        rng = rng_for(1, 2, r)
        anatomy_seed = int(rng_for(1, 2, r).integers(0, 2**31))
        volume = chest_volume(size=64, num_slices=32, covid=True, rng=rng)
        truth = lung_mask_volume(volume.shape, ChestPhantomConfig(size=64), anatomy_seed)
        worst = min(worst, checks.dice(threshold_lung_mask(volume), truth))
    print(f"lowest lung-mask Dice over 8 noise-free COVID-positive scans: {worst:.3f}")
    # 8-connected exterior fill: the diagnose workload's seed 12, scan 0 (negative).
    bench = Diagnose(12, NullTracer())
    truth = bench.true_lungs((2, 0))
    mask = threshold_lung_mask(bench.make_scan((2, 0), covid=False))
    per_slice = [checks.dice(mask[z], truth[z]) for z in range(len(mask))]
    lost = [z for z, d in enumerate(per_slice) if d < 0.5]
    print(f"diagnose seed 12 scan 0 (COVID-negative): Dice {checks.dice(mask, truth):.3f}, "
          f"lung lost on slices {lost}")
    return worst < 0.9 and bool(lost)


FAULTS = {"stale-fft": stale_fft, "shm-tracker": shm_tracker, "fft-cache": fft_cache,
          "lung-border": lung_border}

if __name__ == "__main__":
    if len(sys.argv) != 2 or sys.argv[1] not in FAULTS:
        sys.exit(f"usage: known_faults.py {{{','.join(FAULTS)}}}")
    shows = FAULTS[sys.argv[1]]()
    print("fault shows" if shows else "fault does not show")
    sys.exit(0 if shows else 1)
