"""Grid drivers: from defect geometries to parity-paired measurements.

Every routine here builds chains at half filling, measures subsystem
entropy and number fluctuation, and labels the results by subsystem
parity.  The even member of a pair has an even subsystem with the defect
pattern at its border; the odd member shifts pattern and border together
by one site.  Grids are expressed as ladders of total sizes, rounded to
whatever congruence the geometry needs (even subsystems for the even
member, rings of size 2 mod 4 to keep the Fermi level non-degenerate).
"""

from __future__ import annotations

import math
import os
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .chains import (PATTERN_KINDS, ChainSpec, alternating_block, dot_impurity,
                     parity_pair, place_pattern, single_impurity)
from .fitting import ScalingSample
from .observables import Region, region_observables
from .spectral import diagonalize, half_filling, occupy


def measure(spec: ChainSpec, region_len: int) -> tuple[float, float]:
    """Entropy and number fluctuation of the first region_len sites at
    half filling.

    Only the region's block G_A = phi_A phi_A^T of the correlation matrix
    is formed, from the region's rows phi_A of the filled orbitals.
    """
    phi_a = occupy(diagonalize(spec), half_filling(spec))[:region_len]
    obs = region_observables(phi_a @ phi_a.T, Region(1, region_len))
    return obs.entropy, obs.fluctuation


def border_pattern(kind: str, ratio: float, region_len: int, n_imp: int = 1):
    """Defect pattern anchored at the border bond of a region.

    Single defects and dots sit on the border bond itself (the dot site
    just outside the region); alternating blocks are centered on it, so
    their bond count must be odd.
    """
    if kind == "single":
        return single_impurity(ratio, region_len)
    if kind == "dot":
        return dot_impurity(ratio, region_len)
    if kind == "alternating":
        if n_imp % 2 == 0:
            raise ValueError(f"centered alternating block needs odd n_imp, got {n_imp}")
        anchor = region_len - (n_imp - 1)
        if anchor < 1:
            raise ValueError(f"block of {n_imp} bonds does not fit left of {region_len}")
        return alternating_block(ratio, anchor, n_imp)
    raise ValueError(f"kind must be one of {PATTERN_KINDS}, got {kind!r}")


def pair_specs(kind: str, ratio: float, n_sites: int, region_len: int,
               boundary: str = "open", n_imp: int = 1) -> tuple[ChainSpec, ChainSpec]:
    """Even/odd chains of one geometry, built without solving anything.

    The even chain carries the pattern at the border of region_len sites,
    the odd one the same pattern moved one bond to the right.  Raises
    ``ValueError`` if region_len is odd, or if either region or either
    pattern does not fit on the chain.
    """
    if not 0 < region_len < n_sites:
        raise ValueError(f"regions of {region_len} and {region_len + 1} sites "
                         f"do not fit on {n_sites} sites")
    pattern = border_pattern(kind, ratio, region_len, n_imp)
    return parity_pair(place_pattern(pattern, n_sites, boundary), region_len)


def ladder_region(n_sites: int, aspect_den: int) -> int:
    """Even subsystem length nearest n_sites / aspect_den."""
    return 2 * round(n_sites / (2 * aspect_den))


def aspect_region(n_sites: int, aspect_num: int, aspect_den: int) -> int:
    """Subsystem length aspect_num * n_sites / aspect_den, which must be an
    even integer (``ValueError`` otherwise)."""
    ell2 = aspect_num * n_sites
    if ell2 % (2 * aspect_den) != 0:
        raise ValueError(
            f"size {n_sites} gives no even subsystem at aspect {aspect_num}/{aspect_den}")
    return ell2 // aspect_den


def pair_samples(kind: str, ratio: float, n_sites: int, region_len: int,
                 boundary: str = "open", n_imp: int = 1) -> tuple[ScalingSample, ScalingSample]:
    """Measure the even/odd pair for one geometry.

    region_len must be even; the odd partner measures region_len + 1
    sites with the whole pattern moved one bond to the right, on a chain
    of the same size.
    """
    even_spec, odd_spec = pair_specs(kind, ratio, n_sites, region_len, boundary, n_imp)
    out = []
    for parity, spec, ell in (("even", even_spec, region_len),
                              ("odd", odd_spec, region_len + 1)):
        s, f = measure(spec, ell)
        out.append(ScalingSample(boundary=boundary, ratio=ratio, n_sites=n_sites,
                                 region_len=ell, parity=parity,
                                 entropy=s, fluctuation=f))
    return out[0], out[1]


def size_ladder(lo: int, hi: int, step: int, offset: int = 0,
                factor: float = 1.15) -> list[int]:
    """Geometric ladder of sizes rounded onto step * k + offset.

    Rounds each rung to the congruence class, deduplicates and keeps the
    result inside [lo, hi]."""
    if lo < 2 or hi < lo:
        raise ValueError(f"bad ladder range [{lo}, {hi}]")
    if not 1.0 < factor < math.inf:
        raise ValueError(f"ladder factor must be finite and exceed 1, got {factor}")
    if step < 1:
        raise ValueError(f"ladder step must be at least 1, got {step}")
    out = []
    x = float(lo)
    while x <= hi * (1.0 + 1e-9):
        n = step * round((x - offset) / step) + offset
        if lo <= n <= hi and (not out or n > out[-1]):
            out.append(int(n))
        x *= factor
    return out


def boundary_sweep(kind: str, ratio: float, sizes: Sequence[int], aspect_den: int = 10,
                   n_imp: int = 1, parallelism: int = 1) -> list[ScalingSample]:
    """Open-chain pair measurements over a ladder of total sizes.

    The even subsystem takes the nearest even integer to n_sites/aspect_den.
    Results come back sorted by (n_sites, parity).
    """
    tasks = [(kind, ratio, n_sites, ladder_region(n_sites, aspect_den), "open", n_imp)
             for n_sites in sizes]
    pairs = _run(pair_samples, tasks, parallelism)
    return [s for pair in pairs for s in pair]


def bulk_sweep(ratio: float, sizes: Sequence[int], aspect_den: int = 10,
               parallelism: int = 1) -> list[ScalingSample]:
    """Ring pair measurements with a single defect bounding the region.

    Sizes must be 2 mod 4 so the half-filled ring keeps a gap at the
    Fermi level."""
    tasks = []
    for n_sites in sizes:
        if n_sites % 4 != 2:
            raise ValueError(f"ring size must be 2 mod 4, got {n_sites}")
        tasks.append(("single", ratio, n_sites, ladder_region(n_sites, aspect_den),
                      "periodic", 1))
    pairs = _run(pair_samples, tasks, parallelism)
    return [s for pair in pairs for s in pair]


def splitting_table(kind: str, ratios: Sequence[float], sizes: Sequence[int],
                    aspect_num: int = 1, aspect_den: int = 2, n_imp: int = 1,
                    parallelism: int = 1) -> dict[tuple[float, int], tuple[float, float]]:
    """Parity splittings on a (ratio, size) grid at fixed subsystem aspect.

    Every size must make aspect_num * n_sites / aspect_den an even
    integer.  Keys are (ratio, n_sites); values (delta S, delta F), even
    minus odd.
    """
    keys = [(ratio, n_sites) for ratio in ratios for n_sites in sizes]
    tasks = [(kind, ratio, n_sites, aspect_region(n_sites, aspect_num, aspect_den),
              "open", n_imp) for ratio, n_sites in keys]
    pairs = _run(pair_samples, tasks, parallelism)
    return {key: (even.entropy - odd.entropy, even.fluctuation - odd.fluctuation)
            for key, (even, odd) in zip(keys, pairs)}


def dot_series(ratio: float, sizes: Sequence[int], parallelism: int = 1
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Half-chain observables around a centered weak dot, by parity.

    The even member is (n_sites, ell = n_sites/2) with the dot bonds at
    (ell, ell + 1); the odd member adds one site on each side of the cut
    (n_sites + 2 sites, ell + 1 in the subsystem), keeping the geometry of
    the cut.  Only these two chains are solved.  Both members of a pair
    share the node ln(n_sites + 1).

    Returns
    -------
    (nodes, entropy_even, entropy_odd, fluct_even, fluct_odd)
        Arrays over the size ladder; nodes hold ln(n_sites + 1).
    """
    tasks = []
    for n_sites in sizes:
        if n_sites % 4 != 0:
            raise ValueError(f"dot series needs sizes 0 mod 4, got {n_sites}")
        tasks.append((ratio, n_sites, n_sites // 2))
    pairs = _run(_pair_for_dot, tasks, parallelism)
    nodes = np.log(np.asarray(sizes, dtype=float) + 1.0)
    se = np.array([even[0] for even, _ in pairs])
    so = np.array([odd[0] for _, odd in pairs])
    fe = np.array([even[1] for even, _ in pairs])
    fo = np.array([odd[1] for _, odd in pairs])
    return nodes, se, so, fe, fo


def _pair_for_dot(ratio, n_sites, ell):
    # odd member of a dot pair lives on a chain two sites longer
    even, _ = pair_specs("dot", ratio, n_sites, ell)
    _, odd = pair_specs("dot", ratio, n_sites + 2, ell)
    return measure(even, ell), measure(odd, ell + 1)


def resolve_parallelism(parallelism: int) -> int:
    """Worker count, overridable through the LAB_THREADS variable."""
    env = os.environ.get("LAB_THREADS")
    if env is not None:
        try:
            parallelism = int(env)
        except ValueError as err:
            raise ValueError(f"LAB_THREADS must be an integer, got {env!r}") from err
    if parallelism < 1:
        raise ValueError(f"parallelism must be >= 1, got {parallelism}")
    return parallelism


def _run(fn: Callable, tasks: Iterable[tuple], parallelism: int) -> list:
    tasks = list(tasks)
    parallelism = resolve_parallelism(parallelism)
    if parallelism == 1 or len(tasks) <= 1:
        return [fn(*t) for t in tasks]
    with ProcessPoolExecutor(max_workers=parallelism) as pool:
        futures = [pool.submit(fn, *t) for t in tasks]
        return [f.result() for f in futures]
