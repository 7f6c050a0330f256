"""Grid drivers: from defect geometries to parity-paired measurements.

Every routine here builds chains at half filling, measures subsystem
entropy and number fluctuation through `measure`, the one route for open
chains and rings, and labels the results by subsystem parity.  A border
defect is a block of n_imp equal bonds on every other bond, centred on the
region's border bond; one bond is a single defect.  The even member of a
pair has an even subsystem with the block at its border; the odd member
shifts block and border together by one site.  A dot, two successive weak
bonds, has its own pair (`dot_pair`).  Grids are expressed as ladders of
total sizes, rounded to whatever congruence the geometry needs (even
subsystems for the even member, rings of size 2 mod 4 to keep the Fermi
level non-degenerate).
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from .chains import ChainSpec, alternating_block, dot_impurity, place_pattern
from .fitting import ScalingSample
from .observables import charge_fluctuation, entanglement_entropy, sublattice_occupations
from .spectral import half_filled_block


def measure(spec: ChainSpec, region_len: int) -> tuple[float, float]:
    """Entropy and number fluctuation of the first region_len sites at
    half filling, from the region's sublattice block Q_A
    (`spectral.half_filled_block`)."""
    nu = sublattice_occupations(half_filled_block(spec, region_len))
    return entanglement_entropy(nu), charge_fluctuation(nu)


def pair_specs(ratio: float, n_sites: int, region_len: int, boundary: str = "open",
               n_imp: int = 1) -> tuple[ChainSpec, ChainSpec]:
    """Even/odd chains of a border defect, built without solving anything.

    The defect is a block of n_imp equal bonds on every other bond,
    centred on the border bond of region_len sites; one bond is a single
    defect.  The odd chain moves the block one bond to the right.  Raises
    ``ValueError`` if region_len is odd, n_imp is even, the block or
    either region does not fit on the chain, or a ring is not 2 mod 4
    sites long (its Fermi level would be degenerate).
    """
    if not 0 < region_len < n_sites:
        raise ValueError(f"regions of {region_len} and {region_len + 1} sites "
                         f"do not fit on {n_sites} sites")
    if region_len % 2 != 0:
        raise ValueError(f"region_len must be even, got {region_len}")
    if boundary == "periodic" and n_sites % 4 != 2:
        raise ValueError(f"ring size must be 2 mod 4, got {n_sites}")
    if n_imp % 2 == 0:
        raise ValueError(f"centred block needs odd n_imp, got {n_imp}")
    anchor = region_len - (n_imp - 1)
    if anchor < 1:
        raise ValueError(f"block of {n_imp} bonds does not fit left of {region_len}")
    return tuple(place_pattern(alternating_block(ratio, anchor + shift, n_imp), n_sites, boundary)
                 for shift in (0, 1))


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


def pair_samples(ratio: float, n_sites: int, region_len: int, boundary: str = "open",
                 n_imp: int = 1) -> tuple[ScalingSample, ScalingSample]:
    """Measure the even/odd pair of `pair_specs`.

    region_len must be even; the odd partner measures region_len + 1
    sites with the whole block moved one bond to the right, on a chain
    of the same size.
    """
    even_spec, odd_spec = pair_specs(ratio, n_sites, region_len, boundary, n_imp)
    out = []
    for parity, spec, ell in (("even", even_spec, region_len),
                              ("odd", odd_spec, region_len + 1)):
        s, f = measure(spec, ell)
        out.append(ScalingSample(boundary=boundary, ratio=ratio, n_sites=n_sites,
                                 region_len=ell, parity=parity,
                                 entropy=s, fluctuation=f))
    return out[0], out[1]


# Most geometric steps a ladder may take from lo to hi: a factor a few ulps
# above 1 would otherwise loop ~1e16 times before the first size check
_MAX_LADDER_STEPS = 100_000


def size_ladder(lo: int, hi: int, step: int, offset: int = 0,
                factor: float = 1.15) -> list[int]:
    """Geometric ladder of sizes rounded onto step * k + offset.

    Rounds each rung to the congruence class, deduplicates and keeps the
    result inside [lo, hi].  ``ValueError`` on a bad range, step or factor,
    and on a factor so near 1 that the ladder would take over 100000 steps."""
    if lo < 2 or hi < lo:
        raise ValueError(f"bad ladder range [{lo}, {hi}]")
    if not 1.0 < factor < math.inf:
        raise ValueError(f"ladder factor must be finite and exceed 1, got {factor}")
    if step < 1:
        raise ValueError(f"ladder step must be at least 1, got {step}")
    if math.log(hi) - math.log(lo) > _MAX_LADDER_STEPS * math.log(factor):
        raise ValueError(f"ladder factor {factor!r} takes over {_MAX_LADDER_STEPS} steps "
                         f"from {lo} to {hi}")
    out = []
    x = float(lo)
    while x <= hi * (1.0 + 1e-9):
        n = step * round((x - offset) / step) + offset
        if lo <= n <= hi and (not out or n > out[-1]):
            out.append(int(n))
        x *= factor
    return out


def boundary_sweep(ratio: float, sizes: Sequence[int], aspect_den: int = 10,
                   boundary: str = "open") -> list[ScalingSample]:
    """Pair measurements with a single defect on the region's border bond,
    over a ladder of total sizes.

    The even subsystem takes the nearest even integer to n_sites/aspect_den.
    Ring sizes must be 2 mod 4.  Results come back sorted by (n_sites, parity).
    """
    return [s for n_sites in sizes
            for s in pair_samples(ratio, n_sites, ladder_region(n_sites, aspect_den), boundary)]


def splitting_table(ratios: Sequence[float], sizes: Sequence[int], aspect_num: int = 1,
                    aspect_den: int = 2, n_imp: int = 1
                    ) -> dict[tuple[float, int], tuple[float, float]]:
    """Open-chain parity splittings of an n_imp-bond block on a (ratio,
    size) grid at fixed subsystem aspect.

    Every size must make aspect_num * n_sites / aspect_den an even
    integer.  Keys are (ratio, n_sites); values (delta S, delta F), even
    minus odd.
    """
    pairs = {(ratio, n_sites): pair_samples(ratio, n_sites,
                                            aspect_region(n_sites, aspect_num, aspect_den),
                                            "open", n_imp)
             for ratio in ratios for n_sites in sizes}
    return {key: (even.entropy - odd.entropy, even.fluctuation - odd.fluctuation)
            for key, (even, odd) in pairs.items()}


def dot_pair(ratio: float, n_sites: int) -> tuple[ChainSpec, ChainSpec]:
    """Even/odd chains of a half-chain dot, built without solving: n_sites
    sites with the dot bonds at (ell, ell + 1), ell = n_sites/2, and one
    site more on each side of the cut.  Raises ``ValueError`` unless
    n_sites is 0 mod 4 and places the dot."""
    if n_sites % 4 != 0:
        raise ValueError(f"dot series needs sizes 0 mod 4, got {n_sites}")
    ell = n_sites // 2
    return (place_pattern(dot_impurity(ratio, ell), n_sites),
            place_pattern(dot_impurity(ratio, ell + 1), n_sites + 2))


def dot_series(ratio: float, sizes: Sequence[int]
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Half-chain observables around a centered weak dot, by parity.

    Each size solves only the two chains of `dot_pair`, with subsystems of
    n_sites/2 and n_sites/2 + 1 sites, which share the node ln(n_sites + 1).

    Returns
    -------
    (nodes, entropy_even, entropy_odd, fluct_even, fluct_odd)
        Arrays over the size ladder; nodes hold ln(n_sites + 1).
    """
    chains = [dot_pair(ratio, n_sites) for n_sites in sizes]
    pairs = [(measure(even, even.n_sites // 2), measure(odd, even.n_sites // 2 + 1))
             for even, odd in chains]
    nodes = np.log(np.asarray(sizes, dtype=float) + 1.0)
    se = np.array([even[0] for even, _ in pairs])
    so = np.array([odd[0] for _, odd in pairs])
    fe = np.array([even[1] for even, _ in pairs])
    fo = np.array([odd[1] for _, odd in pairs])
    return nodes, se, so, fe, fo

