"""Parity-pair geometry, and the one measurement of a chain.

`measure` takes the entropy and number fluctuation of a chain's first
sites at half filling, the one route for open chains and rings.  The rest
places the chains a sweep measures, solving nothing.  A border defect is a
block of n_imp equal bonds on every other bond, centred on the region's
border bond; one bond is a single defect.  The even member of a pair
(`pair_specs`) has an even subsystem with the block at its border; the odd
member shifts block and border together by one site.  A dot, two
successive weak bonds, has its own pair (`dot_pair`).  Grids are ladders
of total sizes (`size_ladder`), rounded to whatever congruence the
geometry needs (even subsystems for the even member, rings of size 2 mod 4
to keep the Fermi level non-degenerate), and the subsystem follows the
size (`ladder_region`, `aspect_region`).
"""

from __future__ import annotations

import math

from .chains import ChainSpec, alternating_block, dot_impurity, place_pattern
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
