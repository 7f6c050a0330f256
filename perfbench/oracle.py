"""Dense reference values built without paritylab.

The Hamiltonian is assembled here from a bond list and diagonalized with
numpy's ``eigh``; region occupations come from the filled orbitals restricted
to the region.  No occupation is clamped: terms at 0 or 1 contribute 0, so
the reference is the exact free-fermion value up to rounding.
"""

from __future__ import annotations

import numpy as np

# Agreement required between the program and this reference.
TOL = 1e-9


def hamiltonian(n_sites: int, boundary: str, bonds: dict[int, float]) -> np.ndarray:
    """-sum_b t_b (|b><b+1| + h.c.); bond b (1-based) couples sites b, b+1,
    and on a ring bond n_sites couples the last site to the first."""
    t = np.ones(n_sites if boundary == "periodic" else n_sites - 1)
    for bond, ratio in bonds.items():
        t[bond - 1] = ratio
    h = np.zeros((n_sites, n_sites))
    i = np.arange(n_sites - 1)
    h[i, i + 1] = h[i + 1, i] = -t[: n_sites - 1]
    if boundary == "periodic":
        h[0, -1] = h[-1, 0] = -t[-1]
    return h


def region_values(n_sites: int, boundary: str, bonds: dict[int, float],
                  first: int, length: int) -> tuple[float, float]:
    """Entropy and number fluctuation of sites first..first+length-1 at half filling."""
    _, orbitals = np.linalg.eigh(hamiltonian(n_sites, boundary, bonds))
    filled = orbitals[first - 1:first - 1 + length, : n_sites // 2]
    nu = np.clip(np.linalg.eigvalsh(filled @ filled.T), 0.0, 1.0)
    inner = nu[(nu > 0.0) & (nu < 1.0)]
    entropy = -np.sum(inner * np.log(inner) + (1.0 - inner) * np.log1p(-inner))
    return float(entropy), float(np.sum(nu * (1.0 - nu)))


def zero_mode_splitting(n_sites: int, bonds: dict[int, float]) -> float:
    """Gap between the two open-chain levels closest to zero energy."""
    energies = np.linalg.eigvalsh(hamiltonian(n_sites, "open", bonds))
    pair = np.sort(energies[np.argsort(np.abs(energies))[:2]])
    return float(pair[1] - pair[0])


def extrapolate_inverse(sizes, values) -> float:
    """a of the least-squares fit values ~ a + b / L."""
    design = np.column_stack([np.ones(len(sizes)), 1.0 / np.asarray(sizes, float)])
    coef, *_ = np.linalg.lstsq(design, np.asarray(values, float), rcond=None)
    return float(coef[0])


def line_slope(x, y) -> float:
    """b of the least-squares line y ~ a + b x."""
    return float(np.polyfit(np.asarray(x, float), np.asarray(y, float), 1)[0])


def agree(program: float, reference: float) -> bool:
    return abs(program - reference) <= TOL
