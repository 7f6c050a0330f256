"""Print the 40-digit references that tests/test_chain_literals.py holds as literals.

Each chain's entropy S and number fluctuation F of its first region_len
sites at half filling come from mpmath's `eigsy` of the hopping matrix H,
the occupied orbitals' correlation block G_A and its eigenvalues.  Every
value is taken at 50 and at 70 digits and printed once both agree to 40.
The matrix is built here from the bond list, not by paritylab.  Needs
mpmath, which the tests do not; each chain takes a few seconds.  Run it as

    python scripts/chain_literals.py
"""

import mpmath as mp

# (boundary, n_sites, first modified bond, n_imp, ratio, region_len): n_imp
# equal bonds on every other bond from the first, as `chains.alternating_block`
# places them.  Rings are 2 mod 4 sites long and their block is centred on a
# bond, so each has a mirror axis through two bonds.
CHAINS = [
    ("open", 42, 20, 1, "1e-8", 20),   # at the region's border
    ("open", 42, 21, 1, "1e8", 21),
    ("open", 42, 9, 1, "1e6", 20),     # inside the region
    ("open", 42, 31, 1, "1e-2", 21),   # in the rest
    ("open", 42, 9, 1, "1e-4", 20),    # inside the region, below the ratios
    ("open", 42, 9, 1, "1e3", 20),     # of 3e4 to 1e5 where the open tear
    ("open", 42, 9, 1, "1e4", 20),     # loses digits (ROADMAP item 3)
    ("open", 42, 41, 1, "1e6", 40),    # the last bond, in the end block of
    ("open", 42, 41, 1, "1e-2", 40),   # a region two sites short of the end
    ("open", 40, 18, 3, "4", 20),      # a block centred on the border bond
    ("open", 40, 19, 3, "1e2", 21),
    ("periodic", 42, 20, 1, "1e8", 20),
    ("periodic", 42, 31, 1, "1e6", 20),
    ("periodic", 42, 9, 1, "1e-8", 20),
    ("periodic", 42, 21, 1, "4", 21),
    ("periodic", 30, 12, 3, "1e2", 14),
    ("periodic", 30, 13, 3, "1e-2", 15),
]

# (n_sites, first dot bond, ratio, region_len): open chains with two equal
# bonds at (bond, bond + 1), the even and odd chains of `sweeps.dot_pair`
# at 40 sites, whose dot bonds are the two bonds of the region's merge row.
DOTS = [
    (n_sites, bond, ratio, region_len)
    for ratio in ("0.05", "1e-3", "1e3")
    for n_sites, bond, region_len in ((40, 20, 20), (42, 21, 21))
]


def hamiltonian(boundary, n_sites, bonds, ratio):
    hopping = [mp.mpf(1)] * n_sites
    for b in bonds:
        hopping[b - 1] = mp.mpf(ratio)
    h = mp.zeros(n_sites, n_sites)
    for b in range(1, n_sites if boundary == "open" else n_sites + 1):
        i, j = b - 1, b % n_sites
        h[i, j] = h[j, i] = -hopping[b - 1]
    return h


def observables(boundary, n_sites, bonds, ratio, region_len):
    energies, orbitals = mp.eigsy(hamiltonian(boundary, n_sites, bonds, ratio))
    occupied = sorted(range(n_sites), key=lambda k: energies[k])[:n_sites // 2]
    gap = (min(energies[k] for k in range(n_sites) if k not in occupied)
           - max(energies[k] for k in occupied))
    assert gap > mp.mpf(10) ** -6, gap
    g = mp.matrix(region_len, region_len)
    for i in range(region_len):
        for j in range(i + 1):
            g[i, j] = g[j, i] = mp.fsum(orbitals[i, k] * orbitals[j, k] for k in occupied)
    entropy = fluctuation = mp.mpf(0)
    for nu in mp.eigsy(g, eigvals_only=True):
        nu = min(max(nu, mp.mpf(0)), mp.mpf(1))
        for p in (nu, 1 - nu):
            if p > 0:
                entropy -= p * mp.log(p)
        fluctuation += nu * (1 - nu)
    return entropy, fluctuation


def references(boundary, n_sites, bonds, ratio, region_len):
    """S and F at 70 digits, checked against 50 digits to 40."""
    values = []
    for dps in (50, 70):
        mp.mp.dps = dps
        values.append(observables(boundary, n_sites, bonds, ratio, region_len))
    for low, high in zip(*values):
        assert abs(low - high) <= mp.mpf(10) ** -40 * max(1, abs(high)), (bonds, low, high)
    return f"     {mp.nstr(values[1][0], 40)},\n     {mp.nstr(values[1][1], 40)}),"


def main():
    print("CHAINS = [")
    for boundary, n_sites, bond, n_imp, ratio, region_len in CHAINS:
        bonds = range(bond, bond + 2 * n_imp, 2)
        print(f'    ("{boundary}", {n_sites}, {bond}, {n_imp}, {ratio}, {region_len},\n'
              + references(boundary, n_sites, bonds, ratio, region_len))
    print("]\n\nDOTS = [")
    for n_sites, bond, ratio, region_len in DOTS:
        print(f"    ({n_sites}, {bond}, {ratio}, {region_len},\n"
              + references("open", n_sites, (bond, bond + 1), ratio, region_len))
    print("]")


if __name__ == "__main__":
    main()
