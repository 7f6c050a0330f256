"""Single-particle diagonalization and ground-state correlation matrices.

The many-body ground state at fixed particle number fills the lowest
single-particle orbitals; every observable used here derives from the
two-point function G_ij = <c_i^dag c_j> restricted to a subsystem.  The
Fermi level must sit in a gap for the filled sea to be unique, so filling
a degenerate level is treated as an error rather than resolved by an
arbitrary tie-break.

Half filling, which every parity measurement asks for, has its own entry
point, `half_filled_block`.  A chain of even length is bipartite: in (odd
sites, even sites) order H = [[0, B], [B^T, 0]], so G = (1 - sign H)/2
has diagonal blocks I/2 and off-diagonal block -Q/2 (Peschel, J. Phys. A
36, L205, 2003), and a region is fixed by its own sublattice block Q_A.
On an open chain B is lower bidiagonal and Q = U V^T follows from
B = U Sigma V^T alone (Golub & Kahan, SIAM J. Numer. Anal. B 2, 205,
1965).  Open chains take one divide and conquer, ``dbdsdc``'s (Gu &
Eisenstat, SIAM J. Matrix Anal. Appl. 16, 79, 1995): removing a row of
B^T tears a chain into two independent bidiagonal blocks, and one
rank-one secular merge, LAPACK's ``dlasd6``, joins them from each block's
singular values and the end components of its right singular vectors.
Those are closed-form sines for a block without defects; a block with
defects is torn again at them, its merge updating the end components, down
to pieces short enough for the bidiagonal QR ``dlasdq``.  A region needs
far less than the whole SVD.  The tear next to its border splits off the
region, and both factors of that merge are one Cauchy matrix, scaled on
each side, so one product of its rows on the poles the region meets with
themselves reads them out on the region's rows and columns alone: Q_A up
to orthogonal factors on each side, which change no occupation.  The
ground state is pure, so a region and its complement have the same
occupations other than 0 and 1: the shorter of the two is read, the
complement from the reversed chain.  A side with no row to tear on one
side of its border needs no tear: the untorn chain's singular values and
first components give its one entry.

A ring's B has one corner element more.  Every ring a sweep plans has a
mirror axis through two bonds (see `mirror_axis`), and there the
sublattice sign S = diag((-1)^j), which flips H, also flips the
reflection, so it maps the even mirror sector onto the odd one with every
energy negated.  Q_A then follows from the even sector alone, a
tridiagonal chain of L/2 sites: from its eigenvalues and the rows of its
eigenvectors that the region's sites fall on.  The sector is oriented from
the region's side, reversed if need be, so that those rows are all among
its first m, m the region's last row plus one.  The same kind of tear as
on open chains gets them: cutting the sector after row m (Cuppen, Numer.
Math. 36, 177, 1981) leaves the region's block and the rest, closed-form
cosines, and one rank-one secular merge (Gu & Eisenstat, SIAM J. Matrix
Anal. Appl. 16, 172, 1995), LAPACK's ``dlaed8`` and ``dlaed9``, joins
them.  Its eigenvectors are read out on the region's rows alone, so Q_A
comes out exactly, not up to orthogonal factors.  The tear is taken only
when the rest carries no defect and the region's rows do not reach past
the sector's middle; otherwise the whole sector's eigenpairs are taken.
A ring with no such axis is refused.

`sublattice_singular_values` gives an open chain's levels -+sigma without
orbitals, each sigma, the in-gap sigma_min too, to high relative accuracy
(dqds: Fernando & Parlett, Numer. Math. 67, 191, 1994; Demmel & Kahan,
SIAM J. Sci. Stat. Comput. 11, 873, 1990).  `diagonalize` returns every
orbital, for any filling, by the dense solver: the reference for them all.
"""

from __future__ import annotations

import ctypes
import importlib.machinery
import importlib.util
import os
import sys

import numpy as np
import scipy

from .chains import ChainSpec, build_hamiltonian

# Relative gap below which the Fermi level counts as degenerate.
DEGENERACY_RTOL = 1e-12


def _load_cython_lapack():
    """scipy.linalg.cython_lapack without the rest of scipy.linalg.

    Importing scipy.linalg costs ~0.2 s, more than most `lab` runs spend
    solving, and only this extension's function capsules are needed here.
    It is loaded straight from its file in scipy's linalg directory; if no
    file there matches this interpreter's extension suffixes, it comes from
    the package import.  A module already imported is reused.

    Loading it registers it in sys.modules under its full name, where a
    later ``import scipy.linalg.cython_lapack`` would find it and so never
    set it as an attribute of scipy.linalg.  The entry is dropped again:
    that later import then finds the file itself, and Cython hands it this
    same module object.
    """
    name = "scipy.linalg.cython_lapack"
    if name in sys.modules:
        return sys.modules[name]
    directory = os.path.join(os.path.dirname(scipy.__file__), "linalg")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(directory, "cython_lapack" + suffix)
        if os.path.isfile(path):
            spec = importlib.util.spec_from_file_location(name, path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules.pop(name, None)
            return module
    from scipy.linalg import cython_lapack

    return cython_lapack


cython_lapack = _load_cython_lapack()


def _lapack_symbol(name: str, n_args: int):
    """A LAPACK routine, called through the pointer
    scipy.linalg.cython_lapack exports for it (`_load_cython_lapack`);
    every routine here is reached this way, whether or not
    scipy.linalg.lapack also wraps it.

    The capsule is looked up under its own name, the C signature, which
    differs between scipy versions.  Every LAPACK argument is a pointer.
    A scipy that does not export the routine raises ImportError naming
    both.
    """
    try:
        capsule = cython_lapack.__pyx_capi__[name]
    except KeyError:
        raise ImportError(f"scipy {scipy.__version__} does not export LAPACK {name} "
                          f"from scipy.linalg.cython_lapack") from None
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    address = get_pointer(capsule, get_name(capsule))
    return ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * n_args)(address)


# (jobz, n, d, e, z, ldz, work, lwork, iwork, liwork, info)
_dstevd = _lapack_symbol("dstevd", 11)
# (uplo, sqre, n, ncvt, nru, ncc, d, e, vt, ldvt, u, ldu, c, ldc, work, info)
_dlasdq = _lapack_symbol("dlasdq", 16)
# (icompq, nl, nr, sqre, d, vf, vl, alpha, beta, idxq, perm, givptr, givcol,
#  ldgcol, givnum, ldgnum, poles, difl, difr, z, k, c, s, work, iwork, info)
_dlasd6 = _lapack_symbol("dlasd6", 26)
# (icompq, k, n, qsiz, d, q, ldq, indxq, rho, cutpnt, z, dlamda, q2, ldq2, w,
#  perm, givptr, givcol, givnum, indxp, indx, info)
_dlaed8 = _lapack_symbol("dlaed8", 22)
# (k, kstart, kstop, n, d, q, ldq, rho, dlamda, w, s, lds, info)
_dlaed9 = _lapack_symbol("dlaed9", 13)

# Largest deviation from 1 of the norm of a merged singular vector of an
# open chain (dlasd6) or secular eigenvector of a ring (dlaed9); measured
# <= 1e-14 up to L = 6900 and <= 5e-15 up to L = 6002.
MERGE_NORM_ATOL = 1e-12

# Open-chain segments of at most this many sites with a defect take
# ``dlasdq`` whole instead of a tear (`_segment`): near 100 sites the two
# take the same time, one tear's Python costing ~0.1 ms.  At least 5, so
# that a torn segment leaves a row or more on either side of the torn row.
_LEAF_SITES = 96


def _lapack(routine, name: str, n_sites: int, *args) -> None:
    """Call a `_lapack_symbol` routine on arrays, flags (bytes) and Python
    ints, each int passed by reference; LAPACK's info is appended as the
    last argument, and a nonzero info raises naming the chain size."""
    info = np.zeros(1, dtype=np.intc)
    routine(*[ctypes.byref(ctypes.c_int(a)) if isinstance(a, int)
              else a if isinstance(a, bytes) else a.ctypes.data for a in args],
            info.ctypes.data)
    if info[0] != 0:
        raise _solver_error(name, n_sites, f"info={info[0]}")


class DegenerateFermiLevelError(ValueError):
    """Requested filling would cut through a degenerate single-particle level."""


def diagonalize(spec: ChainSpec) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of a chain's `build_hamiltonian` by ``numpy.linalg.eigh``:
    the reference for `half_filled_block` and `sublattice_singular_values`.

    Returns
    -------
    (energies, orbitals)
        Ascending eigenvalues, shape (n,), and orthonormal orbitals,
        shape (n, n), column k belonging to energies[k].

    Raises
    ------
    numpy.linalg.LinAlgError
        If LAPACK fails; the message names the chain size.
    """
    try:
        return np.linalg.eigh(build_hamiltonian(spec))
    except np.linalg.LinAlgError as err:
        raise _solver_error("eigh", spec.n_sites, err) from err


def sublattice_singular_values(spec: ChainSpec) -> np.ndarray:
    """Singular values sigma, ascending, of the sublattice block B of an
    open chain of even length, whose energies are -+sigma: ``dlasdq``
    without vectors runs dqds (LAPACK's ``dlasq1``, through ``dbdsqr``), in
    O(L) time and memory.  A ring or an odd length raises ValueError, and a
    LAPACK failure numpy.linalg.LinAlgError naming the routine and chain."""
    n = half_filling(spec)
    if spec.boundary != "open":
        raise ValueError(f"sublattice singular values need an open chain, got {spec.boundary}")
    sigma, e = _bidiagonal(spec.bond_ratios())
    unused = np.zeros(1)
    _lapack(_dlasdq, "lasdq", spec.n_sites, b"U", 0, n, 0, 0, 0, sigma, e, unused, 1,
            unused, 1, unused, 1, np.empty(4 * n))
    return sigma


def half_filled_block(spec: ChainSpec, region_len: int) -> np.ndarray:
    """Sublattice block Q_A of the half-filled correlation matrix of a
    chain's first region_len sites, a = ceil(l/2) odd and b = floor(l/2)
    even ones: G_A = 1/2 [[I, -Q_A], [-Q_A^T, I]] in (odd sites, even
    sites) order (module docstring).  Two routes, picked from the chain:

    - open chains: the block of the shorter side, the region or its
      complement, s = min(l, L - l) sites: the ground state is pure, so
      both sides have the same occupations other than 0 and 1, and the
      unpaired count |a - b| = s mod 2 is the region's.  The complement is
      the first s sites of the reversed chain.  The tear at that side's
      border, `_torn_block`, returns W = O_1 Q_s O_2 with O_1 and O_2
      orthogonal: Q_s up to orthogonal factors on each side.  W has Q_s's
      singular values, the only thing `observables.sublattice_occupations`
      reads, and comes from one product of a Cauchy block of s/2 x L/2
      with itself, in O(L^2 + s^2 L) time and O(s L) memory, where Q_s
      itself would need the whole SVD of B.  A side that leaves no row to
      tear on one side, one site or none past L = 4, takes `_end_block`;
    - rings whose mirror axis runs through two bonds (odd axis c, as on
      every ring a sweep plans): Q_A = V[r_odd] diag(sign E) V[r_even]^T
      from the eigenvalues E of the even mirror sector and the rows r of
      its eigenvectors V that the region's sites fall on
      (`_bond_axis_block`).  With the sector oriented from the region's
      side, a tear after the region's last row m and one secular merge
      give those rows alone, in O(L^2 + m^2 L) time and O(L^2) memory,
      when the rest carries no defect; a region whose rows reach past the
      sector's middle, or a rest with a defect, takes every eigenpair.
      Any other ring raises ValueError; no planner builds one.

    Returns
    -------
    ndarray, shape (ceil(s / 2), floor(s / 2)), s = min(l, L - l) on an
        open chain and l on a ring

    Raises
    ------
    ValueError
        If the chain has an odd number of sites, the region is empty or
        longer than the chain, or the chain is a ring with no mirror axis
        through two bonds.
    DegenerateFermiLevelError
        If the Fermi gap, 2 sigma_min of B on open chains and 2 min |E| on
        bond-axis rings, is below DEGENERACY_RTOL times the bandwidth.
    numpy.linalg.LinAlgError
        If LAPACK fails, or a merged singular vector of an open chain or
        secular eigenvector of a ring misses unit norm by more than
        MERGE_NORM_ATOL; the message names the routine and the chain
        size.
    """
    half_filling(spec)  # an odd length raises
    if region_len > spec.n_sites:
        raise ValueError(f"region ends at site {region_len} but chain has {spec.n_sites}")
    if region_len < 1:
        raise ValueError(f"region length must be >= 1, got {region_len}")
    ratios = spec.bond_ratios()
    if spec.boundary != "open":
        axis = mirror_axis(ratios)
        if axis is None or axis % 2 == 0:
            raise ValueError(f"ring of {spec.n_sites} sites has no mirror axis through two "
                             f"bonds ({'none' if axis is None else f'only axis {axis}'})")
        return _bond_axis_block(ratios, axis, region_len)
    n = spec.n_sites
    # the shorter side s, the complement as the reversed chain's first
    # sites; the even site next to its border is s + 1 for odd s, and an
    # even side is read from the chain's far end, where site s + 1 is L - s
    short = min(region_len, n - region_len)
    if short < region_len:
        ratios = ratios[::-1]
    odd = short % 2 == 1
    torn = short + 1 if odd else n - short
    if 4 <= torn <= n - 2:
        return _torn_block(ratios if odd else ratios[::-1], torn, odd)
    return _end_block(ratios, short)


def _torn_block(ratios: np.ndarray, torn: int, region_first: bool) -> np.ndarray:
    """Q_A of a half-filled open chain up to orthogonal factors on each
    side, from the tear of C = B^T at row `torn`, the even site next to the
    region's border, with the region before it (region_first) or after it.

    This is `_merge` of the whole chain at row torn/2 - 1: the upper block
    over sites 1..torn-1 (NL x NL+1) and the lower one over torn+1..L
    (NR x NR), joined by the row that holds alpha = -t_{torn-1} and beta =
    -t_torn, into C = U Sigma V^T with U = diag(U_1, 1, U_2) U_m and V =
    diag(V_1, V_2) V_m, the merge factors U_m and V_m in factored form.
    The region's rows and columns of U V^T are then U_1 (U_m
    V_m^T)[rows, cols] V_1^T for the upper block, and likewise for the
    lower one, so the region's part of V_m U_m^T has Q_A's singular values.
    `_merge_readout` forms it from dlasd6's poles and z alone, through one
    Cauchy block of the poles the region meets, without U_m or V_m.
    """
    n_sites = ratios.size + 1
    nl = torn // 2 - 1
    sigma, _, _, _, (order, rotations, secular) = _merge(ratios, nl, n_sites, 1)
    # H has eigenvalues -+sigma, and half filling fills the lower L/2
    _check_gap(2.0 * sigma.min(), 2.0 * sigma.max(), n_sites // 2, n_sites)
    if region_first:
        rows_in, rows_out = np.arange(nl), np.arange(nl + 1)
    else:
        rows_in = rows_out = np.arange(nl + 1, order.size)
    return _merge_readout(rows_in, rows_out, order, rotations, secular, n_sites)


def _merge_readout(rows_in: np.ndarray, rows_out: np.ndarray, order: np.ndarray,
                   rotations: list, secular: tuple, n_sites: int) -> np.ndarray:
    """Rows rows_out and columns rows_in of V_m U_m^T for the merge factors
    of one ``dlasd6`` call.

    As LAPACK's ``dlals0`` applies them, U_m^T is the Givens rotations G,
    the row order P and the K x K secular block S_U, and V_m is the block
    S_V, P^T and G^T, rows past K in P's order passing through.  So V_m
    U_m^T = G^T P^T diag(S_V S_U, I) P G, and G acts on the rows and
    columns of the small result, which also holds every row G touches.
    S_V and S_U are one Cauchy matrix C[p, r] = 1/((dsig_p - d_r)(dsig_p +
    d_r)) of the poles dsig and new singular values d, scaled on each side
    (Gu & Eisenstat, SIAM J. Matrix Anal. Appl. 16, 79, 1995): S_V[p, r] =
    z_p C[p, r] / DIFR(r, 2), and S_U[r, q] = dsig_q z_q C[q, r] / (d_r
    DIFR(r, 2)), but -1/(d_r DIFR(r, 2)) at dsig_0 = 0: the left singular
    vector over its norm, which the secular equation ties to the right
    one's, DIFR(r, 2).  So the region's part of S_V S_U is diag(z) C_R
    diag(1/(d DIFR_2^2)) C_C^T diag(dsig z), one product (`_cauchy`) of C
    on the poles its rows and columns meet.

    Both factors are orthogonal, which is checked: every row of S_V and
    every column of S_U read must have unit norm within MERGE_NORM_ATOL.
    A vector that dlals0 zeroes for z = 0 has norm 0 here and fails it.
    """
    n, k = order.size, secular[0].size
    d, dsig, z = secular[0], secular[1], secular[-1]
    # the rows and columns read, then the others the rotations touch
    extra = np.zeros((2, n), dtype=bool)
    extra[:, [i for a, b, _, _ in rotations for i in (a, b)]] = True
    extra[0, rows_out] = extra[1, rows_in] = False
    rows, cols = (np.append(r, np.flatnonzero(e)) for r, e in zip((rows_out, rows_in), extra))
    at = np.argsort(order)
    inner_rows, inner_cols = np.flatnonzero(at[rows] < k), np.flatnonzero(at[cols] < k)
    p, q = at[rows[inner_rows]], at[cols[inner_cols]]
    # the rows' poles, then the columns' that are not among them
    slot = np.full(k, -1)
    slot[p] = np.arange(p.size)
    poles = np.concatenate([p, q[slot[q] < 0]])
    slot[poles] = np.arange(poles.size)
    gram, sums = _cauchy(poles, *secular[:-1])
    w = gram[:p.size, slot[q]]
    del gram  # bounds the peak: the Gram block, then w and the result
    w *= z[p, None]
    w *= dsig[q] * z[q]
    first = q == 0
    col_norms = (dsig[q] * z[q]) ** 2 * sums[slot[q], 1]
    col_norms[first] = np.sum((d * secular[4]) ** -2.0)
    _check_unit_norm(np.sqrt(np.concatenate([z[p] ** 2 * sums[:p.size, 0], col_norms])),
                     n_sites, "lasd6")
    # deflated rows pass through
    out = (rows[:, None] == cols).astype(float)
    out[inner_rows[:, None], inner_cols] = w
    out[inner_rows[:, None], inner_cols[first]] = -(z[p] * sums[:p.size, 2])[:, None]
    row_at, col_at = np.empty(n, dtype=np.intp), np.empty(n, dtype=np.intp)
    row_at[rows], col_at[cols] = np.arange(rows.size), np.arange(cols.size)
    for a, b, c, s in reversed(rotations):
        for t, i, j in ((out, row_at[a], row_at[b]), (out.T, col_at[a], col_at[b])):
            t[i], t[j] = c * t[i] - s * t[j], c * t[j] + s * t[i]
    return out[:rows_out.size, :rows_in.size]


def _cauchy(poles, d, dsig, difl, difr1, difr2):
    """D D^T for the rows `poles` of D[p, r] = C[p, r] / (sqrt(d_r) DIFR(r, 2)),
    r < K (see `_merge_readout`), and each row's sums of its entries squared
    times d_r and over d_r, and of its entries over sqrt(d_r) DIFR(r, 2).
    dsig_p - d_r is taken without cancellation, as ``dlals0`` takes it: from
    DIFL(r) = d_r - dsig_r for p <= r, DIFR(r, 1) = d_r - dsig_{r+1} for
    p > r.  64 rows at a time bound the temporaries."""
    scale = 1.0 / (np.sqrt(d) * difr2)
    weights = np.stack([d, 1.0 / d], axis=1)
    dsig_next = np.append(dsig[1:], 0.0)
    r = np.arange(d.size)
    core, sums = np.empty((poles.size, d.size)), np.empty((poles.size, 3))
    for start in range(0, poles.size, 64):
        p, block = poles[start:start + 64, None], core[start:start + 64]
        left = r < p
        np.subtract(dsig[p], np.where(left, dsig_next, dsig), out=block)
        block -= np.where(left, difr1, difl)
        block *= dsig[p] + d
        np.divide(scale, block, out=block)
        sums[start:start + 64, :2] = (block * block) @ weights
        sums[start:start + 64, 2] = block @ scale
    return core @ core.T, sums


def _check_unit_norm(norms: np.ndarray, n_sites: int, routine: str) -> None:
    deviation = np.abs(norms - 1.0).max(initial=0.0)
    if not deviation <= MERGE_NORM_ATOL:  # NaN fails too
        raise _solver_error(f"{routine} merge", n_sites, f"a merged vector's norm is off 1 "
                            f"by {deviation:.1e}")


def _segment(ratios: np.ndarray, n_sites: int):
    """Singular values, ascending, and the first and last components of the
    right singular vectors of one block of C: the segment of m sites that
    these bond ratios join, its first site a column.

    A segment of m = 2k + 1 sites is a k x (k+1) block whose null vector
    comes last; one of m = 2k sites is k x k.  A segment without defects
    is a clean open chain, whose orbital j has E = -+2 cos(theta_j),
    theta_j = pi j / (m + 1), and amplitude sqrt(2 / (m + 1)) sin(theta_j x)
    on site x, half of its weight on the columns except for the zero mode.
    A segment with a defect is torn by `_merge`, as ``dbdsdc`` tears a
    whole B, at the row next to its middle defect bond, so that bond is
    alpha or beta, and each defect ends up in a merge row or in a short
    piece; the merge updates the pieces' end components into the segment's
    (ICOMPQ = 0).  The first and the last row of the segment's orthogonal
    V must each keep unit norm within MERGE_NORM_ATOL.  A segment of at
    most _LEAF_SITES sites takes ``dlasdq`` with V^T's first and last
    columns, which is faster there.
    """
    m = ratios.size + 1
    k, sqre = m // 2, m % 2
    defects = (ratios != 1.0).nonzero()[0]
    if defects.size == 0:
        j = np.arange(k, 0, -1)
        # cos(theta_j) as a sine: full relative accuracy near the band centre
        sigma = 2.0 * np.sin(0.5 * np.pi * (m + 1 - 2 * j) / (m + 1))
        first = np.empty(k + sqre)
        first[:k] = 2.0 / np.sqrt(m + 1) * np.sin(np.pi * j / (m + 1))
        first[k:] = np.sqrt(2.0 / (m + 1))  # the zero mode, on the columns only
        # the last column is site m (odd m), where sin(theta_j x) is
        # (-1)^(j+1) sin(theta_j), or site m - 1, where it is (-1)^(j+1)
        # sin(2 theta_j) = (-1)^(j+1) sin(theta_j) sigma_j; the zero mode
        # (j = k + 1) alternates too
        last = first.copy() if sqre else first * sigma
        last[k % 2:k:2] *= -1.0
        last[k:] *= (-1.0) ** k
        return sigma, first, last
    if m <= _LEAF_SITES:
        sigma, e = _bidiagonal(ratios)
        ends = np.zeros((k + sqre, 2), order="F")
        ends[0, 0] = ends[-1, 1] = 1.0
        unused = np.zeros(1)
        _lapack(_dlasdq, "lasdq", n_sites, b"U", sqre, k, 2, 0, 0, sigma, e, ends, k + sqre,
                unused, 1, unused, 1, np.empty(4 * (k + sqre)))
        return sigma, ends[:, 0], ends[:, 1]
    nl = min(max(int(defects[defects.size // 2]) // 2, 1), k - 2)
    sigma, first, last, idxq, _ = _merge(ratios, nl, n_sites, 0)
    # dlasd6 leaves its own order, which IDXQ sorts; with SQRE = 1 the
    # merged null vector's components come last
    order = np.append(idxq - 1, np.arange(k, k + sqre))
    first, last = first[order], last[order]
    _check_unit_norm(np.sqrt([first @ first, last @ last]), n_sites, "lasd6")
    return sigma[order[:k]], first, last


def _merge(ratios: np.ndarray, nl: int, n_sites: int, icompq: int):
    """One divide-and-conquer step, as ``dbdsdc`` takes it (Gu & Eisenstat,
    SIAM J. Matrix Anal. Appl. 16, 79, 1995), on the block of C of the
    segment these bond ratios join (`_segment`): removing its row nl leaves
    an upper piece of 2 nl + 1 sites and the rest, each a `_segment`, and
    the row holds alpha = -t_{2nl+1} and beta = -t_{2nl+2}.  ``dlasd6``
    merges the pieces from their singular values and end components.

    Returns dlasd6's D (unsorted), VF and VL (the merged first and last
    components, in D's order) and IDXQ (1-based, sorting D), and with
    icompq = 1 the factored form that `_merge_readout` takes: the merged
    problem's row order, its Givens rotations and the secular tuple (d,
    dsig, DIFL, DIFR(:, 1), DIFR(:, 2), z) of its K roots (None with
    icompq = 0).
    """
    m = ratios.size + 1
    n, sqre = m // 2, m % 2
    nr = n - nl - 1
    sigma_up, first_up, last_up = _segment(ratios[:2 * nl], n_sites)
    sigma_low, first_low, last_low = _segment(ratios[2 * nl + 2:], n_sites)
    sigma = np.concatenate([sigma_up, [0.0], sigma_low])
    first = np.concatenate([first_up, first_low])
    last = np.concatenate([last_up, last_low])
    # each piece's singular values are ascending already
    idxq = np.concatenate([np.arange(1, nl + 1), [0], np.arange(1, nr + 1)]).astype(np.intc)
    perm, givptr, givcol, k = (np.zeros(size, dtype=np.intc) for size in (n, 1, 2 * n, 1))
    givnum, poles, difr = (np.zeros(2 * n) for _ in range(3))
    difl, z = np.zeros(n), np.zeros(n + sqre)
    _lapack(_dlasd6, "lasd6", n_sites, icompq, nl, nr, sqre, sigma, first, last,
            np.array([-ratios[2 * nl]]), np.array([-ratios[2 * nl + 1]]), idxq, perm, givptr,
            givcol, n, givnum, n, poles, difl, difr, z, k, np.zeros(1), np.zeros(1),
            np.empty(4 * (n + sqre)), np.empty(3 * n, dtype=np.intc))
    if not icompq:
        return sigma, first, last, idxq, None
    k = int(k[0])
    # GIVCOL, GIVNUM, POLES and DIFR are n x 2, column-major; dlals0
    # rotates row GIVCOL(g, 2) against GIVCOL(g, 1) by GIVNUM(g, 2:1)
    rotations = [(givcol[n + g] - 1, givcol[g] - 1, givnum[n + g], givnum[g])
                 for g in range(givptr[0])]
    # the merged problem's row order: the appended row, then PERM(2:n)
    order = np.concatenate([[nl], perm[1:] - 1])
    secular = (poles[:k], poles[n:n + k], difl[:k], difr[:k], difr[n:n + k], z[:k])
    return sigma, first, last, idxq, (order, rotations, secular)


def _bidiagonal(ratios: np.ndarray):
    """Diagonal and superdiagonal, zero-padded to the same length, of C =
    B^T of the segment these bond ratios join: the hoppings -t_b in turn."""
    hoppings = -ratios
    e = np.zeros((ratios.size + 1) // 2)
    e[:ratios.size // 2] = hoppings[1::2]
    return hoppings[0::2].copy(), e


def _end_block(ratios: np.ndarray, m: int) -> np.ndarray:
    """Sublattice block, shape (ceil(m/2), floor(m/2)), of the first m <= 2
    sites of a half-filled open chain, with the Fermi-gap check: the side
    of a region that `half_filled_block` reads when it leaves no row to
    tear on one side of its border.

    `_segment` of the whole chain gives C = U Sigma V^T's singular values
    and the first row of V.  Site 1 is joined to site 2 alone, so C's
    first column is -t_1 e_1 and the row of site 1 in C^T U = V Sigma reads
    -t_1 U[site 2, j] = sigma_j V[site 1, j]: the one entry (U V^T)[site 2,
    site 1] for m = 2 is sum_j sigma_j V[site 1, j]^2 / (-t_1).
    """
    n_sites = ratios.size + 1
    sigma, first, _ = _segment(ratios, n_sites)
    _check_gap(2.0 * sigma.min(), 2.0 * sigma.max(), n_sites // 2, n_sites)
    return np.full(((m + 1) // 2, m // 2), sigma @ first ** 2 / -ratios[0])


def _bond_axis_block(ratios: np.ndarray, axis: int, region_len: int) -> np.ndarray:
    """Q_A of a half-filled ring of even length L whose mirror axis c is
    odd, from the even mirror sector alone.

    Odd c puts an on-axis bond at both ends of the half-arc and no site on
    the axis.  With R the reflection and S = diag((-1)^j), SHS = -H and
    SRS = (-1)^c R = -R, so S maps each even-sector orbital v_k (energy
    E_k) onto an odd-sector one of energy -E_k.  Half filling takes v_k
    where E_k < 0 and S v_k where E_k > 0; both unfold with weight
    1/sqrt(2) onto the two sites of each orbit, and on the odd-even block
    of sign H, which is Q, their terms add to v_k v_k^T sign(E_k).

    Only the region's rows of the v_k enter.  The sector is oriented from
    the region's side, reversed (row r to n - 1 - r) when those rows lie
    nearer its last row than its first, so that they lie in its first m
    rows, m the region's last row plus one.  `_torn_sector` reads them
    from a tear after row m when the rest is at least as long (2m <= L/2)
    and clean: its bonds, the torn one and the far on-axis bond plain.
    Otherwise every eigenpair comes from ``stevd``: past the sector's
    middle the tear's merge and readout cost as much, and a rest with a
    defect would need a ``stevd`` of its own, which is no faster.
    """
    n_sites = ratios.size
    sites, mirror, on_axis_bond = _mirror_orbits(ratios, axis)
    n = sites.size
    row = np.empty(n_sites, dtype=np.intp)
    row[sites] = np.arange(n)
    row[mirror] = np.arange(n)
    rows = row[:region_len]
    diagonal = -on_axis_bond
    off_diagonal = -ratios[sites[:-1]]
    if n - 1 - rows.min() < rows.max():
        rows = n - 1 - rows
        diagonal, off_diagonal = diagonal[::-1], off_diagonal[::-1]
    m = int(rows.max()) + 1
    if 2 * m <= n and np.all(off_diagonal[m - 1:] == -1.0) and diagonal[-1] == -1.0:
        energies, q_a = _torn_sector(diagonal, off_diagonal, m, rows, n_sites)
    else:
        energies, orbitals = _tridiagonal(diagonal, off_diagonal, n_sites)
        q_a = (orbitals[rows[0::2]] * np.sign(energies)) @ orbitals[rows[1::2]].T
    # H has eigenvalues -+|E_k|, and half filling fills the lower L/2
    magnitudes = np.abs(energies)
    _check_gap(2.0 * magnitudes.min(), 2.0 * magnitudes.max(), n_sites // 2, n_sites)
    return q_a


def _torn_sector(diagonal: np.ndarray, off_diagonal: np.ndarray, m: int, rows: np.ndarray,
                 n_sites: int):
    """Eigenvalues E of a symmetric tridiagonal T of order n, and
    V[rows[0::2]] diag(sign E) V[rows[1::2]]^T over its eigenvectors V,
    rows all below m, from one tear of T after row m.  Past row m - 1, T
    must be a clean sector's: -1 on the off-diagonal from T[m - 1, m] on
    and at T[n - 1, n - 1], 0 on the diagonal between.

    In LAPACK's divide-and-conquer convention (``dstedc``), with beta =
    T[m - 1, m], T = diag(T_1, T_2) + |beta| v v^T where T_1 and T_2 are
    T[:m, :m] and T[m:, m:] less |beta| at the corners the tear touches,
    and v holds the last row of T_1's eigenvectors and sign(beta) times
    the first row of T_2's (Cuppen, Numer. Math. 36, 177, 1981).  T_1
    takes ``stevd``, T_2 the closed form of `_sector_rest`.  ``dlaed8``
    deflates the merged problem (tied poles rotated, small components of v
    dropped, then sorted), and ``dlaed9`` solves the secular equation for
    the K remaining roots and their eigenvectors S, z recomputed from the
    roots so that S is orthogonal (Gu & Eisenstat, SIAM J. Matrix Anal.
    Appl. 16, 172, 1995).  dlaed8 scales v to unit norm and rho to 2, so
    rho |z|max >= 2 / sqrt(n) stays above its deflation tolerance,
    8 eps max(|d|max, |z|max), and K >= 1, unless a bond of ratio above
    ~1e15 in T_1 makes |d|max that large.  Then K may be 0, every column
    is an eigenvector already, and dlaed9, which refuses K = 0, is not
    called.  T's eigenvectors are X diag(S, I) with X =
    diag(Q_1, Q_2) G P, G the rotations and P the order ``dlaed8`` reports.
    On rows below m only Q_1 enters X, and only the p columns of X's first
    K where those rows are nonzero meet S, so the result is
    X_odd M X_even^T with M = S_p diag(sign E) S_p^T over those columns,
    plus the deflated columns' terms: O(p^2 K) time and no n x n array but
    S and dlaed9's workspace, ~2 n^2 doubles as for ``stevd`` of all of T.

    Every column of S must have unit norm within MERGE_NORM_ATOL.
    """
    n = diagonal.size
    beta = off_diagonal[m - 1]
    upper = diagonal[:m].copy()
    upper[-1] -= abs(beta)
    values_up, vectors_up = _tridiagonal(upper, off_diagonal[:m - 1], n_sites)
    values_low, first_low = _sector_rest(n - m)
    d = np.concatenate([values_up, values_low])
    z = np.concatenate([vectors_up[-1], first_low])
    # only the region's rows of T_1's eigenvectors outlive the merge
    region_up = vectors_up[rows]
    del vectors_up
    rho = np.array([beta])
    # each block's eigenvalues are ascending already
    idxq = np.concatenate([np.arange(1, m + 1), np.arange(1, n - m + 1)]).astype(np.intc)
    k, givptr, perm, givcol = (np.zeros(size, dtype=np.intc) for size in (1, 1, n, 2 * n))
    dlamda, w, givnum = np.zeros(n), np.zeros(n), np.zeros(2 * n)
    unused = np.zeros(1)
    _lapack(_dlaed8, "laed8", n_sites, 0, k, n, n, d, unused, n, idxq, rho, m, z, dlamda,
            unused, n, w, perm, givptr, givcol, givnum, np.empty(n, dtype=np.intc),
            np.empty(n, dtype=np.intc))
    k = int(k[0])
    secular = np.empty((k, k), order="F")
    if k:
        _lapack(_dlaed9, "laed9", n_sites, k, 1, k, n, d, np.empty(k * k), k, rho, dlamda,
                w, secular, k)
    # column norms without a K x K temporary
    _check_unit_norm(np.sqrt(np.einsum("ij,ij->j", secular, secular)), n_sites, "laed9")
    # X on the region's rows, rotated as dlaed8 rotated its columns (GIVCOL
    # and GIVNUM are 2 x n, column-major)
    x = np.zeros((rows.size, n))
    x[:, :m] = region_up
    for g in range(givptr[0]):
        a, b = givcol[2 * g] - 1, givcol[2 * g + 1] - 1
        c, s = givnum[2 * g], givnum[2 * g + 1]
        x[:, a], x[:, b] = c * x[:, a] + s * x[:, b], c * x[:, b] - s * x[:, a]
    # its columns nonzero there, in dlaed8's order: the first K meet S, the
    # deflated ones are eigenvectors already
    columns = perm - 1
    nonzero = x.any(axis=0)[columns]
    deflated = np.flatnonzero(nonzero[k:]) + k
    x_d = x[:, columns[deflated]]
    q_a = (x_d[0::2] * np.sign(d[deflated])) @ x_d[1::2].T
    support = np.flatnonzero(nonzero[:k])
    y = x[:, columns[support]]
    del x  # bounds the peak while S is read below
    # S_p diag(sign E) S_p^T, a block of S's columns at a time
    signs = np.sign(d[:k])
    inner = np.zeros((support.size, support.size))
    for start in range(0, k, 256):
        block = secular[support, start:start + 256]
        inner += (block * signs[start:start + 256]) @ block.T
    q_a += y[0::2] @ inner @ y[1::2].T
    return d, q_a


def _sector_rest(n: int):
    """Eigenvalues, ascending, and the first components of the eigenvectors
    of the rest T_2 of a torn mirror sector (`_torn_sector`), of order n.

    T_2 has -1 on every off-diagonal entry and at both corners, 0 between:
    minus the adjacency matrix of a path with reflecting ends, whose
    eigenvectors are the DCT-II vectors cos(pi k (x + 1/2) / n),
    x = 0..n-1, with E_k = -2 cos(pi k / n).
    """
    k = np.arange(n)
    # cosines as sines: full relative accuracy near the band centre
    values = -2.0 * np.sin(0.5 * np.pi * (n - 2 * k) / n)
    first = np.sqrt(np.where(k == 0, 1.0, 2.0) / n) * np.sin(0.5 * np.pi * (n - k) / n)
    return values, first


def _solver_error(routine: str, n_sites: int, detail) -> np.linalg.LinAlgError:
    return np.linalg.LinAlgError(
        f"{routine} failed on {n_sites}x{n_sites} chain Hamiltonian: {detail}")


def mirror_axis(ratios: np.ndarray) -> int | None:
    """Reflection of a ring that leaves its bond ratios unchanged, if any.

    In 0-based storage the reflection with axis c maps site j to
    (c - j) mod L and bond b to (c - 1 - b) mod L; it is a symmetry when
    ratios[b] == ratios[(c - 1 - b) mod L] for every bond.  A symmetry
    must map the first modified bond onto a modified bond, so only those
    |M| axes are tried, each with one O(L) comparison, the odd ones (through
    two bonds) first; a clean ring takes c = 1.  Rings of fewer than three
    sites, whose two bonds join the same pair of sites, have none.

    Returns
    -------
    int or None
        The axis c in 0..L-1, odd if the ring has an axis through two bonds,
        or None if the ring has no mirror axis.
    """
    n = ratios.size
    if n < 3:
        return None
    modified = np.flatnonzero(ratios != 1.0)
    if modified.size == 0:
        return 1
    for target in sorted(modified, key=lambda b: (b - modified[0]) % 2):
        axis = int(modified[0] + target + 1) % n
        if np.array_equal(ratios, ratios[(axis - 1 - np.arange(n)) % n]):
            return axis
    return None


def _tridiagonal(diagonal: np.ndarray, off_diagonal: np.ndarray, n_sites: int):
    """Eigenpairs of a symmetric tridiagonal matrix by LAPACK ``stevd``, for
    a chain of n_sites (which a mirror sector is part of)."""
    n = diagonal.size
    energies = np.array(diagonal, dtype=float)
    e = np.zeros(n)
    e[:n - 1] = off_diagonal
    orbitals = np.empty((n, n), order="F")
    lwork, liwork = 1 + 4 * n + n * n, 3 + 5 * n
    _lapack(_dstevd, "stevd", n_sites, b"V", n, energies, e, orbitals, n, np.empty(lwork),
            lwork, np.empty(liwork, dtype=np.intc), liwork)
    return energies, orbitals


def _mirror_orbits(ratios: np.ndarray, axis: int):
    """Orbits of the reflection j -> (axis - j) mod L of a ring of even
    length L whose axis is odd, running through two bonds.

    Sites lying at half-positions axis..axis+L (site j at 2j, bond b's
    midpoint at 2b+1) hold one site of each orbit {j, axis - j}, ordered
    by distance from the axis; both ends of that half-arc are the
    midpoints of on-axis bonds.  An on-axis bond joins a site to its image
    and enters the even and odd sector as the diagonal entry -t and +t.

    Returns (sites, mirror, on_axis_bond): the half-arc's sites, the
    image of each, and the ratio of the on-axis bond at either end of the
    half-arc (0 elsewhere).  Bond sites[i] joins sites[i] and sites[i + 1].
    """
    n = ratios.size
    sites = np.arange((axis + 1) // 2, (axis + n) // 2 + 1)
    mirror = (axis - sites) % n
    sites %= n
    on_axis_bond = np.zeros(sites.size)
    on_axis_bond[0] = ratios[mirror[0]]
    on_axis_bond[-1] = ratios[sites[-1]]
    return sites, mirror, on_axis_bond


def _check_gap(gap: float, bandwidth: float, n_particles: int, n: int) -> None:
    # written so that NaN fails too
    if not (gap >= DEGENERACY_RTOL * max(bandwidth, 1.0)):
        raise DegenerateFermiLevelError(
            f"levels {n_particles - 1} and {n_particles} degenerate "
            f"(gap {gap:.3e}); filling {n_particles} of {n} is ambiguous"
        )


def correlation_matrix(eigenpairs: tuple[np.ndarray, np.ndarray],
                       n_particles: int) -> np.ndarray:
    """Ground-state two-point function G_ij = <c_i^dag c_j> from the
    `diagonalize` eigenpairs of a chain.

    With real orthonormal orbitals phi_k this is the projector
    G = sum_{k filled} phi_k phi_k^T onto the Fermi sea of the lowest
    n_particles orbitals; G is symmetric with eigenvalues 0 and 1.

    Returns
    -------
    ndarray, shape (n, n)

    Raises
    ------
    ValueError
        If n_particles lies outside 0..n.
    DegenerateFermiLevelError
        If the gap between the highest filled and lowest empty level is
        below DEGENERACY_RTOL times the spectral bandwidth, in which case
        the filled sea is not unique.
    """
    energies, orbitals = eigenpairs
    n = energies.size
    if not 0 <= n_particles <= n:
        raise ValueError(f"n_particles must be in 0..{n}, got {n_particles}")
    if 0 < n_particles < n:
        _check_gap(energies[n_particles] - energies[n_particles - 1],
                   energies[-1] - energies[0], n_particles, n)
    filled = orbitals[:, :n_particles]
    return filled @ filled.T


def half_filling(spec: ChainSpec) -> int:
    """Particle number at half filling; requires an even number of sites."""
    if spec.n_sites % 2 != 0:
        raise ValueError(f"half filling needs even n_sites, got {spec.n_sites}")
    return spec.n_sites // 2
