"""Parity effects of boundary-adjacent defects in free-fermion chains.

Tools for building hopping chains with modified bonds, measuring
entanglement entropy and charge fluctuations of edge regions, and
comparing the even/odd region-length splittings against scattering
theory predictions.  Everything is used through its module, as in
``from paritylab import sweeps``.
"""

__version__ = "0.1.0"
