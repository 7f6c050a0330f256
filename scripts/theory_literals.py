"""Print the 40-digit references that tests/test_theory.py holds as literals.

Each integral is taken by mpmath's tanh-sinh quadrature at 60 digits over
two different splits of the half line, and printed once both agree to 45
digits.  Needs mpmath, which the tests do not; run it as

    python scripts/theory_literals.py
"""

import mpmath as mp


def fluct_parity_slope(aspect):
    # int_0^infty [ln(1 + 1/x^2)]^2 / sqrt(1 + sin^2(pi aspect) x^2) dx / pi^3
    sin2 = mp.sin(mp.pi * aspect) ** 2
    values = [mp.quad(lambda x: mp.log1p(1 / (x * x)) ** 2 / mp.sqrt(1 + sin2 * x * x),
                      split) / mp.pi**3
              for split in ([0, 1, mp.inf], [0, 0.25, 1, 4, mp.inf])]
    assert abs(values[0] - values[1]) < mp.mpf(10) ** -45 * abs(values[0]), values
    return values[0]


def main():
    mp.mp.dps = 60
    for label, aspect in (("1/2", mp.mpf(1) / 2), ("1/3", mp.mpf(1) / 3)):
        print(f"fluct_parity_slope({label}) = {mp.nstr(fluct_parity_slope(aspect), 40)}")


if __name__ == "__main__":
    main()
