"""`sweeps.measure` against 40-digit references at extreme bond ratios.

The references are mpmath's `eigsy` of H and of the region's correlation
block at 50 and 70 digits (scripts/chain_literals.py): open chains and
bond-centred rings with one bond or a 3-bond block at the region's border,
inside the region and in the rest, and open chains whose last bond is in
the two-site complement of a region two sites short of the end, which is
read in its place, torn at its border, at ratios from 1e-8 to 1e8; and the
even and odd chains of a dot (`sweeps.dot_pair`), whose two bonds are
those of the region's merge row.  The open tear loses digits at ratios 3e4
to 1e5 off the region's border (ROADMAP item 3), so the set holds none
there yet.
"""

import pytest

from paritylab.chains import alternating_block, dot_impurity, place_pattern
from paritylab.sweeps import dot_pair, measure

# (boundary, n_sites, first modified bond, n_imp, ratio, region_len, S, F):
# n_imp equal bonds on every other bond from the first
CHAINS = [
    ("open", 42, 20, 1, 1e-8, 20,
     1.980487427806458999896642616613189207534e-15,
     5.036973493432112899914268937113501905028e-17),
    ("open", 42, 21, 1, 1e8, 21,
     0.6931471805599472560930351663257031542344,
     0.250000000000000049493006508266440274808),
    ("open", 42, 9, 1, 1e6, 20,
     0.8135580725701170910380717839649301706972,
     0.2368622650750242013492015196875343471262),
    ("open", 42, 31, 1, 1e-2, 21,
     1.157912666256932939554771874559960072887,
     0.36449551269636699262154813251914366296),
    ("open", 42, 9, 1, 1e-4, 20,
     1.192449620432661062670671202325817996962,
     0.3794949140731303097830726663975893564246),
    ("open", 42, 9, 1, 1e3, 20,
     0.8135582018194725134051287598653370982008,
     0.2368623092836142585823674467153793282713),
    ("open", 42, 9, 1, 1e4, 20,
     0.8135580738624835100360595936524738273837,
     0.236862265517066599350142119782656678557),
    ("open", 42, 41, 1, 1e6, 40,
     0.0000000000150086330897953589937850592191485302959,
     4.999991505509280138501115892731150176621e-13),
    ("open", 42, 41, 1, 1e-2, 40,
     1.329956665986489127349006764993042180758,
     0.4720966575157889295542340857579710554718),
    ("open", 40, 18, 3, 4, 20,
     1.385235035954240786902857552202721106314,
     0.499142803209970281839214975653311833401),
    ("open", 40, 19, 3, 1e2, 21,
     0.6931471825289734527902136705000655498893,
     0.2500000000787851209436953356976232481306),
    ("periodic", 42, 20, 1, 1e8, 20,
     1.618568388082223560926873910018268612871,
     0.5477770437383272751253538488078225168129),
    ("periodic", 42, 31, 1, 1e6, 20,
     1.529177050531957853423255700729290420636,
     0.4489396818471045425526712090702391588117),
    ("periodic", 42, 9, 1, 1e-8, 20,
     1.649843880320032848701264043412441799436,
     0.5364397671727843635537857212751041466032),
    ("periodic", 42, 21, 1, 4, 21,
     1.702212739528592187535570101849090105146,
     0.5452325021209148118189263504446119524628),
    ("periodic", 30, 12, 3, 1e2, 14,
     1.547694749398855836680998234823080810297,
     0.5307106175735223017205065949687264630144),
    ("periodic", 30, 13, 3, 1e-2, 15,
     0.8662976985643458054764300795509628152506,
     0.2834146127275598587278648054218555152884),
]

# (n_sites, first dot bond, ratio, region_len, S, F) of open chains with two
# equal bonds at (bond, bond + 1): the two chains of dot_pair(ratio, 40)
DOTS = [
    (40, 20, 0.05, 20,
     0.06429084834147627123063728754753872261488,
     0.01019786386575489042304340281857916264678),
    (42, 21, 0.05, 21,
     0.6935533810915002715578218039500624238706,
     0.2500338533881637874063820888651437565647),
    (40, 20, 1e-3, 20,
     0.00006925360956823951164017032790118047033268,
     0.000004981191768058621096830703019629120645536),
    (42, 21, 1e-3, 21,
     0.693147180758696600325981122029660986134,
     0.2500000000072666180228357014684662942618),
    (40, 20, 1e3, 20,
     1.209546099554442516851290111072013083189,
     0.3784625028018729030845009173529240248687),
    (42, 21, 1e3, 21,
     1.215725790366224067668171892222035070206,
     0.3811566972329098172635584112676739391086),
]


@pytest.mark.parametrize("boundary, n_sites, bond, n_imp, ratio, region_len, entropy, fluct",
                         CHAINS, ids=[f"{b}{n}-bond{bond}x{k}-{r:g}-l{ell}"
                                      for b, n, bond, k, r, ell, _, _ in CHAINS])
def test_measure_against_40_digit_references(boundary, n_sites, bond, n_imp, ratio,
                                             region_len, entropy, fluct):
    spec = place_pattern(alternating_block(ratio, bond, n_imp), n_sites, boundary)
    s, f = measure(spec, region_len)
    assert abs(s - entropy) <= 1e-12
    assert abs(f - fluct) <= 1e-12


@pytest.mark.parametrize("n_sites, bond, ratio, region_len, entropy, fluct", DOTS,
                         ids=[f"dot{n}-bond{bond}-{r:g}-l{ell}" for n, bond, r, ell, _, _ in DOTS])
def test_dot_against_40_digit_references(n_sites, bond, ratio, region_len, entropy, fluct):
    spec = place_pattern(dot_impurity(ratio, bond), n_sites)
    assert spec in dot_pair(ratio, 40)
    s, f = measure(spec, region_len)
    assert abs(s - entropy) <= 1e-12
    assert abs(f - fluct) <= 1e-12
