"""Two exactly solvable anharmonic families as whole-germ oracles.

The Morse and Poschl-Teller oscillators expand to deformations of p^2 + q^2
with a slice at every t order (`oracles.morse_perturbation`,
`oracles.poschl_teller_perturbation`), and their bound-state levels are
known in closed form, so the normalizing germ u_inv, the spectrum E_n and
the Rayleigh-Schrodinger levels are checked term for term against them.
"""

from fractions import Fraction

import pytest

from qmorse import normal_form as nf, spectrum as sp
from qmorse.series import SIG_HT, SIG_NHT, SIG_ZHT, ScalarSeries

from oracles import germ_levels, morse_germ, morse_perturbation, poschl_teller_germ, poschl_teller_perturbation

FAMILIES = {
    "morse": (morse_perturbation, morse_germ),
    "poschl-teller": (poschl_teller_perturbation, poschl_teller_germ),
}


def _at_caps(terms, vars, like):
    """The closed form as a series at the caps of the engine's value ``like``."""
    return ScalarSeries(terms, vars=vars, t_cap=like.t_cap, weight_cap=like.weight_cap)


@pytest.mark.parametrize("family, order", [("morse", 16), ("poschl-teller", 12)])
def test_germ_spectrum_and_rs_levels_match_the_closed_form(family, order):
    """u_inv, E_n and RS levels 0-2 equal the closed forms at the automatic weight cap.

    Morse: u_inv = z - t^2 z^2 / 4, so every t^l, l >= 3, and every hbar term
    of the germ vanishes.  Poschl-Teller: u_inv = z sqrt(1 + t^4 hbar^2 / 4)
    - t^2 z^2 / 4 - t^2 hbar^2 / 4, an infinite series in t^4 hbar^2.
    """
    perturbation, germ = FAMILIES[family]
    f = perturbation(order)
    result = nf.quantum_morse(f, order)
    closed = germ(order)
    assert result.u_inv == _at_caps(closed, SIG_ZHT, result.u_inv)
    assert result.spectrum == _at_caps(germ_levels(closed), SIG_NHT, result.spectrum)
    for n in (0, 1, 2):
        rs = sp.rs_perturbation(f, n, order)
        assert rs == _at_caps(germ_levels(closed, n), SIG_HT, rs)
    if family == "poschl-teller":
        assert result.u_inv.coeff((1, 2, 4)) == Fraction(1, 8) and result.u_inv.coeff((1, 4, 8))


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_closed_form_families_verify(family):
    """The master identity holds for both families at N=10."""
    assert nf.quantum_morse(FAMILIES[family][0](10), 10).verify()
