import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import pytest

from g2cert.catalog import parse_structure_equations
from g2cert.exprs import parse_polynomial
from g2cert.poly import Polynomial
from oracles import basis_form, standard_su3_pair


def P(text):
    """Polynomial from an expression; bare names are taken literally."""
    if isinstance(text, str):
        return parse_polynomial(text)
    return Polynomial.const(text)


def fam(text):
    """Polynomial from an expression with bare names mapped to fam_*."""
    return parse_polynomial(text, name_map=lambda n: Polynomial.var(n if "_" in n else f"fam_{n}"))


@pytest.fixture(scope="session")
def std_phi0():
    return (
        basis_form(7, (1, 2, 3))
        + basis_form(7, (1, 4, 5))
        + basis_form(7, (1, 6, 7))
        + basis_form(7, (2, 4, 6))
        - basis_form(7, (2, 5, 7))
        - basis_form(7, (3, 4, 7))
        - basis_form(7, (3, 5, 6))
    )


@pytest.fixture(scope="session")
def std_su3_pair():
    return standard_su3_pair()


def algebra_of(text, dim=None):
    return parse_structure_equations(text, dim)
