"""The bialgebra equations the library evaluates are README's catalogue.

``bialgebra`` holds Ca1/Ca2, D1-D9, CD1/CD2 and CD3-CD10 as formulas that it
compiles; each label must appear in README's equation catalogue, and each
formula must be written there, compared with all whitespace removed.  The
chain terms that a broken Ca2 names are those of the catalogue's Ca2 line.
"""

import re
from fractions import Fraction as Q
from pathlib import Path

from adw.bialgebra import (COALGEBRA, COBOUNDARY, COBOUNDARY_CONDITIONS, D_DUAL, D_EQUATIONS,
                           CoproductPair, check_coalgebra)

README = Path(__file__).resolve().parent.parent / "README.md"
EQUATIONS = COALGEBRA + D_EQUATIONS + D_DUAL + COBOUNDARY + COBOUNDARY_CONDITIONS


def catalogue():
    text = README.read_text()
    return text[text.index("## Equation catalogue"):text.index("## Library layout")]


def test_every_label_and_formula_is_in_the_catalogue():
    text = catalogue()
    labels = set(re.findall(r"\b(Ca\d|CD\d+|D\d)\b", text))
    flat = "".join(text.split())
    assert {e[0] for e in EQUATIONS} == {"Ca1", "Ca2", "CD1", "CD2"} | {
        "D%d" % k for k in range(1, 10)} | {"CD%d" % k for k in range(3, 11)}
    for label, _, _, formula, _ in EQUATIONS:
        assert label in labels, label
        assert "".join(formula.split()) in flat, label


def test_ca2_names_the_chain_terms_of_its_catalogue_line():
    line = re.search(r"Ca2:(.*)", catalogue()).group(1)
    terms = "".join(line.split()).split("=")
    # Ca2 breaks at its first link at e1 and at its second at e2
    cp = CoproductPair.from_entries(2, [(0, 0, 0, Q(1))], [(0, 1, 0, Q(1)), (1, 0, 1, Q(2))])
    details = [v.detail for v in check_coalgebra(cp, True).violations if v.equation == "Ca2"]
    assert details
    for detail in details:
        a, b = detail.split(" != ")
        assert terms.index(b) == terms.index(a) + 1
