"""A matrix without rows has every column count.

``()`` is the 0 x c matrix for every c: a matrix file with ``rows`` 0 may
declare any ``cols``, ``matmul`` multiplies it, and a projection onto a
0-dim summand (a 0 x n matrix) with its n x 0 section or inclusion splits
an algebra into a 0-dim base and the whole algebra as the complement, in
the library and on the command line.  ``matvec`` takes every vector to
``()`` through it, so a witness map into a 0-dim summand (zeta of
cohomologous cocycles, phi of inducibility, an O-operator T) is accepted
and applied.
"""

from fractions import Fraction as Q

from adw import serialize as io
from adw.actions import ActionFamily
from adw.algebra import ADAlgebra
from adw.bialgebra import check_o_operator
from adw.cli import main
from adw.crossed import (AutPair, CrossedDatum, check_cocycles_cohomologous, check_crossed_system,
                         check_inducible, cocycle_from_section)
from adw.fields import RATIONALS
from adw.linalg import matmul, matvec
from adw.reps import ADRep
from adw.unified import check_extending_structure, extract_extending_datum, unified_product

NIL = ADAlgebra.make(2, succ_entries=[(0, 0, 1, Q(1))])
PROJ, SECTION = (), ((), ())
IDENTITY = ((1, 0), (0, 1))


def test_a_zero_row_matrix_file_has_its_declared_columns():
    assert io.matrix_from_dict({"rows": 0, "cols": 2, "entries": []}, RATIONALS) == ()
    assert matmul(PROJ, SECTION) == () and matmul(PROJ, IDENTITY) == ()


def test_section_onto_a_zero_dim_quotient_gives_the_whole_algebra_as_fibre():
    res = cocycle_from_section(NIL, PROJ, SECTION)
    d = res.datum
    assert (d.algebra.dim, d.vdim, res.v_basis) == (0, 2, IDENTITY)
    assert d.valgebra.equal_tables(NIL) and res.report.passed
    assert check_crossed_system(d).passed


def test_extraction_onto_a_zero_dim_subalgebra_gives_the_whole_algebra_as_complement():
    res = extract_extending_datum(NIL, SECTION, PROJ)
    d = res.datum
    assert (d.algebra.dim, d.vdim, res.v_basis) == (0, 2, IDENTITY)
    assert d.succ_v.table == NIL.succ.table and d.prec_v.table == NIL.prec.table
    assert check_extending_structure(d).passed
    assert unified_product(d).equal_tables(NIL)


def run(argv, capsys):
    code = main(argv)
    return code, capsys.readouterr().out


def test_commands_split_onto_a_zero_dim_summand(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, payload in (("nil.json", io.algebra_to_dict(NIL)),
                          ("p0.json", {"rows": 0, "cols": 2, "entries": []}),
                          ("s0.json", {"rows": 2, "cols": 0, "entries": [[], []]})):
        io.write_json(name, payload)
    basis = "vBasis: [['1', '0'], ['0', '1']]\n"
    assert run(["crossed", "from-section", "nil.json", "--project", "p0.json",
                "--section", "s0.json", "--out", "c.json"], capsys) == \
        (0, "crossed system: pass (16 identities checked)\nverdict: pass\nwrote c.json\n"
         + basis)
    c = io.load_crossed("c.json")
    assert c.algebra.dim == 0 and c.valgebra.equal_tables(NIL)
    assert run(["unified", "extract", "nil.json", "--include", "s0.json", "--project", "p0.json",
                "--out", "d.json"], capsys) == \
        (0, "extending structure: pass (32 identities checked)\nverdict: pass\nwrote d.json\n"
         + basis)
    assert io.load_datum("d.json").succ_v.table == NIL.succ.table


def test_witness_maps_into_a_zero_dim_summand_are_applied():
    assert matvec(PROJ, (1, 2)) == ()
    c = CrossedDatum.split(NIL, ADAlgebra.zero(0))
    assert check_cocycles_cohomologous(c, c, PROJ).summary() == \
        "cohomologous cocycles: pass (10 identities checked)"
    assert check_inducible(c, AutPair(IDENTITY, ()), PROJ).summary() == \
        "inducibility: pass (11 identities checked)"
    zero = ActionFamily.zero(0, 1)
    rep = ADRep(ADAlgebra.zero(0), 1, zero, zero, zero, zero)
    assert check_o_operator(PROJ, rep).summary() == \
        "O-operator identities: pass (2 identities checked)"
