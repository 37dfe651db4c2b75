"""The fast paths of ``find_cohomologous_zeta`` and ``find_cohomologous_witness``
read their preconditions in the datum's field: a table holding the plain int
5 over GF(5) is the zero product there, as the checks read it."""

from adw.actions import ActionFamily
from adw.algebra import ADAlgebra, BilinearOp
from adw.crossed import CrossedDatum, find_cohomologous_zeta
from adw.fields import PrimeField
from adw.unified import ExtendingDatum, find_cohomologous_witness

GF5 = PrimeField(5)


def test_fibre_of_plain_multiples_of_p_is_abelian():
    fibre = ADAlgebra.make(1, [(0, 0, 0, 5)], [(0, 0, 0, -10)], field=GF5)
    split = CrossedDatum.split(ADAlgebra.zero(1, GF5), fibre)
    assert split.fibre_abelian()
    zeta, report = find_cohomologous_zeta(split, split)
    plain = CrossedDatum.split(ADAlgebra.zero(1, GF5), ADAlgebra.zero(1, GF5))
    assert (zeta, report) == find_cohomologous_zeta(plain, plain)
    assert zeta is not None and report.passed


def test_witness_fast_path_reads_plain_multiples_of_p_as_zero():
    five = BilinearOp.from_entries(1, [(0, 0, 0, 5)])
    base = ADAlgebra(1, ("e1",), five, BilinearOp.zero(1), GF5)
    z = ActionFamily.zero(1, 1)
    datum = ExtendingDatum(base, 1, z, z, z, z, z, z, z, z, BilinearOp.zero(1, 1),
                           BilinearOp.zero(1, 1), five, five)
    zeta, report = find_cohomologous_witness(datum, datum)
    assert zeta is not None and report.passed
