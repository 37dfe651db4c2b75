import json
from fractions import Fraction as Q

import pytest

from adw import serialize as io
from adw.actions import ActionFamily
from adw.algebra import ADAlgebra, BilinearOp
from adw.bialgebra import BilinearForm, coboundary_coproducts, dualize_algebra
from adw.crossed import AutPair, CrossedDatum, GH2Tuple
from adw.fields import RATIONALS, InputError, PrimeField
from adw.linalg import identity
from adw.matched import MatchedPairDatum
from adw.reps import regular_representation
from adw.unified import ExtendingDatum
from .conftest import nilpotent2


def roundtrip(to_dict, from_dict, obj, field=RATIONALS):
    d = to_dict(obj) if to_dict.__code__.co_argcount == 1 else to_dict(obj, field)
    blob = json.dumps(d, sort_keys=True)
    back = from_dict(json.loads(blob), field)
    d2 = to_dict(back) if to_dict.__code__.co_argcount == 1 else to_dict(back, field)
    assert json.dumps(d2, sort_keys=True) == blob
    return back


def test_algebra_roundtrip(tmp_path):
    nil = nilpotent2()
    back = roundtrip(io.algebra_to_dict, io.algebra_from_dict, nil)
    assert back.equal_tables(nil) and back.basis == nil.basis
    path = tmp_path / "a.json"
    io.write_json(str(path), io.algebra_to_dict(nil))
    assert io.load_algebra(str(path)).equal_tables(nil)


def test_algebra_unknown_key_rejected():
    d = io.algebra_to_dict(nilpotent2())
    d["extra"] = 1
    with pytest.raises(InputError):
        io.algebra_from_dict(d, RATIONALS)
    d2 = io.algebra_to_dict(nilpotent2())
    del d2["basis"]
    with pytest.raises(InputError):
        io.algebra_from_dict(d2, RATIONALS)


def test_bad_indices_and_coefficients():
    d = {"dimension": 2, "basis": ["x", "y"],
         "succ": [{"i": 0, "j": 0, "k": 5, "c": "1"}], "prec": []}
    with pytest.raises(InputError):
        io.algebra_from_dict(d, RATIONALS)
    d["succ"] = [{"i": 0, "j": 0, "k": 1, "c": "1/0"}]
    with pytest.raises(InputError):
        io.algebra_from_dict(d, RATIONALS)


@pytest.mark.parametrize("basis", [5, [], "xy", ["x", "y"], None])
def test_product_basis_must_list_dimension_labels(basis):
    d = {"dimension": 1, "basis": basis, "product": []}
    with pytest.raises(InputError, match="product file: basis must list 1 labels"):
        io.product_from_dict(d, RATIONALS)
    d["basis"] = ["x"]
    assert io.product_from_dict(d, RATIONALS)[1] == ("x",)


def test_fold_map_and_cocycle_entries_out_of_range():
    """varpi and omega entries are range-checked like every product table."""
    d = io.datum_to_dict(ExtendingDatum.from_representation(regular_representation(
        nilpotent2())))
    d["varpi1"] = [{"a": 0, "b": 0, "k": 2, "c": "1"}]
    with pytest.raises(InputError, match=r"^structure-constant index \(0,0,2\) out of range$"):
        io.datum_from_dict(d, RATIONALS)
    c = io.crossed_to_dict(CrossedDatum.split(nilpotent2(), ADAlgebra.zero(1)))
    c["omega2"] = [{"i": 2, "j": 0, "k": 0, "c": "1"}]
    with pytest.raises(InputError, match=r"^structure-constant index \(2,0,0\) out of range$"):
        io.crossed_from_dict(c, RATIONALS)


def test_rep_roundtrip_and_inline_path(tmp_path):
    rr = regular_representation(nilpotent2())
    back = roundtrip(io.rep_to_dict, io.rep_from_dict, rr)
    assert back.lsucc.mats == rr.lsucc.mats
    apath = tmp_path / "alg.json"
    io.write_json(str(apath), io.algebra_to_dict(nilpotent2()))
    rd = io.rep_to_dict(rr)
    rd["algebra"] = "alg.json"
    rpath = tmp_path / "rep.json"
    io.write_json(str(rpath), rd)
    loaded = io.load_rep(str(rpath))
    assert loaded.algebra.equal_tables(nilpotent2())


def test_datum_roundtrip():
    rr = regular_representation(nilpotent2())
    d = ExtendingDatum.from_representation(rr)
    back = roundtrip(io.datum_to_dict, io.datum_from_dict, d)
    assert back.lsucc.mats == d.lsucc.mats and back.varpi1.is_zero()


def test_crossed_roundtrip():
    c = CrossedDatum(ADAlgebra.zero(1), ADAlgebra.zero(1),
                     ActionFamily.zero(1, 1), ActionFamily.zero(1, 1),
                     ActionFamily.zero(1, 1), ActionFamily.zero(1, 1),
                     BilinearOp.from_entries(1, [(0, 0, 0, Q(1, 2))], 1),
                     BilinearOp.zero(1, 1))
    back = roundtrip(io.crossed_to_dict, io.crossed_from_dict, c)
    assert back.omega1.table == c.omega1.table


def test_matched_roundtrip():
    d = MatchedPairDatum.trivial(nilpotent2(), ADAlgebra.zero(2))
    back = roundtrip(io.matched_to_dict, io.matched_from_dict, d)
    assert back.alg1.equal_tables(d.alg1)


def test_small_objects_roundtrip():
    f = RATIONALS
    gh = GH2Tuple(2, identity(2, Q(1)), identity(2, Q(1)), identity(2, Q(1)),
                  identity(2, Q(1)), (Q(1, 3), Q(0)), (Q(2), Q(-5)))
    back = io.gh2_from_dict(io.gh2_to_dict(gh), f)
    assert back == gh
    pair = AutPair(identity(2, Q(1)), ((Q(2), Q(0)), (Q(0), Q(1))))
    back2 = io.autpair_from_dict(io.autpair_to_dict(pair, f), f)
    assert back2 == pair
    r = ((Q(0), Q(1, 2)), (Q(-1, 2), Q(0)))
    assert io.rmatrix_from_dict(io.rmatrix_to_dict(r, f), f) == r
    form = BilinearForm(2, ((Q(0), Q(1)), (Q(1), Q(0))))
    assert io.form_from_dict(io.form_to_dict(form, f), f).gram == form.gram
    cp = coboundary_coproducts(nilpotent2(), r, r)
    back3 = io.coproducts_from_dict(io.coproducts_to_dict(cp, f), f)
    assert back3.dsucc == cp.dsucc and back3.dprec == cp.dprec
    mat = ((Q(1), Q(2)), (Q(3), Q(4)))
    assert io.matrix_from_dict(io.matrix_to_dict(mat, f), f) == mat


def test_prime_field_serialization():
    f = PrimeField(5)
    alg = ADAlgebra.make(2, succ_entries=[(0, 0, 1, f.parse("3"))], field=f)
    d = io.algebra_to_dict(alg, f)
    assert d["succ"][0]["c"] == "3"
    back = io.algebra_from_dict(d, f)
    assert back.succ.table[0][0][1] == f.parse("3")


def test_ooperator_roundtrip():
    rr = regular_representation(nilpotent2())
    tmat = ((Q(2), Q(0)), (Q(0), Q(1)))
    d = io.ooperator_to_dict(tmat, rr, RATIONALS)
    t2, rep2 = io.ooperator_from_dict(d, RATIONALS)
    assert t2 == tmat and rep2.algebra.equal_tables(rr.algebra)


def dimension_files():
    """(file kind, reader, well-formed file, one of its dimension keys), per key."""
    f, nil = RATIONALS, nilpotent2()
    rr = regular_representation(nil)
    form = BilinearForm(2, identity(2, Q(1)))
    gh = GH2Tuple(1, ((Q(1),),), ((Q(1),),), ((Q(1),),), ((Q(1),),), (Q(0),), (Q(0),))
    mat = io.matrix_to_dict(identity(2, Q(1)), f)
    return [("algebra", io.algebra_from_dict, io.algebra_to_dict(nil), "dimension"),
            ("product", io.product_from_dict, io.product_to_dict(nil.assoc, nil.basis, f),
             "dimension"),
            ("rep", io.rep_from_dict, io.rep_to_dict(rr), "modDim"),
            ("datum", io.datum_from_dict,
             io.datum_to_dict(ExtendingDatum.from_representation(rr)), "vDim"),
            ("gh2", io.gh2_from_dict, io.gh2_to_dict(gh), "n"),
            ("rmatrix", io.rmatrix_from_dict, io.rmatrix_to_dict(identity(2, Q(1)), f), "dim"),
            ("coproducts", io.coproducts_from_dict,
             io.coproducts_to_dict(dualize_algebra(nil), f), "dim"),
            ("form", io.form_from_dict, io.form_to_dict(form, f), "dim"),
            ("matrix", io.matrix_from_dict, mat, "rows"),
            ("matrix", io.matrix_from_dict, mat, "cols")]


@pytest.mark.parametrize("kind, reader, d, key", dimension_files(),
                         ids=["%s-%s" % (case[0], case[3]) for case in dimension_files()])
@pytest.mark.parametrize("value", [-1, -2])
def test_negative_dimensions_are_refused_by_name(kind, reader, d, key, value):
    assert reader(json.loads(json.dumps(d)), RATIONALS) is not None
    with pytest.raises(InputError, match="^%s: expected a non-negative integer$" % key):
        reader(dict(d, **{key: value}), RATIONALS)
