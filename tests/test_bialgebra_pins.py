"""Byte pins of `adw bialgebra check` and `adw bialgebra coboundary --out` on
inputs with denominators, run in-process as in ``test_cli_pins``.

The algebra is X of ``test_cli_pins._denominator_inputs`` (three copies of
nil2 with e > e = c f for c = 1/2, -2/3, 3/7), and a dense one: R(nil2) after
a unitriangular change of basis with entries 1/2, -1/3 and 2/5.  The
coproducts are:

* the coboundary pair of X on r supported on its annihilator (passing);
* the dual of X (every coalgebra axiom holds, D1-D9 fail against X);
* that dual with one more entry (Ca fails);
* the coboundary pair of the dense algebra on a rational r (both fail).

Recorded before D1-D9 and the coalgebra axioms computed on scaled ints.
The two exhaustive cases were recorded again when `bialgebra check
--exhaustive` began to list every violation it counts (30 and 24), not only
the first: the outputs differ from the earlier ones only by the violations
added after it.
"""

from fractions import Fraction as Q

import pytest

from adw import serialize as io
from adw.algebra import change_basis
from adw.bialgebra import CoproductPair, coboundary_coproducts, dualize_algebra
from adw.fields import RATIONALS
from adw.tensors import t3_entries
from .conftest import rnil2
from .test_cli_pins import _denominator_inputs, pin


def _inputs():
    base = _denominator_inputs()
    x = io.algebra_from_dict(base["x.json"], RATIONALS)
    r_ann = io.rmatrix_from_dict(base["rann.json"], RATIONALS)
    dual = dualize_algebra(x)
    extra = ((0, 0, 0, Q(2, 5)),)
    ca_bad = CoproductPair.from_entries(
        x.dim, extra + tuple(t3_entries(dual.dsucc)), tuple(t3_entries(dual.dprec)))
    change = ((Q(1), Q(1, 2), Q(0), Q(-1, 3)), (Q(0), Q(1), Q(2, 5), Q(0)),
              (Q(0), Q(0), Q(1), Q(1, 2)), (Q(0), Q(0), Q(0), Q(1)))
    dense = change_basis(rnil2(RATIONALS), change)
    r = tuple(tuple(Q(i - 2 * j, 3) if (i + j) % 3 else Q(0) for j in range(4))
              for i in range(4))
    return {
        "x.json": base["x.json"],
        "rann.json": base["rann.json"],
        "cpann.json": io.coproducts_to_dict(coboundary_coproducts(x, r_ann, r_ann), RATIONALS),
        "cpdual.json": io.coproducts_to_dict(dual, RATIONALS),
        "cpbad.json": io.coproducts_to_dict(ca_bad, RATIONALS),
        "dense.json": io.algebra_to_dict(dense),
        "rdense.json": io.rmatrix_to_dict(r, RATIONALS),
        "cpdense.json": io.coproducts_to_dict(coboundary_coproducts(dense, r, r), RATIONALS),
    }


CASES = [
    ("bialgebra-check-pass", ["bialgebra", "check", "x.json", "cpann.json"], []),
    ("bialgebra-check-d-fail", ["bialgebra", "check", "x.json", "cpdual.json",
                                "--exhaustive"], []),
    ("bialgebra-check-ca-fail", ["bialgebra", "check", "x.json", "cpbad.json"], []),
    ("bialgebra-check-dense", ["bialgebra", "check", "dense.json", "cpdense.json",
                               "--exhaustive"], []),
    ("bialgebra-coboundary-dense", ["bialgebra", "coboundary", "dense.json", "rdense.json",
                                    "rdense.json", "--out", "out.json"], ["out.json"]),
]

PINS = {
    "bialgebra-check-pass": {
        "text": (0, "ac8f5cf883fd21b342d7a2047519b776fa129b8ade1e4bb40099aa3ad06587a8", ()),
        "json": (0, "c4d98e0dfd353119f730f651bdf15d0212772bc388aef79d294ac389023f040f", ())},
    "bialgebra-check-d-fail": {
        "text": (1, "a032276f03ebd0a5e8f640f9be970ef86681281f9b66d1fe9996119c79cbff93", ()),
        "json": (1, "1d7145abc047b58d4bf14cb060f8d335e96f684db7cce4052d63df47191a12f4", ())},
    "bialgebra-check-ca-fail": {
        "text": (1, "fa66535e9bc80bd8416eb6d43ff1204de73c5e67ee1315faa1666e883022e81d", ()),
        "json": (1, "231d98f5535c4d1fe45a863a536637e83108ee228de7ad912a95f989e8aa5c74", ())},
    "bialgebra-check-dense": {
        "text": (1, "34967555882d19fe15cef3d887740fac478e74541665aa3ddc274eca66291589", ()),
        "json": (1, "24d7e9a039f1f6b9271cec04f4961ba79cdfe07fd3e68f5b68d5ab4d63a58fca", ())},
    "bialgebra-coboundary-dense": {
        "text": (1, "de283c6974a3e94e32e7c62a52c6ec0df6d8df3e0a710d2eadd293b498629e90",
                 ("c0dcb1478d338b7c495ada7142cc1e6b77393dc63e018a54dbce11c7fa023567",)),
        "json": (1, "d60525e2d35ff34f9c314227325d73c0f31a680d4870acd51a82f55cc18e4113",
                 ("c0dcb1478d338b7c495ada7142cc1e6b77393dc63e018a54dbce11c7fa023567",))},
}


@pytest.mark.parametrize("case, argv, outs", CASES, ids=[c[0] for c in CASES])
def test_bialgebra_output_bytes(case, argv, outs, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("ADW_FIELD", raising=False)
    for name, payload in _inputs().items():
        io.write_json(name, payload)
    got = {"text": pin(argv, outs, capsys), "json": pin(argv + ["--json"], outs, capsys)}
    assert got == PINS[case]
