"""Byte pins of every `adw` subcommand, run in-process through ``adw.cli.main``.

Each case is run twice, as text and with ``--json``, from inside a scratch
directory with relative paths, so that the ``wrote <path>`` lines and the
``artifacts`` lists do not depend on where the directory is.  The pin of a
run is its exit code, the sha256 of its stdout and the sha256 of each
``--out`` file it writes.  A handler that lost one of its imports fails here
with ``NameError``.
"""

import hashlib
from fractions import Fraction as Q

import pytest

from adw import serialize as io
from adw.actions import ActionFamily
from adw.algebra import ADAlgebra, BilinearOp
from adw.bialgebra import BilinearForm, coboundary_coproducts
from adw.cli import main
from adw.crossed import AutPair, CrossedDatum, gh2_to_crossed
from adw.matched import MatchedPairDatum
from adw.reps import ADRep, regular_representation, semidirect_product
from adw.unified import ExtendingDatum
from .conftest import nilpotent2

ZERO, ONE = Q(0), Q(1)
SKEW = ((ZERO, ONE), (-ONE, ZERO))
SIX_TUPLE = {"n": 1, "A": [["0"]], "B": [["0"]], "C": [["0"]], "D": [["0"]],
             "theta0": ["1"], "epsilon0": ["0"]}


def write_inputs():
    """The input files of every case, in the current directory."""
    nil = nilpotent2()
    field = nil.field
    rr = regular_representation(nil)
    base = ADAlgebra.zero(1)
    rank_one = CrossedDatum(base, ADAlgebra.zero(1), *(ActionFamily.zero(1, 1),) * 4,
                            BilinearOp.from_entries(1, [(0, 0, 0, ONE)], 1),
                            BilinearOp.zero(1, 1))
    split = gh2_to_crossed(io.gh2_from_dict(SIX_TUPLE, field))
    payloads = {
        "nil.json": io.algebra_to_dict(nil),
        "zero2.json": io.algebra_to_dict(ADAlgebra.zero(2)),
        "assoc.json": io.product_to_dict(nil.assoc, nil.basis, field),
        "rep.json": io.rep_to_dict(rr),
        "datum.json": io.datum_to_dict(ExtendingDatum.from_representation(rr)),
        "sd.json": io.algebra_to_dict(semidirect_product(rr)),
        "incl.json": io.matrix_to_dict(tuple(tuple(ONE if r == c else ZERO for c in range(2))
                                             for r in range(4)), field),
        "proj.json": io.matrix_to_dict(tuple(tuple(ONE if r == c else ZERO for c in range(4))
                                             for r in range(2)), field),
        "zeta22.json": io.matrix_to_dict(((ZERO, ZERO), (ZERO, ZERO)), field),
        "split.json": io.crossed_to_dict(split),
        "p1.json": io.matrix_to_dict(((ONE, ZERO),), field),
        "s1.json": io.matrix_to_dict(((ONE,), (ZERO,)), field),
        "t1.json": SIX_TUPLE,
        "t2.json": dict(SIX_TUPLE, theta0=["2"]),
        "rank1.json": io.crossed_to_dict(rank_one),
        "pair.json": io.autpair_to_dict(AutPair(((Q(2),),), ((Q(4),),)), field),
        "pairbad.json": io.autpair_to_dict(AutPair(((Q(2),),), ((Q(3),),)), field),
        "phi.json": io.matrix_to_dict(((ZERO,),), field),
        "mp.json": io.matched_to_dict(MatchedPairDatum.trivial(nil, ADAlgebra.zero(2))),
        "bc.json": io.algebra_to_dict(ADAlgebra.make(
            4, succ_entries=[(0, 0, 1, ONE)])),
        "form.json": io.form_to_dict(BilinearForm(2, ((ZERO, ONE), (ONE, ZERO))), field),
        "idform.json": io.form_to_dict(BilinearForm(2, ((ONE, ZERO), (ZERO, ONE))), field),
        "zassoc.json": io.product_to_dict(BilinearOp.zero(2), ("e1", "e2"), field),
        "cp.json": io.coproducts_to_dict(coboundary_coproducts(nil, SKEW, SKEW), field),
        "r.json": io.rmatrix_to_dict(SKEW, field),
        "op.json": io.ooperator_to_dict(((Q(2), ZERO), (ZERO, ONE)), rr, field),
    }
    for name, payload in payloads.items():
        io.write_json(name, payload)


# (case, argv, files the command writes)
CASES = [
    ("algebra-check", ["algebra", "check", "nil.json"], []),
    ("algebra-assoc", ["algebra", "assoc", "nil.json", "--out", "out.json"], ["out.json"]),
    ("algebra-dual", ["algebra", "dual", "nil.json", "--out", "out.json"], ["out.json"]),
    ("rep-check", ["rep", "check", "rep.json"], []),
    ("rep-dual", ["rep", "dual", "rep.json", "--out", "out.json"], ["out.json"]),
    ("rep-semidirect", ["rep", "semidirect", "rep.json", "--out", "out.json"], ["out.json"]),
    ("unified-check", ["unified", "check", "datum.json"], []),
    ("unified-build", ["unified", "build", "datum.json", "--out", "out.json"], ["out.json"]),
    ("unified-extract", ["unified", "extract", "sd.json", "--include", "incl.json",
                         "--project", "proj.json", "--out", "out.json"], ["out.json"]),
    ("unified-equiv", ["unified", "equiv", "datum.json", "datum.json",
                       "--zeta", "zeta22.json", "--cohomologous"], []),
    ("crossed-check", ["crossed", "check", "split.json"], []),
    ("crossed-build", ["crossed", "build", "split.json", "--out", "out.json"], ["out.json"]),
    ("crossed-from-section", ["crossed", "from-section", "nil.json", "--project", "p1.json",
                              "--section", "s1.json", "--out", "out.json"], ["out.json"]),
    ("crossed-cohomologous", ["crossed", "cohomologous", "split.json", "split.json",
                              "--search"], []),
    ("gh2-check", ["gh2", "check", "t1.json"], []),
    ("gh2-cohomologous", ["gh2", "cohomologous", "t1.json", "t2.json"], []),
    ("inducible-check", ["inducible", "check", "rank1.json", "--pair", "pairbad.json",
                         "--phi", "phi.json"], []),
    ("wells-eval", ["wells", "eval", "rank1.json", "--pair", "pair.json",
                    "--out", "out.json"], ["out.json"]),
    ("z1-basis", ["z1", "basis", "split.json"], []),
    ("matched-check", ["matched", "check", "mp.json"], []),
    ("matched-build", ["matched", "build", "mp.json", "--out", "out.json"], ["out.json"]),
    ("matched-factorize", ["matched", "factorize", "bc.json", "--first", "0,1",
                           "--second", "2,3", "--out", "out.json"], ["out.json"]),
    ("connes-check", ["connes", "check", "assoc.json", "form.json"], []),
    ("connes-derive", ["connes", "derive", "zassoc.json", "idform.json",
                       "--out", "out.json"], ["out.json"]),
    ("connes-double", ["connes", "double", "nil.json", "zero2.json", "--out", "out.json"],
     ["out.json"]),
    ("bialgebra-check", ["bialgebra", "check", "nil.json", "cp.json"], []),
    ("bialgebra-coboundary", ["bialgebra", "coboundary", "nil.json", "r.json", "r.json",
                              "--out", "out.json"], ["out.json"]),
    ("ybe-residual", ["ybe", "residual", "nil.json", "r.json"], []),
    ("ybe-search", ["ybe", "search", "nil.json", "--grid=-1,0,1", "--out", "out.json"],
     ["out.json"]),
    ("oop-check", ["oop", "check", "op.json"], []),
    ("oop-lift", ["oop", "lift", "op.json", "--out-algebra", "amb.json",
                  "--out-r", "liftr.json"], ["amb.json", "liftr.json"]),
]


def sha(data):
    return hashlib.sha256(data).hexdigest()


def pin(argv, outs, capsys):
    """(exit code, sha256 of stdout, sha256 of each written file)."""
    code = main(argv)
    stdout = capsys.readouterr().out.encode()
    written = []
    for name in outs:
        with open(name, "rb") as fh:
            written.append(sha(fh.read()))
    return code, sha(stdout), tuple(written)


# recorded with every module imported at the top of adw.cli and adw.serialize
PINS = {
    "algebra-check": {
        "text": (0, "ea63b784548e71e1e18565ae5d17b5f1605af778691700741521a151b9e6e060", ()),
        "json": (0, "302c3d22d4c049f8c9aaf8e4c2ac22458684d54c887967af5f49cba7d93c39c1", ())},
    "algebra-assoc": {
        "text": (0, "cc0b8b937921715e2668c4666ad262f01ab14c0df4bc670c8e722140705683db",
                 ("66f06653ac326e8d9aedc91221be167a067bb08cda19d9facb693ac693f58b4e",)),
        "json": (0, "91397ee98c71c40b26de359d67db8f5374f3a28bbb58a28c5f3f230c28a70178",
                 ("66f06653ac326e8d9aedc91221be167a067bb08cda19d9facb693ac693f58b4e",))},
    "algebra-dual": {
        "text": (0, "cc0b8b937921715e2668c4666ad262f01ab14c0df4bc670c8e722140705683db",
                 ("1e9179a7958d07f8b9f58fca7111a756a223b918499b7d0fe8ed52c3fd6a8a5f",)),
        "json": (0, "fcfeaf412bb7a35d502147afcbe2cd00f9cbf410673657ab32a51e11e5adec63",
                 ("1e9179a7958d07f8b9f58fca7111a756a223b918499b7d0fe8ed52c3fd6a8a5f",))},
    "rep-check": {
        "text": (0, "02dd07e6dec2c2993b94600dfb8b50d6449c169be2dd7433dbbe5a08744e0b30", ()),
        "json": (0, "be60fe8c023cce412aea3910de025c69033fb26859ab11b421df9d7ac8095b6a", ())},
    "rep-dual": {
        "text": (0, "cc0b8b937921715e2668c4666ad262f01ab14c0df4bc670c8e722140705683db",
                 ("121c91ad93ddb719fbea74fe5762d3a4bf390038ac264973996739304f89e62d",)),
        "json": (0, "c34d383102ba00c9a54f6ebb53bc8124a635a1ac709e4faa5c7be8cf223669b0",
                 ("121c91ad93ddb719fbea74fe5762d3a4bf390038ac264973996739304f89e62d",))},
    "rep-semidirect": {
        "text": (0, "eb57fff2be45bc789ab25610d950582cc68ded9f2578803833066e235f43f0ff",
                 ("b5b1c1ebc2fd8c707e9d7a836c23a5f7f0a8af8f553ba60b943905b669c0e7a1",)),
        "json": (0, "bf8b3034007d984e2626c0f96c69e5dba9ad5917f643605666bbb5eb58eb346c",
                 ("b5b1c1ebc2fd8c707e9d7a836c23a5f7f0a8af8f553ba60b943905b669c0e7a1",))},
    "unified-check": {
        "text": (0, "8b193a063e94b03bb2653c6c7ffc7b9f6dc58d4203f5ee73df516a59fd5420d5", ()),
        "json": (0, "eb8a16cc74352b97fe164562739ca932e67978a806ef454af616257f5bb816ee", ())},
    "unified-build": {
        "text": (0, "cc0b8b937921715e2668c4666ad262f01ab14c0df4bc670c8e722140705683db",
                 ("b5b1c1ebc2fd8c707e9d7a836c23a5f7f0a8af8f553ba60b943905b669c0e7a1",)),
        "json": (0, "77e9a743a03a52ebcb3a2f590592e2b833430c5b6fa9e2eca64fc20d6ad37452",
                 ("b5b1c1ebc2fd8c707e9d7a836c23a5f7f0a8af8f553ba60b943905b669c0e7a1",))},
    "unified-extract": {
        "text": (0, "88d5e5ea2f97e7d3e81c1244e50ac88630ad61ee88260cddc4c3a893d7d2270d",
                 ("5540afae5fd1ae600668b7fa4541834b87399e03efd0a81975702ca15ad28e21",)),
        "json": (0, "8e7ac5fc3871f52794daea591ad6a45f897cf5885c8d44edae49ed14b551e722",
                 ("5540afae5fd1ae600668b7fa4541834b87399e03efd0a81975702ca15ad28e21",))},
    "unified-equiv": {
        "text": (0, "abfc01b2880c530e057339a175b65da9a50c70af688d29c36ba3e675f875dd56", ()),
        "json": (0, "0a0f292b5a599018647509eafdeb4942f6ce6a937ea8f73ec68f1ee7b431b09d", ())},
    "crossed-check": {
        "text": (0, "d3075a7093dbdcc8ea4b5ba21eef8f056190f9db11c00b4faf2284e4a9b8aad3", ()),
        "json": (0, "12159177e5d1dbc04eecaa356358672ebb1a147095071edb42047df1397f31a4", ())},
    "crossed-build": {
        "text": (0, "cc0b8b937921715e2668c4666ad262f01ab14c0df4bc670c8e722140705683db",
                 ("1da894d357004543eae18f019fbe9730704c0dbe17caf0a404ea23cfcdab7ba5",)),
        "json": (0, "8ede82bf73f483b494d7ad03b1e15a485a1e9c889b9441a0c4db6b77e59dc138",
                 ("1da894d357004543eae18f019fbe9730704c0dbe17caf0a404ea23cfcdab7ba5",))},
    "crossed-from-section": {
        "text": (0, "6bd1e23b96ef80f223385d9c0977543119c93381008f5a13115450d2711ecfcf",
                 ("77634645be026fa6e48f8a9ed7dc3c9b614bf3f757e01729e4767d0237b896ad",)),
        "json": (0, "36f45cea2fb0fe89ab484de06cfd3e573952865a7c48c00d411af7304a4a18c0",
                 ("77634645be026fa6e48f8a9ed7dc3c9b614bf3f757e01729e4767d0237b896ad",))},
    "crossed-cohomologous": {
        "text": (0, "153c4ba052f925c6509fe2773a76299925ec0119d8348083ff58191e4959161c", ()),
        "json": (0, "a63ed88d2b21c2e25195cc0f4eb022b9bf2a2d1284d27a9bcf60f1a2cb42e2a2", ())},
    "gh2-check": {
        "text": (0, "eb96b8c7b660fad2742147bdcd1dddb8ada761d67619fb1daaa2fad839e283b5", ()),
        "json": (0, "4bed0067b4c40f7eaf9f431143ce6f8392e101d684d5ccfd2055e40916e2d99e", ())},
    "gh2-cohomologous": {
        "text": (1, "6644116b904b97a25413dcfd5458a875c28d6809393e7384cd9b95d42b0ba140", ()),
        "json": (1, "a20cba57c8a0d9297672e168c9cc8336d19d4135562aa60b73b2ee64578c48a4", ())},
    "inducible-check": {
        "text": (1, "71997c8c3049d48d592ed9c811df870ba762ee46e21dd0e12122c0d3773cf123", ()),
        "json": (1, "36b0e02d7161b51741f00baef43d55d0da3c5129f8965662f1191f978e22ce35", ())},
    "wells-eval": {
        "text": (0, "608d8a7557526fbd2b64f4543d71616e9dab87f4747ee4afc777c6745d0a6083",
                 ("ac59985444c750709b66edc33f1f30790e119cf7ac07efe34dc76e85b401430f",)),
        "json": (0, "266ee1a525efb176ee4a1a090159a332143f341f079a9c44c9152ca116e4506a",
                 ("ac59985444c750709b66edc33f1f30790e119cf7ac07efe34dc76e85b401430f",))},
    "z1-basis": {
        "text": (0, "b8d5ea991be4360b792e3c724d8a59c937c34182f75e4775ecd02714b2b8ba4a", ()),
        "json": (0, "bc2c1096647ecae5fab097ac9e3d4364b298d3df2e0dca8765cbd87a3a4634cb", ())},
    "matched-check": {
        "text": (0, "8424f11c2ea4743684cbcf37756ab8df2a3f850853a99b7666c430251bc6bd2b", ()),
        "json": (0, "52d968e1250c8ec0e714acb17f7c5a0c263e8e576023c0724312e2b5464ffdc8", ())},
    "matched-build": {
        "text": (0, "cc0b8b937921715e2668c4666ad262f01ab14c0df4bc670c8e722140705683db",
                 ("235738b303161f546ef09b9ef3611bd8b4d7bd60fa7597d97b3794e7cf681a0b",)),
        "json": (0, "ee107f22d658ac16d3dc985bf246ecd718233a581c86287c9247fa7a76a431d2",
                 ("235738b303161f546ef09b9ef3611bd8b4d7bd60fa7597d97b3794e7cf681a0b",))},
    "matched-factorize": {
        "text": (0, "ea9af427c157a7be6baa4426531ee8dafeda5e1747609f2a8660e9c637d7386e",
                 ("e9dee336f190de4a193ef4722632868d32492354cdd7d55a0041c906d6901546",)),
        "json": (0, "f324b0670d2279a60f0aa95ecbe0343f8ae8e0722788025e92fa5ca9412062cb",
                 ("e9dee336f190de4a193ef4722632868d32492354cdd7d55a0041c906d6901546",))},
    "connes-check": {
        "text": (1, "106766a5202b1326b6edc5ff010c3ea64f44b0cec94ea93b5707a077389b9ca4", ()),
        "json": (1, "9880467d464bf3df2617af80a13ea8990782c0b65d5330fdef706011fd3f3d25", ())},
    "connes-derive": {
        "text": (0, "cc0b8b937921715e2668c4666ad262f01ab14c0df4bc670c8e722140705683db",
                 ("fee574c93c93419db8dd2838739ebd183372b603fdcf01eacf6072d803704b9b",)),
        "json": (0, "7684fe334679e55d0eb4dcf7037e5dcaa50103bff716ab56cf841247d8f64c53",
                 ("fee574c93c93419db8dd2838739ebd183372b603fdcf01eacf6072d803704b9b",))},
    "connes-double": {
        "text": (0, "d08ce25d3166f8f2dbf9f465da238a0825e7a0dd4134ac893b9cfa6857f1f2a0",
                 ("9e52885da5414a4fbb6abba8edf1442a91603aff186d6b38800c9c4cf5df2ed0",)),
        "json": (0, "e28e698c2bda90d34dc8901c71fbb4c19b253bf857af3fa39262366f0ab0703f",
                 ("9e52885da5414a4fbb6abba8edf1442a91603aff186d6b38800c9c4cf5df2ed0",))},
    "bialgebra-check": {
        "text": (0, "d42ba1606d4baa5ef835952cf801a7e992788fcde77b64b25e924891ee7c0170", ()),
        "json": (0, "37386907da01195fd26faa27e0f0482fc6726583300dca3382e920d1116fea7a", ())},
    "bialgebra-coboundary": {
        "text": (0, "facf4d828309a4f044d82cfa615e2dd283aecfc3dfa56552d620dc188fbf2b6b",
                 ("7acf45974b2d6f9a08ae5d3a28e21ddbde5a617adb838b32409096415b30a31a",)),
        "json": (0, "3ec6a709937f6115fb79ef2d2cfc51fe0ff4ec48578f97f0deb3abf01231e04e",
                 ("7acf45974b2d6f9a08ae5d3a28e21ddbde5a617adb838b32409096415b30a31a",))},
    "ybe-residual": {
        "text": (0, "4efe8dfd657c3a837c20995873e2beab79e1ca9c1a0741b86c29aa2c842b3887", ()),
        "json": (0, "500c0d4ade7fd026d939dbd064ae488b33bd542161b18f28ce1b3943f08684aa", ())},
    "ybe-search": {
        "text": (0, "cf0ea9c954250211ed2e0d672fd2f482c1258b1e21048a6cd5a34fc9ecb45c2f",
                 ("d94f0a39b6d717ebbfe1195ab0896dc442a5eeee005b5d4d0411d5428ac554dc",)),
        "json": (0, "7fd765cba434044f888fa998ecaa881444a906d60c530dc3cb9e70b68e59e4b6",
                 ("d94f0a39b6d717ebbfe1195ab0896dc442a5eeee005b5d4d0411d5428ac554dc",))},
    "oop-check": {
        "text": (0, "d6ab4ac397933474445375e0298d6b5199feed6e18963b672bed8c0b9282de29", ()),
        "json": (0, "2a4fb44dec0ce1c01121417a87d812fe59e113dcf5280fe5aa430bc7815a880d", ())},
    "oop-lift": {
        "text": (0, "5f213c9845b5f2d5e73570f2107164fc20898628f4e27b497c61cccb01c4e0a8",
                 ("184f1fa7dd3660159dcf647620c3df22af3d906282e20c74daf494d128ac1632",
                  "baa24cbb0ee5a78d4e32c95b7890facb007015f8ddb39b3873bf77430163f2b8")),
        "json": (0, "7b910a7a2861e454ddca04275aa4888d49b753d60d1231b4b50f4d7038a4830f",
                 ("184f1fa7dd3660159dcf647620c3df22af3d906282e20c74daf494d128ac1632",
                  "baa24cbb0ee5a78d4e32c95b7890facb007015f8ddb39b3873bf77430163f2b8"))},
}


def test_every_subcommand_has_a_case():
    from adw.cli import _build_parser
    groups = _build_parser()._subparsers._group_actions[0].choices
    names = {"%s-%s" % (g, c) for g, p in groups.items()
             for c in p._subparsers._group_actions[0].choices}
    assert names == {case for case, _, _ in CASES}


@pytest.mark.parametrize("case, argv, outs", CASES, ids=[c[0] for c in CASES])
def test_subcommand_output_bytes(case, argv, outs, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("ADW_FIELD", raising=False)
    write_inputs()
    got = {"text": pin(argv, outs, capsys), "json": pin(argv + ["--json"], outs, capsys)}
    assert got == PINS[case]


# ---------------------------------------------------------------------------
# rational inputs whose coefficients have denominators 2, 3 and 7, so that the
# values of a failing check print as fractions

def _denominator_inputs():
    """(name, payload) of the input files of the denominator cases.

    X is three copies of nil2 with e > e = c f for c = 1/2, -2/3, 3/7; the
    failing algebra adds 1/7 e1 to e1 > e1; the failing representation adds
    1/3 to the diagonal of l>(e1); r is supported on the annihilator
    (passing) or spread over X (failing).
    """
    c = (Q(1, 2), Q(-2, 3), Q(3, 7))
    ents = [(2 * b, 2 * b, 2 * b + 1, c[b]) for b in range(3)]
    alg = ADAlgebra.make(6, succ_entries=ents)
    bad = ADAlgebra.make(6, succ_entries=ents + [(0, 0, 0, Q(1, 7))])
    rr = regular_representation(alg)
    mats = rr.lsucc.mats
    shifted = tuple(tuple(x + Q(1, 3) if r == col else x for col, x in enumerate(row))
                    for r, row in enumerate(mats[0]))
    bad_rep = ADRep(alg, 6, ActionFamily(6, 6, (shifted,) + mats[1:]),
                    rr.rsucc, rr.lprec, rr.rprec)

    def tensor(cells):
        t = [[ZERO] * 6 for _ in range(6)]
        for (i, j), x in cells.items():
            t[i][j] = x
        return tuple(map(tuple, t))

    r_ann = tensor({(1, 3): Q(1, 2), (3, 1): Q(-1, 2), (5, 5): Q(2, 7), (1, 5): Q(1, 3)})
    r_bad = tensor({(0, 0): Q(1, 2), (0, 2): Q(1, 3), (2, 4): Q(2, 7), (4, 0): Q(-1, 7),
                    (1, 2): Q(5, 3)})
    return {
        "x.json": io.algebra_to_dict(alg),
        "xbad.json": io.algebra_to_dict(bad),
        "xrep.json": io.rep_to_dict(rr),
        "xrepbad.json": io.rep_to_dict(bad_rep),
        "xdatum.json": io.datum_to_dict(ExtendingDatum.from_representation(rr)),
        "xdatumbad.json": io.datum_to_dict(ExtendingDatum.from_representation(bad_rep)),
        "rann.json": io.rmatrix_to_dict(r_ann, alg.field),
        "rbad.json": io.rmatrix_to_dict(r_bad, alg.field),
    }


DENOMINATOR_CASES = [
    ("algebra-check-pass", ["algebra", "check", "x.json"], []),
    ("algebra-check-fail", ["algebra", "check", "xbad.json", "--exhaustive"], []),
    ("rep-check-pass", ["rep", "check", "xrep.json"], []),
    ("rep-check-fail", ["rep", "check", "xrepbad.json", "--exhaustive"], []),
    ("unified-check-pass", ["unified", "check", "xdatum.json"], []),
    ("unified-check-fail", ["unified", "check", "xdatumbad.json", "--exhaustive"], []),
    ("ybe-residual-pass", ["ybe", "residual", "x.json", "rann.json"], []),
    ("ybe-residual-fail", ["ybe", "residual", "x.json", "rbad.json"], []),
    ("bialgebra-coboundary-pass", ["bialgebra", "coboundary", "x.json", "rann.json",
                                   "rann.json", "--out", "out.json"], ["out.json"]),
    ("bialgebra-coboundary-fail", ["bialgebra", "coboundary", "x.json", "rbad.json",
                                   "rbad.json", "--exhaustive", "--out", "out.json"],
     ["out.json"]),
]

# recorded before the checks over Q computed on scaled ints
DENOMINATOR_PINS = {
    "algebra-check-pass": {
        "text": (0, "ab36840b5e8ed30df9e60152d65845a5601a2859f19cdb2df4fdd092ae2188ba", ()),
        "json": (0, "b2226f843853f460b051d1efa8d3a0aa88afd1dfda8ffcd01e1f2f0e40d9b853", ())},
    "algebra-check-fail": {
        "text": (1, "76cce232398a1cbe1690dab586706848c357852820c328f3d5eb7a620491f394", ()),
        "json": (1, "91adcc073aa85b6c2f5710db4d2aa2e2cab33f780ce61017ebc263d877ae3026", ())},
    "rep-check-pass": {
        "text": (0, "ce1958dc64d7eaff372fdb0fd54c78c217adc62f19d79e661babd6ff4334da91", ()),
        "json": (0, "98719666073502ed29c1ffc5e0017e62227bbe6ca376202157e72ee168541c52", ())},
    "rep-check-fail": {
        "text": (1, "4432c70a7cd767952d95ecfb383963cbf0c3e712599916180ce739fafdfa7ac9", ()),
        "json": (1, "9bdc2e02e31c91a1e87774f039724d0510d838c8765bdb4d53ac38ab24bf28bf", ())},
    "unified-check-pass": {
        "text": (0, "2f29918e5ea28020bfce319adb8bfbb98ef5444dddee2127dff916ce0e679e4c", ()),
        "json": (0, "835c6e2a776dc5a813fe4230b7e400cbc301a38527a97709b424cccfd23a3486", ())},
    "unified-check-fail": {
        "text": (1, "223c2f5b38926dc508cc2a90aa7cfcaccf325018d5fd5298f730bf01e9036c81", ()),
        "json": (1, "44ffdbd95a8aeba393f6aac9ab15a604173aa032421e8db6c03edbbe014e9a12", ())},
    "ybe-residual-pass": {
        "text": (0, "17ddf096eb88b64f09669829a57ebaa44d1487aef4e2217679a075563e5e6f8b", ()),
        "json": (0, "a1640ff20a19a1ff12fecdc34424ac6b754aafeb8075f2b2964b5f70a0863afc", ())},
    "ybe-residual-fail": {
        "text": (1, "e992e557112129eb29e063a67f4615fcae994d2e31a5c91758ffa63386dcb404", ()),
        "json": (1, "9e8dee96d936d5b60309fb4a5fcd41e96cc183890f753be515515e26be2558a3", ())},
    "bialgebra-coboundary-pass": {
        "text": (0, "7523c82c4f556aa1e3d95778e614bd7483a067fd6e054a5b5b076a90a9bbd42d",
                 ("7891c71626fed1f299f5888e0e5b527474a8eb727117154611e1a2ea01133c2e",)),
        "json": (0, "e7eeb937acf85b4e12f81d32612f5c3c0a37b5938bc5785093b7a6b7076bb2fe",
                 ("7891c71626fed1f299f5888e0e5b527474a8eb727117154611e1a2ea01133c2e",))},
    "bialgebra-coboundary-fail": {
        "text": (1, "4e6d29428bac83b70f1e9d164f258b3f64e1b6d589d2f6db01a23ddd855c9c7d",
                 ("f69ce90e2c58a7cf0659c05fc3313c152b10c7ee5c2ba45fde240c4c02185319",)),
        "json": (1, "477e324ea8ba7439451e709c702648cf3b681eeb70034358ad80beb82a3fdc65",
                 ("f69ce90e2c58a7cf0659c05fc3313c152b10c7ee5c2ba45fde240c4c02185319",))},
}


@pytest.mark.parametrize("case, argv, outs", DENOMINATOR_CASES,
                         ids=[c[0] for c in DENOMINATOR_CASES])
def test_denominator_output_bytes(case, argv, outs, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("ADW_FIELD", raising=False)
    for name, payload in _denominator_inputs().items():
        io.write_json(name, payload)
    got = {"text": pin(argv, outs, capsys), "json": pin(argv + ["--json"], outs, capsys)}
    assert got == DENOMINATOR_PINS[case]
