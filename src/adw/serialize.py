"""JSON input/output for every object kind.

Files are strict: unknown keys are rejected, indices are 0-based ints, and
coefficients are decimal-integer fraction strings like "3" or "-2/7".  The
writer is canonical (sorted keys, entries ordered by index, coefficients in
lowest terms), so saving and reloading reproduces values bit-identically.
"""

from __future__ import annotations

import json
import os

from .actions import ActionFamily
from .algebra import ADAlgebra, BilinearOp
from .bialgebra import BilinearForm, CoproductPair
from .crossed import AutPair, CrossedDatum, GH2Tuple
from .fields import RATIONALS, InputError
from .matched import MatchedPairDatum
from .reps import ADRep
from .tensors import t3_entries
from .unified import ExtendingDatum


def _require_keys(d, required, what, optional=()):
    if not isinstance(d, dict):
        raise InputError("%s: expected a JSON object" % what)
    keys = set(d)
    missing = set(required) - keys
    unknown = keys - set(required) - set(optional)
    if missing:
        raise InputError("%s: missing keys %s" % (what, sorted(missing)))
    if unknown:
        raise InputError("%s: unknown keys %s" % (what, sorted(unknown)))


def _int(v, what):
    if not isinstance(v, int) or isinstance(v, bool):
        raise InputError("%s: expected an integer, got %r" % (what, v))
    return v


def _coeff(v, field, what):
    """A coefficient: a string such as "-2/7" or a JSON integer.  A JSON float
    is refused: the parser has already rounded it (1e-400 reads as 0.0)."""
    if isinstance(v, str) or (isinstance(v, int) and not isinstance(v, bool)):
        return field.parse(str(v))
    hint = "; write it as a string such as \"3/10\"" if isinstance(v, float) else ""
    raise InputError("%s: coefficient %r is not a string or an integer%s" % (what, v, hint))


def _coeff_entries(items, keys, field, what):
    out = []
    if not isinstance(items, list):
        raise InputError("%s: expected a list of entries" % what)
    for e in items:
        _require_keys(e, keys, what)
        idx = tuple(_int(e[k], "%s.%s" % (what, k)) for k in keys[:-1])
        out.append(idx + (_coeff(e[keys[-1]], field, what),))
    return out


_OP_KEYS = ("i", "j", "k", "c")
_FOLD_KEYS = ("a", "b", "k", "c")


def _entry_list(entries, keys, field):
    """Entries (index..., coefficient) as JSON objects under ``keys``, in order."""
    return [dict(zip(keys, e[:-1] + (field.to_str(e[-1]),))) for e in entries]


def _basis(d, n, what):
    basis = d["basis"]
    if not isinstance(basis, list) or len(basis) != n:
        raise InputError("%s: basis must list %d labels" % (what, n))
    return tuple(str(b) for b in basis)


def _matrix_from_rows(rows, field, what, shape=None):
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise InputError("%s: expected a list of rows" % what)
    mat = tuple(tuple(_coeff(v, field, what) for v in row) for row in rows)
    if mat and any(len(r) != len(mat[0]) for r in mat):
        raise InputError("%s: ragged rows" % what)
    if shape is not None and (len(mat), len(mat[0]) if mat else 0) != shape:
        raise InputError("%s: expected shape %r" % (what, shape))
    return mat


def _matrix_to_rows(mat, field):
    return [[field.to_str(v) for v in row] for row in mat]


# ---------------------------------------------------------------------------
# generic file plumbing

def read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError("cannot read %s: %s" % (path, exc)) from exc
    except json.JSONDecodeError as exc:
        raise InputError("%s is not valid JSON: %s" % (path, exc)) from exc


def write_json(path, payload):
    text = json.dumps(payload, sort_keys=True, indent=2)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _inline_or_path(value, basedir, loader, field, what):
    if isinstance(value, str):
        path = value if os.path.isabs(value) else os.path.join(basedir or ".", value)
        return loader(read_json(path), field, os.path.dirname(path))
    if isinstance(value, dict):
        return loader(value, field, basedir)
    raise InputError("%s: expected an inline object or a file path" % what)


# ---------------------------------------------------------------------------
# algebras and plain products

def algebra_to_dict(alg: ADAlgebra, field=None):
    field = field or alg.field
    return {"dimension": alg.dim, "basis": list(alg.basis),
            "succ": _entry_list(alg.succ.entries(), _OP_KEYS, field),
            "prec": _entry_list(alg.prec.entries(), _OP_KEYS, field)}


def algebra_from_dict(d, field, basedir=None) -> ADAlgebra:
    _require_keys(d, ("dimension", "basis", "succ", "prec"), "algebra file")
    n = _int(d["dimension"], "dimension")
    basis = _basis(d, n, "algebra file")
    succ = BilinearOp.from_entries(n, _coeff_entries(d["succ"], _OP_KEYS, field, "succ"))
    prec = BilinearOp.from_entries(n, _coeff_entries(d["prec"], _OP_KEYS, field, "prec"))
    return ADAlgebra(n, basis, succ, prec, field)


def product_to_dict(op: BilinearOp, basis, field):
    return {"dimension": op.dim, "basis": list(basis),
            "product": _entry_list(op.entries(), _OP_KEYS, field)}


def product_from_dict(d, field, basedir=None):
    _require_keys(d, ("dimension", "basis", "product"), "product file")
    n = _int(d["dimension"], "dimension")
    basis = _basis(d, n, "product file")
    op = BilinearOp.from_entries(n, _coeff_entries(d["product"], _OP_KEYS, field, "product"))
    return op, basis


# ---------------------------------------------------------------------------
# action families and representations

def _family_entries(fam: ActionFamily, field):
    return _entry_list(fam.entries(), ("x", "r", "c", "v"), field)


def _family_from(items, alg_dim, mod_dim, field, what):
    return ActionFamily.from_entries(alg_dim, mod_dim,
                                     _coeff_entries(items, ("x", "r", "c", "v"),
                                                    field, what))


def rep_to_dict(rep: ADRep, field=None):
    field = field or rep.algebra.field
    return {"algebra": algebra_to_dict(rep.algebra, field), "modDim": rep.mod_dim,
            "lsucc": _family_entries(rep.lsucc, field),
            "rsucc": _family_entries(rep.rsucc, field),
            "lprec": _family_entries(rep.lprec, field),
            "rprec": _family_entries(rep.rprec, field)}


def rep_from_dict(d, field, basedir=None) -> ADRep:
    _require_keys(d, ("algebra", "modDim", "lsucc", "rsucc", "lprec", "rprec"),
                  "representation file")
    alg = _inline_or_path(d["algebra"], basedir, algebra_from_dict, field, "algebra")
    m = _int(d["modDim"], "modDim")
    fams = {k: _family_from(d[k], alg.dim, m, field, k)
            for k in ("lsucc", "rsucc", "lprec", "rprec")}
    return ADRep(alg, m, fams["lsucc"], fams["rsucc"], fams["lprec"], fams["rprec"])


# ---------------------------------------------------------------------------
# extending data

def datum_to_dict(d: ExtendingDatum, field=None):
    field = field or d.algebra.field
    return {
        "algebra": algebra_to_dict(d.algebra, field), "vDim": d.vdim,
        "lsucc": _family_entries(d.lsucc, field),
        "rsucc": _family_entries(d.rsucc, field),
        "lprec": _family_entries(d.lprec, field),
        "rprec": _family_entries(d.rprec, field),
        "rhoSucc": _family_entries(d.rho_succ, field),
        "muSucc": _family_entries(d.mu_succ, field),
        "rhoPrec": _family_entries(d.rho_prec, field),
        "muPrec": _family_entries(d.mu_prec, field),
        "varpi1": _entry_list(d.varpi1.entries(), _FOLD_KEYS, field),
        "varpi2": _entry_list(d.varpi2.entries(), _FOLD_KEYS, field),
        "succV": _entry_list(d.succ_v.entries(), _OP_KEYS, field),
        "precV": _entry_list(d.prec_v.entries(), _OP_KEYS, field),
    }


def datum_from_dict(d, field, basedir=None) -> ExtendingDatum:
    keys = ("algebra", "vDim", "lsucc", "rsucc", "lprec", "rprec", "rhoSucc",
            "muSucc", "rhoPrec", "muPrec", "varpi1", "varpi2", "succV", "precV")
    _require_keys(d, keys, "extending-datum file")
    alg = _inline_or_path(d["algebra"], basedir, algebra_from_dict, field, "algebra")
    m = _int(d["vDim"], "vDim")
    n = alg.dim
    return ExtendingDatum(
        alg, m,
        _family_from(d["lsucc"], n, m, field, "lsucc"),
        _family_from(d["rsucc"], n, m, field, "rsucc"),
        _family_from(d["lprec"], n, m, field, "lprec"),
        _family_from(d["rprec"], n, m, field, "rprec"),
        _family_from(d["rhoSucc"], m, n, field, "rhoSucc"),
        _family_from(d["muSucc"], m, n, field, "muSucc"),
        _family_from(d["rhoPrec"], m, n, field, "rhoPrec"),
        _family_from(d["muPrec"], m, n, field, "muPrec"),
        BilinearOp.from_entries(m, _coeff_entries(d["varpi1"], _FOLD_KEYS, field, "varpi1"), n),
        BilinearOp.from_entries(m, _coeff_entries(d["varpi2"], _FOLD_KEYS, field, "varpi2"), n),
        BilinearOp.from_entries(m, _coeff_entries(d["succV"], _OP_KEYS, field, "succV")),
        BilinearOp.from_entries(m, _coeff_entries(d["precV"], _OP_KEYS, field, "precV")),
    )


# ---------------------------------------------------------------------------
# crossed data

def crossed_to_dict(c: CrossedDatum, field=None):
    field = field or c.algebra.field
    return {
        "algebra": algebra_to_dict(c.algebra, field),
        "valgebra": algebra_to_dict(c.valgebra, field),
        "lsucc": _family_entries(c.lsucc, field),
        "rsucc": _family_entries(c.rsucc, field),
        "lprec": _family_entries(c.lprec, field),
        "rprec": _family_entries(c.rprec, field),
        "omega1": _entry_list(c.omega1.entries(), _OP_KEYS, field),
        "omega2": _entry_list(c.omega2.entries(), _OP_KEYS, field),
    }


def crossed_from_dict(d, field, basedir=None) -> CrossedDatum:
    keys = ("algebra", "valgebra", "lsucc", "rsucc", "lprec", "rprec",
            "omega1", "omega2")
    _require_keys(d, keys, "crossed-datum file")
    alg = _inline_or_path(d["algebra"], basedir, algebra_from_dict, field, "algebra")
    valg = _inline_or_path(d["valgebra"], basedir, algebra_from_dict, field, "valgebra")
    n, m = alg.dim, valg.dim
    return CrossedDatum(
        alg, valg,
        _family_from(d["lsucc"], n, m, field, "lsucc"),
        _family_from(d["rsucc"], n, m, field, "rsucc"),
        _family_from(d["lprec"], n, m, field, "lprec"),
        _family_from(d["rprec"], n, m, field, "rprec"),
        BilinearOp.from_entries(n, _coeff_entries(d["omega1"], _OP_KEYS, field, "omega1"), m),
        BilinearOp.from_entries(n, _coeff_entries(d["omega2"], _OP_KEYS, field, "omega2"), m),
    )


# ---------------------------------------------------------------------------
# matched pairs

_MP_KEYS = ("l1s", "r1s", "l1p", "r1p", "l2s", "r2s", "l2p", "r2p")


def matched_to_dict(d: MatchedPairDatum, field=None):
    field = field or d.alg1.field
    out = {"alg1": algebra_to_dict(d.alg1, field), "alg2": algebra_to_dict(d.alg2, field)}
    for k in _MP_KEYS:
        out[k] = _family_entries(getattr(d, k), field)
    return out


def matched_from_dict(d, field, basedir=None) -> MatchedPairDatum:
    _require_keys(d, ("alg1", "alg2") + _MP_KEYS, "matched-pair file")
    a1 = _inline_or_path(d["alg1"], basedir, algebra_from_dict, field, "alg1")
    a2 = _inline_or_path(d["alg2"], basedir, algebra_from_dict, field, "alg2")
    n, m = a1.dim, a2.dim
    fams = {}
    for k in _MP_KEYS:
        dims = (n, m) if k.startswith("l1") or k.startswith("r1") else (m, n)
        fams[k] = _family_from(d[k], dims[0], dims[1], field, k)
    return MatchedPairDatum(a1, a2, fams["l1s"], fams["r1s"], fams["l1p"], fams["r1p"],
                            fams["l2s"], fams["r2s"], fams["l2p"], fams["r2p"])


# ---------------------------------------------------------------------------
# small objects: matrices, tuples, pairs, tensors, forms, coproducts

def matrix_to_dict(mat, field):
    return {"rows": len(mat), "cols": len(mat[0]) if mat else 0,
            "entries": _matrix_to_rows(mat, field)}


def matrix_from_dict(d, field, basedir=None):
    _require_keys(d, ("rows", "cols", "entries"), "matrix file")
    mat = _matrix_from_rows(d["entries"], field, "matrix",
                            (_int(d["rows"], "rows"), _int(d["cols"], "cols")))
    return mat


def gh2_to_dict(t: GH2Tuple, field=None):
    field = field or t.field
    return {"n": t.n, "A": _matrix_to_rows(t.a, field), "B": _matrix_to_rows(t.b, field),
            "C": _matrix_to_rows(t.c, field), "D": _matrix_to_rows(t.d, field),
            "theta0": [field.to_str(v) for v in t.theta0],
            "epsilon0": [field.to_str(v) for v in t.epsilon0]}


def gh2_from_dict(d, field, basedir=None) -> GH2Tuple:
    _require_keys(d, ("n", "A", "B", "C", "D", "theta0", "epsilon0"), "six-tuple file")
    n = _int(d["n"], "n")
    mats = {k: _matrix_from_rows(d[k], field, k, (n, n)) for k in "ABCD"}
    th, ep = (tuple(_coeff(v, field, k) for v in d[k]) for k in ("theta0", "epsilon0"))
    return GH2Tuple(n, mats["A"], mats["B"], mats["C"], mats["D"], th, ep, field)


def autpair_to_dict(p: AutPair, field):
    return {"alpha": _matrix_to_rows(p.alpha, field), "beta": _matrix_to_rows(p.beta, field)}


def autpair_from_dict(d, field, basedir=None) -> AutPair:
    _require_keys(d, ("alpha", "beta"), "automorphism-pair file")
    return AutPair(_matrix_from_rows(d["alpha"], field, "alpha"),
                   _matrix_from_rows(d["beta"], field, "beta"))


def rmatrix_to_dict(r, field):
    n = len(r)
    entries = ((i, j, r[i][j]) for i in range(n) for j in range(n) if r[i][j])
    return {"dim": n, "entries": _entry_list(entries, ("i", "j", "c"), field)}


def rmatrix_from_dict(d, field, basedir=None):
    _require_keys(d, ("dim", "entries"), "r-matrix file")
    n = _int(d["dim"], "dim")
    acc = [[field.zero] * n for _ in range(n)]
    for i, j, c in _coeff_entries(d["entries"], ("i", "j", "c"), field, "entries"):
        if not (0 <= i < n and 0 <= j < n):
            raise InputError("r-matrix entry (%d,%d) out of range" % (i, j))
        acc[i][j] = acc[i][j] + c
    return tuple(tuple(row) for row in acc)


def coproducts_to_dict(cp: CoproductPair, field):
    keys = ("x", "i", "j", "c")
    return {"dim": cp.dim, "dsucc": _entry_list(t3_entries(cp.dsucc), keys, field),
            "dprec": _entry_list(t3_entries(cp.dprec), keys, field)}


def coproducts_from_dict(d, field, basedir=None) -> CoproductPair:
    _require_keys(d, ("dim", "dsucc", "dprec"), "coproduct file")
    n = _int(d["dim"], "dim")
    return CoproductPair.from_entries(
        n, _coeff_entries(d["dsucc"], ("x", "i", "j", "c"), field, "dsucc"),
        _coeff_entries(d["dprec"], ("x", "i", "j", "c"), field, "dprec"), field)


def form_to_dict(f: BilinearForm, field):
    return {"dim": f.dim, "gram": _matrix_to_rows(f.gram, field)}


def form_from_dict(d, field, basedir=None) -> BilinearForm:
    _require_keys(d, ("dim", "gram"), "bilinear-form file")
    n = _int(d["dim"], "dim")
    return BilinearForm(n, _matrix_from_rows(d["gram"], field, "gram", (n, n)))


def ooperator_to_dict(tmat, rep: ADRep, field):
    return {"representation": rep_to_dict(rep, field),
            "matrix": _matrix_to_rows(tmat, field)}


def ooperator_from_dict(d, field, basedir=None):
    _require_keys(d, ("representation", "matrix"), "operator file")
    rep = _inline_or_path(d["representation"], basedir, rep_from_dict, field,
                          "representation")
    tmat = _matrix_from_rows(d["matrix"], field, "matrix",
                             (rep.algebra.dim, rep.mod_dim))
    return tmat, rep


# convenience path loaders -------------------------------------------------

def _path_loader(fn):
    def load(path, field=RATIONALS):
        return fn(read_json(path), field, os.path.dirname(os.path.abspath(path)))
    return load


load_algebra = _path_loader(algebra_from_dict)
load_product = _path_loader(product_from_dict)
load_rep = _path_loader(rep_from_dict)
load_datum = _path_loader(datum_from_dict)
load_crossed = _path_loader(crossed_from_dict)
load_matched = _path_loader(matched_from_dict)
load_gh2 = _path_loader(gh2_from_dict)
load_autpair = _path_loader(autpair_from_dict)
load_matrix = _path_loader(matrix_from_dict)
load_rmatrix = _path_loader(rmatrix_from_dict)
load_coproducts = _path_loader(coproducts_from_dict)
load_form = _path_loader(form_from_dict)
load_ooperator = _path_loader(ooperator_from_dict)
