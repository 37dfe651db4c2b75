"""JSON input/output for every object kind.

Files are strict: unknown keys are rejected, indices are 0-based ints, and
coefficients are decimal-integer fraction strings like "3" or "-2/7".  The
writer is canonical (sorted keys, entries ordered by index, coefficients in
lowest terms), so saving and reloading reproduces values bit-identically.

A reader imports the module of its datum class when it is first called, so
loading an algebra does not load the representation, crossed, matched or
bialgebra machinery.
"""

from __future__ import annotations

import importlib
import json
import os

from .actions import ActionFamily
from .algebra import ADAlgebra, BilinearOp
from .fields import RATIONALS, InputError
from .linalg import has_shape
from .tensors import t3_entries


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


# The largest dimension a file may declare: tables are dense, n**3 cells each
# (README, "File formats", has the measurement)
MAX_DIM = 128


def _dim(v, what):
    if _int(v, what) < 0:
        raise InputError("%s: expected a non-negative integer" % what)
    if v > MAX_DIM:
        raise InputError("%s: %d is above the largest dimension, %d" % (what, v, MAX_DIM))
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
    if shape is not None and not has_shape(mat, *shape):
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
    except UnicodeDecodeError as exc:
        raise InputError("%s is not UTF-8 text: %s" % (path, exc)) from exc
    except RecursionError as exc:
        # the decoder recurses once per level of nested arrays or objects
        raise InputError("%s is nested too deeply to read" % path) from exc
    except ValueError as exc:
        # int() refuses a literal longer than sys.get_int_max_str_digits()
        raise InputError("%s holds a number too long to read: %s" % (path, exc)) from exc


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
    n = _dim(d["dimension"], "dimension")
    basis = _basis(d, n, "algebra file")
    succ = BilinearOp.from_entries(n, _coeff_entries(d["succ"], _OP_KEYS, field, "succ"))
    prec = BilinearOp.from_entries(n, _coeff_entries(d["prec"], _OP_KEYS, field, "prec"))
    return ADAlgebra(n, basis, succ, prec, field)


def product_to_dict(op: BilinearOp, basis, field):
    return {"dimension": op.dim, "basis": list(basis),
            "product": _entry_list(op.entries(), _OP_KEYS, field)}


def product_from_dict(d, field, basedir=None):
    _require_keys(d, ("dimension", "basis", "product"), "product file")
    n = _dim(d["dimension"], "dimension")
    basis = _basis(d, n, "product file")
    op = BilinearOp.from_entries(n, _coeff_entries(d["product"], _OP_KEYS, field, "product"))
    return op, basis


# ---------------------------------------------------------------------------
# representations, extending data, crossed data and matched pairs: each is
# read and written from its class's PARTS table (see ``algebra.check_parts``)

_ENTRY_KEYS = {"family": ("x", "r", "c", "v"), "product": _OP_KEYS, "fold": _FOLD_KEYS,
               "cocycle": _OP_KEYS}


def _parts_to_dict(obj, field=None):
    """The JSON object of a datum: one key per row of its ``PARTS``."""
    parts = obj.PARTS
    field = field or getattr(obj, parts[0][0]).field
    out = {}
    for attr, key, kind, _, _ in parts:
        part = getattr(obj, attr)
        out[key] = (algebra_to_dict(part, field) if kind == "algebra"
                    else part if kind == "dim"
                    else _entry_list(part.entries(), _ENTRY_KEYS[kind], field))
    return out


def _parts_reader(module, name, what):
    """The inverse of ``_parts_to_dict`` for the datum class ``name`` of the
    submodule ``module``, imported on the first call; ``what`` names the file
    kind in error messages."""
    def from_dict(d, field, basedir=None):
        cls = getattr(importlib.import_module("." + module, __package__), name)
        _require_keys(d, [row[1] for row in cls.PARTS], what)
        dims, args = {}, []
        for _, key, kind, shape, _ in cls.PARTS:
            if kind == "algebra":
                part = _inline_or_path(d[key], basedir, algebra_from_dict, field, key)
                dims[shape] = part.dim
            elif kind == "dim":
                part = dims[shape] = _dim(d[key], key)
            else:
                src, dst = dims[shape[0]], dims[shape[1]]
                entries = _coeff_entries(d[key], _ENTRY_KEYS[kind], field, key)
                part = (ActionFamily.from_entries(src, dst, entries) if kind == "family"
                        else BilinearOp.from_entries(src, entries, dst))
            args.append(part)
        return cls(*args)
    return from_dict


rep_to_dict = datum_to_dict = crossed_to_dict = matched_to_dict = _parts_to_dict
rep_from_dict = _parts_reader("reps", "ADRep", "representation file")
datum_from_dict = _parts_reader("unified", "ExtendingDatum", "extending-datum file")
crossed_from_dict = _parts_reader("crossed", "CrossedDatum", "crossed-datum file")
matched_from_dict = _parts_reader("matched", "MatchedPairDatum", "matched-pair file")


# ---------------------------------------------------------------------------
# small objects: matrices, tuples, pairs, tensors, forms, coproducts

def matrix_to_dict(mat, field):
    return {"rows": len(mat), "cols": len(mat[0]) if mat else 0,
            "entries": _matrix_to_rows(mat, field)}


def matrix_from_dict(d, field, basedir=None):
    _require_keys(d, ("rows", "cols", "entries"), "matrix file")
    mat = _matrix_from_rows(d["entries"], field, "matrix",
                            (_dim(d["rows"], "rows"), _dim(d["cols"], "cols")))
    return mat


def gh2_to_dict(t, field=None):
    field = field or t.field
    return {"n": t.n, "A": _matrix_to_rows(t.a, field), "B": _matrix_to_rows(t.b, field),
            "C": _matrix_to_rows(t.c, field), "D": _matrix_to_rows(t.d, field),
            "theta0": [field.to_str(v) for v in t.theta0],
            "epsilon0": [field.to_str(v) for v in t.epsilon0]}


def gh2_from_dict(d, field, basedir=None):
    from .crossed import GH2Tuple
    _require_keys(d, ("n", "A", "B", "C", "D", "theta0", "epsilon0"), "six-tuple file")
    n = _dim(d["n"], "n")
    mats = {k: _matrix_from_rows(d[k], field, k, (n, n)) for k in "ABCD"}
    for k in ("theta0", "epsilon0"):
        if not isinstance(d[k], list):
            raise InputError("%s: expected a list of coefficients" % k)
    th, ep = (tuple(_coeff(v, field, k) for v in d[k]) for k in ("theta0", "epsilon0"))
    return GH2Tuple(n, mats["A"], mats["B"], mats["C"], mats["D"], th, ep, field)


def autpair_to_dict(p, field):
    return {"alpha": _matrix_to_rows(p.alpha, field), "beta": _matrix_to_rows(p.beta, field)}


def autpair_from_dict(d, field, basedir=None):
    from .crossed import AutPair
    _require_keys(d, ("alpha", "beta"), "automorphism-pair file")
    return AutPair(_matrix_from_rows(d["alpha"], field, "alpha"),
                   _matrix_from_rows(d["beta"], field, "beta"))


def rmatrix_to_dict(r, field):
    n = len(r)
    entries = ((i, j, r[i][j]) for i in range(n) for j in range(n) if r[i][j])
    return {"dim": n, "entries": _entry_list(entries, ("i", "j", "c"), field)}


def rmatrix_from_dict(d, field, basedir=None):
    _require_keys(d, ("dim", "entries"), "r-matrix file")
    n = _dim(d["dim"], "dim")
    acc = [[field.zero] * n for _ in range(n)]
    for i, j, c in _coeff_entries(d["entries"], ("i", "j", "c"), field, "entries"):
        if not (0 <= i < n and 0 <= j < n):
            raise InputError("r-matrix entry (%d,%d) out of range" % (i, j))
        acc[i][j] = acc[i][j] + c
    return tuple(tuple(row) for row in acc)


def coproducts_to_dict(cp, field):
    keys = ("x", "i", "j", "c")
    return {"dim": cp.dim, "dsucc": _entry_list(t3_entries(cp.dsucc), keys, field),
            "dprec": _entry_list(t3_entries(cp.dprec), keys, field)}


def coproducts_from_dict(d, field, basedir=None):
    from .bialgebra import CoproductPair
    _require_keys(d, ("dim", "dsucc", "dprec"), "coproduct file")
    n = _dim(d["dim"], "dim")
    return CoproductPair.from_entries(
        n, _coeff_entries(d["dsucc"], ("x", "i", "j", "c"), field, "dsucc"),
        _coeff_entries(d["dprec"], ("x", "i", "j", "c"), field, "dprec"), field)


def form_to_dict(f, field):
    return {"dim": f.dim, "gram": _matrix_to_rows(f.gram, field)}


def form_from_dict(d, field, basedir=None):
    from .bialgebra import BilinearForm
    _require_keys(d, ("dim", "gram"), "bilinear-form file")
    n = _dim(d["dim"], "dim")
    return BilinearForm(n, _matrix_from_rows(d["gram"], field, "gram", (n, n)))


def ooperator_to_dict(tmat, rep, field):
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
