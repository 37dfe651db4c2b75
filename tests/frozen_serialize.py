"""The datum readers and writers as hand-written pairs, kept as an oracle.

``rep``, ``datum``, ``crossed`` and ``matched`` ``_to_dict``/``_from_dict``
as they stood before ``adw.serialize`` read and wrote the four datum kinds
from their classes' ``PARTS`` tables.  The generic helpers (keys, integers,
coefficients, entry lists, inline algebras) are the library's own; only the
per-kind bodies are frozen.  ``test_serialize_differential`` compares
against it.  Do not optimise or refactor it.
"""

from __future__ import annotations

from adw.actions import ActionFamily
from adw.algebra import BilinearOp
from adw.crossed import CrossedDatum
from adw.matched import MatchedPairDatum
from adw.reps import ADRep
from adw.serialize import (_FOLD_KEYS, _OP_KEYS, _coeff_entries, _entry_list, _inline_or_path,
                           _int, _require_keys, algebra_from_dict, algebra_to_dict)
from adw.unified import ExtendingDatum


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
