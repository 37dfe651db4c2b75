"""Families of linear actions: a linear map l from an algebra into End(V).

A family is stored as the bilinear map A x V -> V it is, a ``BilinearOp``
with table[x][c] = l(e_x)e_c, so ``act`` is its ``apply``.  It is built from,
lists its entries as and writes its files as matrices, one module-dimension
square matrix per algebra basis element, indexed (x, row, col): ``mats``.
"""

from __future__ import annotations

from .algebra import BilinearOp
from .fields import InputError
from .linalg import shape
from .tensors import t3_entries, t3_from_entries, t3_reorder


class ActionFamily(BilinearOp):
    def __init__(self, alg_dim, mod_dim, mats):
        if len(mats) != alg_dim:
            raise InputError("action family: %d matrices for algebra dimension %d"
                             % (len(mats), alg_dim))
        for m in mats:
            if shape(m) != (mod_dim, mod_dim):
                raise InputError("action family: matrix shape %r, expected %dx%d"
                                 % (shape(m), mod_dim, mod_dim))
        super().__init__(alg_dim, t3_reorder(mats, (0, 2, 1)), mod_dim, mod_dim)

    @property
    def alg_dim(self):
        return self.dim

    @property
    def mod_dim(self):
        return self.out_dim

    @property
    def mats(self):
        """The matrices: the table with each t[x] transposed."""
        return t3_reorder(self.table, (0, 2, 1))

    act = BilinearOp.apply

    @staticmethod
    def zero(alg_dim, mod_dim):
        return ActionFamily.from_entries(alg_dim, mod_dim, ())

    @staticmethod
    def from_entries(alg_dim, mod_dim, entries):
        """entries: iterable of (x, row, col, value)."""
        return ActionFamily(alg_dim, mod_dim, t3_from_entries((alg_dim, mod_dim, mod_dim),
                                                              entries, "action entry"))

    def entries(self):
        return t3_entries(self.mats)
