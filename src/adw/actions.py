"""Families of linear actions: a linear map from an algebra into End(V).

Stored as one module-dimension square matrix per algebra basis element;
``family.act(x, w)`` applies the action of a coordinate vector x to w.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fields import InputError
from .linalg import mat_add, mat_scale, matvec, shape, transpose, vzero, zeros_mat
from .tensors import t3_entries, t3_from_entries, t3_is_zero


@dataclass(frozen=True)
class ActionFamily:
    alg_dim: int
    mod_dim: int
    mats: tuple  # one mod_dim x mod_dim matrix per algebra basis element

    def __post_init__(self):
        if len(self.mats) != self.alg_dim:
            raise InputError("action family: %d matrices for algebra dimension %d"
                             % (len(self.mats), self.alg_dim))
        for m in self.mats:
            if shape(m) != (self.mod_dim, self.mod_dim):
                raise InputError("action family: matrix shape %r, expected %dx%d"
                                 % (shape(m), self.mod_dim, self.mod_dim))

    @staticmethod
    def zero(alg_dim, mod_dim):
        return ActionFamily(alg_dim, mod_dim, tuple(zeros_mat(mod_dim, mod_dim)
                                                    for _ in range(alg_dim)))

    @staticmethod
    def from_entries(alg_dim, mod_dim, entries):
        """entries: iterable of (x, row, col, value)."""
        return ActionFamily(alg_dim, mod_dim, t3_from_entries((alg_dim, mod_dim, mod_dim),
                                                              entries, "action entry"))

    def act(self, x, w):
        """Apply the action of algebra vector x to module vector w."""
        out = vzero(self.mod_dim)
        for i, xi in enumerate(x):
            if not xi:
                continue
            mw = matvec(self.mats[i], w)
            out = tuple(o + xi * y for o, y in zip(out, mw))
        return out

    def add(self, other):
        self._same_shape(other)
        return ActionFamily(self.alg_dim, self.mod_dim,
                            tuple(mat_add(a, b) for a, b in zip(self.mats, other.mats)))

    def neg(self):
        return ActionFamily(self.alg_dim, self.mod_dim,
                            tuple(mat_scale(-1, m) for m in self.mats))

    def transpose(self):
        return ActionFamily(self.alg_dim, self.mod_dim,
                            tuple(transpose(m) for m in self.mats))

    def is_zero(self):
        return t3_is_zero(self.mats)

    def entries(self):
        return t3_entries(self.mats)

    def _same_shape(self, other):
        if (self.alg_dim, self.mod_dim) != (other.alg_dim, other.mod_dim):
            raise InputError("action family shape mismatch")
