"""Strategies for conditionals that are undefined on zero-probability cells.

Every reconstruction-based measure needs p(target | ...) at every
conditioning cell, including cells the data never visits.  The three
fill rules, ordered from least to most informative prior:

* ``a`` - uniform, 1 / d_target;
* ``b`` - the unconditional marginal of the target (package default);
* ``c`` - the marginal of the target conditional on the stratum variable Z.

Rule ``c`` is the strict one: it never manufactures direct correlation
out of missing cells.  Where Z itself has zero mass, rule ``c`` falls
back to the unconditional marginal; such strata always end up multiplied
by p(z) = 0 in every reconstruction, so the fallback never reaches any
measure value.

This module only names the rules; they are applied in one place, the
measure engine's filled conditionals ``BatchContext.ycond`` (p(y | x,z))
and ``BatchContext.xcond`` (p(x | y,z)).
"""

from __future__ import annotations

from enum import Enum


class SparseStrategy(Enum):
    UNIFORM = "a"
    MARGINAL = "b"
    CONDITIONAL_MARGINAL = "c"

    @classmethod
    def parse(cls, value: "SparseStrategy | str") -> "SparseStrategy":
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).lower())
        except ValueError:
            raise ValueError(f"unknown sparse strategy {value!r}; expected one of a, b, c") from None


DEFAULT_STRATEGY = SparseStrategy.MARGINAL
