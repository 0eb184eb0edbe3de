"""The reference the cell search of `polyillum.oracle` is compared against:
the scan of all 2^m sign vectors it replaced, each tested against every
circuit, with one `separator` LP per cell it keeps."""

from __future__ import annotations

from itertools import product
from typing import Iterator

from polyillum.classify import bitmask, circuit_table
from polyillum.kernel import vneg
from polyillum.polytope import NormalSet
from polyillum.position import separator


def cell_sign_vectors(N: NormalSet) -> Iterator[tuple[int, ...]]:
    """The sign vectors of the full-dimensional cells, in
    `product((1, -1), repeat=m)` order, decided without an LP.

    Some x has s_i <n_i, x> > 0 for every i unless a nonnegative,
    nonzero combination of the s_i n_i vanishes; a support-minimal one is
    a circuit whose signs, or their negation, agree with s on its support.
    """
    masks = [(c.plus | c.minus, c.plus, c.minus) for c in circuit_table(N)]
    for signs in product((1, -1), repeat=len(N.normals)):
        pos = bitmask(i for i, s in enumerate(signs) if s > 0)
        if not any(pos & support in (plus, minus) for support, plus, minus in masks):
            yield signs


def cell_separators(N: NormalSet) -> list[tuple[tuple[int, ...], tuple]]:
    """(signs, `separator` of the signed normals) for every cell, in order."""
    return [(signs, separator([m if s > 0 else vneg(m) for s, m in zip(signs, N.normals)]))
            for signs in cell_sign_vectors(N)]
