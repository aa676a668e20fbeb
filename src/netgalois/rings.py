"""Arithmetic over finite chain rings Z/p^k and canonical forms for row spans.

Everything downstream identifies a submodule of (Z/p^k)^n with the canonical
(Howell-style) echelon matrix of its row span, so equality of submodules is
byte equality of canonical forms.  Vectors and matrices are also packed into
base-m integer codes for hashing and fast set arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError


@dataclass(frozen=True)
class RingSpec:
    """The ring Z/p^k: a prime field when k = 1, otherwise a chain ring.

    Ideals form the chain (1) > (p) > ... > (p^k) = (0); `level` indexes that
    chain by the exponent of the generator.
    """

    p: int
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise InputError(f"k = {self.k} must be >= 1")
        if self.p >= 2:  # rank-2 codes reach m^4, so p^k <= 55 108; before the sqrt(p) prime test
            check_code_size(self.p, 4 * self.k, f"Z/{self.p}^{self.k}")
        if self.p < 2 or not all(self.p % d for d in range(2, math.isqrt(self.p) + 1)):
            raise InputError(f"p = {self.p} is not prime")

    @property
    def modulus(self) -> int:
        return self.p**self.k

    @property
    def kind(self) -> str:
        return "prime_field" if self.k == 1 else "chain"

    @property
    def unit_count(self) -> int:
        return self.p**self.k - self.p ** (self.k - 1)

    def is_unit(self, a: int) -> bool:
        return a % self.p != 0

    def inv(self, a: int) -> int:
        a = a % self.modulus
        if not self.is_unit(a):
            raise ZeroDivisionError(f"{a} is not a unit mod {self.modulus}")
        return pow(a, -1, self.modulus)

    def valuation(self, a: int) -> int:
        """Exponent of p dividing a; equals k for a = 0."""
        a = a % self.modulus
        if a == 0:
            return self.k
        v = 0
        while a % self.p == 0:
            a //= self.p
            v += 1
        return v

    def units(self) -> list[int]:
        return [a for a in range(1, self.modulus) if self.is_unit(a)]

    def ideal_generator(self, level: int) -> int:
        """Generator p^level of the ideal at the given chain position."""
        if not 0 <= level <= self.k:
            raise InputError(f"ideal level {level} outside 0..{self.k}")
        return self.p**level % self.modulus if level < self.k else 0

    def to_json(self) -> dict:
        return {"kind": self.kind, "p": self.p, "k": self.k}

    @staticmethod
    def from_json(obj: dict) -> "RingSpec":
        if not isinstance(obj, dict) or "p" not in obj:
            raise InputError(f"bad ring spec {obj!r}")
        p, k = json_int(obj["p"], "p"), json_int(obj.get("k", 1), "k")
        kind = obj.get("kind")
        if kind not in (None, "prime_field", "chain"):
            raise InputError(f"unknown ring kind {kind!r}")
        spec = RingSpec(p, k)
        if kind is not None and spec.kind != kind:
            raise InputError(f"ring kind {kind!r} inconsistent with p={p}, k={k}")
        return spec


def check_code_size(base: int, digits: int, what: str) -> None:
    """Refuse `what` unless base^digits < 2^63, so that its codes fit int64;
    multiplied up to the bound only, a huge exponent is refused at once."""
    size = 1
    for _ in range(digits):
        size *= base
        if size >= 2**63:
            raise InputError(f"{what} is too large: codes up to {base}^{digits} overflow int64")


def json_int(value, name: str) -> int:
    """A JSON integer field: floats, booleans, text and null are refused, not cast."""
    if type(value) is not int:
        raise InputError(f"{name} = {value!r} is not an integer")
    return value


# ---------------------------------------------------------------------------
# packing


def pack_vectors(vecs: np.ndarray, modulus: int) -> np.ndarray:
    """Base-modulus codes of row vectors; shape (..., n) -> (...,)."""
    n = vecs.shape[-1]
    weights = modulus ** np.arange(n, dtype=np.int64)
    return (vecs.astype(np.int64) @ weights).astype(np.int64)


def unpack_vectors(codes: np.ndarray, modulus: int, n: int, dtype=np.int64) -> np.ndarray:
    codes = np.asarray(codes, dtype=np.int64)
    out = np.empty(codes.shape + (n,), dtype=dtype)
    rest = codes.copy()
    for i in range(n):
        out[..., i] = rest % modulus
        rest //= modulus
    return out


def pack_matrices(mats: np.ndarray, modulus: int) -> np.ndarray:
    """Base-modulus codes of (..., n, n) matrices, row-major flattening."""
    n = mats.shape[-1]
    flat = mats.reshape(mats.shape[:-2] + (n * n,))
    return pack_vectors(flat, modulus)


def unpack_matrices(codes: np.ndarray, modulus: int, n: int, dtype=np.int64) -> np.ndarray:
    flat = unpack_vectors(codes, modulus, n * n, dtype=dtype)
    return flat.reshape(flat.shape[:-1] + (n, n))


def distinct(values) -> np.ndarray:
    """`np.unique(values)` without numpy >= 2.3's `np.ma.is_masked` probe, which imports numpy.ma."""
    values = np.sort(values, axis=None)
    keep = np.ones(values.size, dtype=bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


# ---------------------------------------------------------------------------
# canonical row-span form (Howell form specialised to chain rings)


def howell_form(mat: np.ndarray, ring: RingSpec) -> np.ndarray:
    """Canonical generating matrix of the row span of `mat` over Z/p^k.

    Output rows: pivots p^a in strictly increasing columns, entries below a
    pivot zero, entries above it reduced modulo the pivot, and the span is
    Howell-complete (every row-span element with leading zeros is spanned by
    the later rows).  Two matrices have equal row span iff their forms are
    identical arrays.
    """
    m = ring.modulus
    width = np.asarray(mat).shape[-1]
    rows = np.asarray(mat, dtype=np.int64).reshape(-1, width) % m

    work = [r.copy() for r in rows if np.any(r)]
    result: list[np.ndarray] = []
    for col in range(width):
        # invariant: every work row is zero in all columns < col
        cand = [r for r in work if r[col] != 0]
        rest = [r for r in work if r[col] == 0]
        if not cand:
            work = rest
            continue
        vals = [ring.valuation(int(r[col])) for r in cand]
        j = int(np.argmin(vals))
        v = vals[j]
        pivot_row = cand.pop(j)
        pivot_row = (pivot_row * ring.inv(int(pivot_row[col]) // ring.p**v)) % m
        for r in cand:
            # exact clearing: val(r[col]) >= v, so the pivot p^v divides it
            r -= (int(r[col]) // ring.p**v) * pivot_row
            r %= m
        work = [r for r in cand + rest if np.any(r)]
        result.append(pivot_row)
        if v > 0:
            # annihilator shadow keeps the form Howell-complete
            shadow = (pivot_row * ring.p ** (ring.k - v)) % m
            if np.any(shadow):
                work.append(shadow)

    # entries above each pivot reduced modulo the pivot value
    for idx, r in enumerate(result):
        col = int(np.nonzero(r)[0][0])
        pivot = int(r[col])
        for above in result[:idx]:
            q = int(above[col]) // pivot
            if q:
                above -= q * r
                above %= m
    out = np.zeros((width, width), dtype=np.int64)
    for i, r in enumerate(result):
        out[i] = r
    return out


def span_codes(basis: np.ndarray, ring: RingSpec) -> np.ndarray:
    """Sorted vector codes of the row span of `basis` (brute expansion)."""
    m = ring.modulus
    basis = np.asarray(basis, dtype=np.int64) % m
    rows = basis[np.any(basis, axis=1)]
    n = basis.shape[-1]
    current = np.zeros((1, n), dtype=np.int64)
    for r in rows:
        mult = (np.arange(m)[:, None] * r[None, :]) % m
        current = (current[:, None, :] + mult[None, :, :]).reshape(-1, n) % m
        codes = pack_vectors(current, m)
        _, idx = np.unique(codes, return_index=True)
        current = current[idx]
    return np.sort(pack_vectors(current, m))


# ---------------------------------------------------------------------------
# batched matrix arithmetic


def mat_mul(a: np.ndarray, b: np.ndarray, modulus: int) -> np.ndarray:
    """(..., n, n) @ (..., n, n) with entries reduced mod modulus."""
    return np.matmul(a.astype(np.int64), b.astype(np.int64)) % modulus


def det_batch(mats: np.ndarray, modulus: int) -> np.ndarray:
    """Determinants mod modulus for batches of n x n matrices, n <= 3."""
    a = mats.astype(np.int64)
    n = a.shape[-1]
    if n == 1:
        return a[..., 0, 0] % modulus
    if n == 2:
        return (a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]) % modulus
    if n == 3:
        return (
            a[..., 0, 0] * (a[..., 1, 1] * a[..., 2, 2] - a[..., 1, 2] * a[..., 2, 1])
            - a[..., 0, 1] * (a[..., 1, 0] * a[..., 2, 2] - a[..., 1, 2] * a[..., 2, 0])
            + a[..., 0, 2] * (a[..., 1, 0] * a[..., 2, 1] - a[..., 1, 1] * a[..., 2, 0])
        ) % modulus
    raise NotImplementedError(f"det_batch only implemented for n <= 3, got {n}")


def inv_batch(mats: np.ndarray, ring: RingSpec) -> np.ndarray:
    """Inverses of batches of invertible n x n matrices, n = 2 or 3: adjugate / det."""
    m = ring.modulus
    a = mats.astype(np.int64)
    n = a.shape[-1]
    if n == 2:
        adj = np.empty_like(a)
        adj[..., 0, 0] = a[..., 1, 1]
        adj[..., 1, 1] = a[..., 0, 0]
        adj[..., 0, 1] = -a[..., 0, 1]
        adj[..., 1, 0] = -a[..., 1, 0]
    elif n == 3:
        # cofactor (i, j) = a[i+1, j+1] a[i+2, j+2] - a[i+1, j+2] a[i+2, j+1],
        # indices mod 3: the cyclic order carries the sign (-1)^(i+j)
        r1, r2 = np.roll(a, -1, axis=-2), np.roll(a, -2, axis=-2)
        cof = np.roll(r1, -1, -1) * np.roll(r2, -2, -1) - np.roll(r1, -2, -1) * np.roll(r2, -1, -1)
        adj = np.swapaxes(cof, -1, -2)
    else:
        raise NotImplementedError(f"inv_batch only implemented for n = 2, 3, got {n}")
    det_inv = _unit_inverse_batch(det_batch(a, m), ring)
    return (adj * det_inv[..., None, None]) % m


def _unit_inverse_batch(vals: np.ndarray, ring: RingSpec) -> np.ndarray:
    table = np.zeros(ring.modulus, dtype=np.int64)
    for u in ring.units():
        table[u] = ring.inv(u)
    vals = vals % ring.modulus
    if np.any(table[vals] == 0):
        raise ZeroDivisionError("non-unit determinant in inverse batch")
    return table[vals]


def inv_single(mat: np.ndarray, ring: RingSpec) -> np.ndarray:
    """Inverse of one invertible matrix over Z/p^k by Gaussian elimination.

    Invertibility over the local ring guarantees a unit pivot in every column.
    """
    m = ring.modulus
    n = mat.shape[0]
    a = mat.astype(np.int64) % m
    aug = np.hstack([a, np.eye(n, dtype=np.int64)])
    for col in range(n):
        piv = next((r for r in range(col, n) if ring.is_unit(int(aug[r, col]))), None)
        if piv is None:
            raise ZeroDivisionError("matrix is not invertible")
        if piv != col:
            aug[[col, piv]] = aug[[piv, col]]
        aug[col] = (aug[col] * ring.inv(int(aug[col, col]))) % m
        for r in range(n):
            if r != col and aug[r, col]:
                aug[r] = (aug[r] - aug[r, col] * aug[col]) % m
    return aug[:, n:]
