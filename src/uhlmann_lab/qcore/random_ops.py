"""Seeded random Cliffords, Haar states, and Haar unitaries.

Cliffords are sampled exactly uniformly: a uniform symplectic matrix over
F_2 via the Koenig-Smolin transvection construction, uniform sign bits, and
then materialization of the unique unitary (up to global phase) with those
Pauli images. Paulis act on the materialized columns through their index
maps (``pauli_action``), never as dense matrices.
"""

from __future__ import annotations

import numpy as np

from ..errors import DimensionMismatch, check_pure_cap
from ..rng import as_seed


def _symplectic_product(v, w):
    # Interleaved (x, z) pairs: <v,w> = sum_i v_x[i] w_z[i] + v_z[i] w_x[i],
    # for v one vector or a stack of rows.
    return (v[..., 0::2] @ w[1::2] + v[..., 1::2] @ w[0::2]) % 2


def _transvection(h, v):
    """Z_h v = v + <v,h> h for v one vector or every row of a stack."""
    return (v + np.multiply.outer(_symplectic_product(v, h), h)) % 2


def _find_transvection(x, y):
    """h1, h2 with Z_h1 Z_h2 x = y for nonzero x, y (Koenig-Smolin Lemma 2)."""
    nn = x.size
    out = np.zeros((2, nn), dtype=np.int64)
    if np.array_equal(x, y):
        return out
    if _symplectic_product(x, y) == 1:
        out[0] = (x + y) % 2
        return out
    z = np.zeros(nn, dtype=np.int64)
    for i in range(nn // 2):
        ii = 2 * i
        if (x[ii] + x[ii + 1] != 0) and (y[ii] + y[ii + 1] != 0):
            z[ii] = (x[ii] + y[ii]) % 2
            z[ii + 1] = (x[ii + 1] + y[ii + 1]) % 2
            if z[ii] + z[ii + 1] == 0:
                z[ii + 1] = 1
                if x[ii] != x[ii + 1]:
                    z[ii] = 1
            out[0] = (x + z) % 2
            out[1] = (y + z) % 2
            return out
    # x nonzero on some pair where y is zero, and vice versa.
    for i in range(nn // 2):
        ii = 2 * i
        if (x[ii] + x[ii + 1] != 0) and (y[ii] + y[ii + 1] == 0):
            if x[ii] == x[ii + 1]:
                z[ii + 1] = 1
            else:
                z[ii + 1] = x[ii]
                z[ii] = x[ii + 1]
            break
    for i in range(nn // 2):
        ii = 2 * i
        if (x[ii] + x[ii + 1] == 0) and (y[ii] + y[ii + 1] != 0):
            if y[ii] == y[ii + 1]:
                z[ii + 1] = 1
            else:
                z[ii + 1] = y[ii]
                z[ii] = y[ii + 1]
            break
    out[0] = (x + z) % 2
    out[1] = (y + z) % 2
    return out


def random_symplectic(n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform 2n x 2n symplectic matrix over F_2 (interleaved x/z pairs)."""
    if n < 1:
        raise DimensionMismatch(f"need at least one qubit, got n = {n}")
    nn = 2 * n
    f1 = rng.integers(0, 2, size=nn)
    while not f1.any():
        f1 = rng.integers(0, 2, size=nn)
    e1 = np.zeros(nn, dtype=np.int64)
    e1[0] = 1
    t = _find_transvection(e1, f1)
    bits = rng.integers(0, 2, size=nn - 1)
    eprime = e1.copy()
    eprime[2:] = bits[1:]
    h0 = _transvection(t[0], eprime)
    h0 = _transvection(t[1], h0)
    if bits[0] == 1:
        f1 = f1 * 0
    if n == 1:
        g = np.eye(2, dtype=np.int64)
    else:
        g = np.zeros((nn, nn), dtype=np.int64)
        g[:2, :2] = np.eye(2, dtype=np.int64)
        g[2:, 2:] = random_symplectic(n - 1, rng)
    for h in (t[0], t[1], h0, f1):
        g = _transvection(h, g)
    return g


# (-i)^k for k mod 4: the phase of the Y factors and of the sign bit.
_MINUS_I_POWERS = np.array([1, -1j, -1, 1j], dtype=complex)


def pauli_action(v: np.ndarray, sign: int = 0) -> tuple:
    """Index map of the Hermitian Pauli P = (-1)^sign i^{x.z} ⊗ X^x Z^z for
    interleaved bits v: ``P @ m == phase[:, None] * m[perm]``.

    P has one nonzero per row: row i holds (-1)^sign (-i)^{#Y}
    (-1)^{popcount(i & zmask)} in column i ^ xmask (qubit 0 is the most
    significant bit). Every phase is exactly +-1 or +-i, so products by it
    are exact.
    """
    return _pauli_rows(_pauli_masks(v, sign), np.arange(2 ** (v.size // 2), dtype=np.int64))


def _pauli_masks(v: np.ndarray, sign: int) -> tuple:
    """(xmask, zmask, the phase (-1)^sign (-i)^{#Y}) of ``pauli_action``."""
    n = v.size // 2
    x, z = np.asarray(v[0::2], dtype=np.int64), np.asarray(v[1::2], dtype=np.int64)
    weights = 1 << np.arange(n - 1, -1, -1, dtype=np.int64)
    return (int(x @ weights), int(z @ weights),
            _MINUS_I_POWERS[(int(x @ z) + 2 * int(sign)) % 4])


def _pauli_rows(masks: tuple, rows: np.ndarray) -> tuple:
    """``perm[rows]`` and ``phase[rows]`` of the index map with ``masks``."""
    xmask, zmask, base = masks
    odd = np.bitwise_count(rows & zmask) & 1
    return rows ^ xmask, np.where(odd == 1, -base, base)


def _eliminate(rows) -> tuple:
    """Echelon form over F_2 of (bits, payload) integer rows, each pivot at its
    row's lowest set bit: ({pivot bit: (bits, payload)}, the payloads of the
    rows that reduce to zero). Reducing a row by the pivot at its lowest bit
    clears that bit and changes only higher ones, so the reduction ends."""
    pivots, zero = {}, []
    for bits, payload in rows:
        while bits and bits & -bits in pivots:
            pivot_bits, pivot_payload = pivots[bits & -bits]
            bits, payload = bits ^ pivot_bits, payload ^ pivot_payload
        if bits:
            pivots[bits & -bits] = (bits, payload)
        else:
            zero.append(payload)
    return pivots, zero


def _support_start(stabilizers) -> int:
    """The smallest basis index c with P|c> != 0, P = prod_i (1 + S_i)/2 for
    n commuting, independent Paulis S_i given by their ``_pauli_masks``.

    P averages the group the S_i generate, so <c|P|c> is 2^-n times the sum
    of <c|s|c> over its diagonal (Z-type) elements s, a character sum: it is
    nonzero iff <c|s|c> = +1 for each generator s of that subgroup. Those
    generators are the products of the S_i whose X masks (``perm[0]``)
    cancel, found by eliminating the masks. Each is s|c> = sign (-1)^{c.z}|c>;
    its sign and Z mask are read exactly at rows 0 and 2^k, n + 1 rows of
    each factor's index map (``_pauli_rows``), never a whole map. The
    constraints c.z = [sign = -1] are eliminated with each pivot at its
    row's lowest bit, so a pivot bit depends only on higher bits, and
    setting every free bit to 0 gives the smallest c.
    """
    n = len(stabilizers)
    _, z_type = _eliminate((xmask, 1 << i) for i, (xmask, _, _) in enumerate(stabilizers))
    probes = np.array([0] + [1 << k for k in range(n)], dtype=np.int64)
    constraints = []
    for combo in z_type:
        at, phase = probes, np.ones(n + 1, dtype=complex)
        for i, masks in enumerate(stabilizers):
            if combo >> i & 1:
                at, factor = _pauli_rows(masks, at)
                phase = phase * factor
        z = sum(1 << k for k in range(n) if phase[k + 1] != phase[0])
        constraints.append((z, int(phase[0].real < 0)))
    pivots, _ = _eliminate(constraints)
    c = 0
    for pivot in sorted(pivots, reverse=True):
        bits, parity = pivots[pivot]
        if parity ^ ((bits & c).bit_count() & 1):
            c |= pivot
    return c


def random_clifford(n: int, seed, columns=None) -> np.ndarray:
    """Uniformly random n-qubit Clifford unitary (dense, up to global phase).

    With ``columns`` (basis indices), only those columns U[:, columns] are
    built, byte-identical to slicing the whole matrix. The cap is on the
    d * len(columns) entries allocated.
    """
    d = 2 ** n
    check_pure_cap(d * (d if columns is None else len(columns)), "materialized Clifford")
    rng = as_seed(seed).child("clifford").generator()
    g = random_symplectic(n, rng)
    signs = rng.integers(0, 2, size=2 * n)
    # U|0^n> is a nonzero column of the stabilizer projector P = prod_i
    # (1 + S_i)/2, S_i the images of Z_1..Z_n: the first one, column c, with
    # every entry a dyadic combination of +-1 and +-i, so exact. Projecting
    # e_c alone applies the same per-element operations as projecting the
    # whole identity, so its bytes are the d x d projector's column c.
    stabilizers = [_pauli_masks(g[2 * i + 1], signs[2 * i + 1]) for i in range(n)]
    phi = np.zeros(d, dtype=complex)
    phi[_support_start(stabilizers)] = 1
    rows = np.arange(d, dtype=np.int64)
    for masks in stabilizers:  # one index map at a time
        perm, phase = _pauli_rows(masks, rows)
        phi = 0.5 * (phi + phase * phi[perm])
    phi = phi / np.linalg.norm(phi)
    pivot = int(np.argmax(np.abs(phi)))
    phi = phi * (np.abs(phi[pivot]) / phi[pivot])
    # U|x> = prod_i (image of X_i)^{x_i} U|0^n>, the image of qubit n-1 (bit
    # k = 0 of x) applied first. Each image is built once, when its bit is
    # reached, and only if some column sets that bit.
    image = lambda k: _pauli_rows(_pauli_masks(g[2 * (n - 1 - k)], signs[2 * (n - 1 - k)]), rows)
    if columns is None:
        u = np.empty((d, d), dtype=complex)
        u[:, 0] = phi
        for k in range(n):
            perm, phase = image(k)
            u[:, 1 << k:2 << k] = phase[:, None] * u[perm, :1 << k]
        return u
    # The whole-matrix fill makes column x from column x - 2^k (k the top bit
    # of x) by one image; applying the images of x's bits from the lowest up
    # repeats those operations, so each column is the same bytes.
    cols = [phi] * len(columns)
    for k in range(n):
        hits = [j for j, x in enumerate(columns) if int(x) >> k & 1]
        if hits:
            perm, phase = image(k)
            for j in hits:
                cols[j] = phase * cols[j][perm]
    u = np.empty((d, len(columns)), dtype=complex)
    for j, col in enumerate(cols):
        u[:, j] = col
    return u


def haar_unitary(d: int, rng: np.random.Generator, columns: int = None) -> np.ndarray:
    """Haar-random unitary via QR with the standard phase fix, or its first
    ``columns`` columns: the same d x d draw, and the QR of those columns only
    (Householder QR builds each column from those before it)."""
    cols = slice(None, columns)
    z = (rng.standard_normal((d, d))[:, cols] + 1j * rng.standard_normal((d, d))[:, cols]
         ) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    ph = np.diag(r).copy()
    ph = ph / np.abs(ph)
    return q * ph


def haar_state_vector(d: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def random_density(d: int, rng: np.random.Generator, rank: int = None) -> np.ndarray:
    """Random mixed state: partial trace of a Haar state on d x rank."""
    rank = rank or d
    m = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real
