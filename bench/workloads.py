"""Seeded request generators for the congru benchmark.

Every request is an input file the CLI reads (JSON with rows, cols and
entries) plus the answer the generator built into it.  Nothing here
calls congru: the inputs are made with plain integer and numpy
arithmetic, so two commits of the program receive byte-identical
inputs for the same seed.

Exact recipe: A = S* (B (+) J_k1 (+) ...) S with B and S nonsingular,
integer entries in [-3, 3] (both components over Q(i)).  Float recipe:
A = Q (B (+) J_k1 (+) ...) Q^H with Q unitary and the singular values
of B geometric in [c, 1].

A workload is a fixed mix of request shapes (n, |B|, Jordan
sizes and, on the float path, the spread c of sigma(B)), drawn once by
the recipe from a constant design seed; the run seed draws the
matrices themselves.  Request cost grows like n^3 and with the stage
count, so shapes redrawn per seed moved the median request time by
7-10% from seed to seed, more than the bounds allow.  The sizes follow
a golden-ratio sequence, so every prefix of the mix covers the size
range evenly.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import sys
from dataclasses import dataclass

import numpy as np

ENTRY_BOUND = 3
PRIME = 2**31 - 1
# a prime = 1 mod 4, so -1 has a square root and Z[i] maps onto GF(q)
_GAUSS_Q = 2147483629
_GOLDEN = (math.sqrt(5) - 1) / 2


@dataclass(frozen=True)
class Workload:
    name: str
    command: str          # CLI subcommand
    field: str            # --field value
    involution: str       # --involution value
    sizes: tuple[int, int]
    max_jordan: int
    pool: int             # distinct requests per run; a run cycles them


# why each workload exists: bench/README.md and BENCHMARK.json
WORKLOADS = {w.name: w for w in (
    Workload("exact-gaussian", "decompose", "gaussian-rational",
             "conjugate", (6, 14), 6, 50),
    Workload("exact-rational", "decompose", "rational", "identity",
             (12, 26), 6, 50),
    Workload("exact-prime", "decompose", "prime-field", "identity",
             (16, 36), 6, 50),
    Workload("float-complex", "float-regularize", "complex", "conjugate",
             (60, 300), 5, 25),
)}


@dataclass(frozen=True)
class Shape:
    n: int
    regular: int                  # |B|
    jordan: tuple[int, ...]       # sorted Jordan block sizes
    spread: float = 1.0           # c: sigma(B) geometric in [c, 1]

    @property
    def m(self) -> list[int]:
        """Stage parameters: m_k = number of Jordan blocks of size >= k,
        for k = 1 .. 2*tau with tau = ceil(largest size / 2)."""
        tau = (max(self.jordan, default=0) + 1) // 2
        return [sum(1 for s in self.jordan if s >= k)
                for k in range(1, 2 * tau + 1)]


@dataclass(frozen=True)
class Request:
    index: int
    shape: Shape
    text: str                     # the JSON input file, as written


def design(workload: Workload) -> list[Shape]:
    """The workload's request shapes, the same for every seed."""
    rng = random.Random(f"congru-bench-design:{workload.name}")
    lo, hi = workload.sizes
    offset = rng.random()
    shapes = []
    for i in range(workload.pool):
        n = lo + int((offset + i * _GOLDEN) % 1.0 * (hi - lo + 1))
        regular = rng.randint(0, n // 3)
        left = n - regular
        sizes = []
        while left:
            k = min(rng.randint(1, workload.max_jordan), left)
            sizes.append(k)
            left -= k
        spread = 10.0 ** rng.uniform(-4.0, 0.0)
        shapes.append(Shape(n, regular, tuple(sorted(sizes)), spread))
    return shapes


def _rng(workload: Workload, seed: int, index: int) -> random.Random:
    return random.Random(f"congru-bench:{workload.name}:{seed}:{index}")


# -- exact inputs ----------------------------------------------------------------


def _rank_mod(rows: list[list[int]], q: int) -> int:
    a = [[x % q for x in row] for row in rows]
    m = len(a)
    r = 0
    for c in range(len(a[0]) if m else 0):
        p = next((k for k in range(r, m) if a[k][c]), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        inv = pow(a[r][c], -1, q)
        prow = a[r]
        for k in range(r + 1, m):
            f = a[k][c] * inv % q
            if f:
                a[k] = [(x - f * y) % q for x, y in zip(a[k], prow)]
        r += 1
    return r


def _sqrt_minus_one(q: int) -> int:
    g = 2
    while pow(g, (q - 1) // 2, q) != q - 1:
        g += 1
    return pow(g, (q - 1) // 4, q)


_GAUSS_I = _sqrt_minus_one(_GAUSS_Q)


def _nonsingular(rng: random.Random, n: int, gaussian: bool,
                 ) -> tuple[np.ndarray, np.ndarray]:
    """(re, im) integer parts of a matrix that is nonsingular modulo a
    prime, hence over Q, Q(i) and GF(2^31-1) alike."""
    b = ENTRY_BOUND
    while True:
        re = [[rng.randint(-b, b) for _ in range(n)] for _ in range(n)]
        im = ([[rng.randint(-b, b) for _ in range(n)] for _ in range(n)]
              if gaussian else [[0] * n for _ in range(n)])
        if gaussian:
            # nonzero determinant under Z[i] -> GF(q) with i -> sqrt(-1)
            img = [[x + _GAUSS_I * y for x, y in zip(r, s)]
                   for r, s in zip(re, im)]
            ok = _rank_mod(img, _GAUSS_Q) == n
        else:
            ok = _rank_mod(re, PRIME) == n
        if ok:
            return (np.array(re, dtype=np.int64).reshape(n, n),
                    np.array(im, dtype=np.int64).reshape(n, n))


def _canonical(n: int, breg, jordan) -> tuple[np.ndarray, np.ndarray]:
    re = np.zeros((n, n), dtype=np.int64)
    im = np.zeros((n, n), dtype=np.int64)
    nb = breg[0].shape[0]
    re[:nb, :nb], im[:nb, :nb] = breg
    at = nb
    for k in jordan:
        for t in range(k - 1):
            re[at + t, at + t + 1] = 1
        at += k
    return re, im


def _gauss_mul(a, b):
    (ar, ai), (br, bi) = a, b
    return ar @ br - ai @ bi, ar @ bi + ai @ br


def _render_gaussian(re: int, im: int) -> str:
    if im == 0:
        return str(re)
    return f"{re}{'+' if im > 0 else '-'}{abs(im)}*i"


def _render_exact(workload: Workload, re: np.ndarray, im: np.ndarray,
                  ) -> str:
    n = re.shape[0]
    if workload.field == "gaussian-rational":
        entries = [_render_gaussian(int(x), int(y))
                   for x, y in zip(re.ravel(), im.ravel())]
    elif workload.field == "prime-field":
        entries = [str(int(x) % PRIME) for x in re.ravel()]
    else:
        entries = [str(int(x)) for x in re.ravel()]
    return _json(n, entries)


def _json(n: int, entries: list[str]) -> str:
    body = ", ".join(f'"{e}"' for e in entries)
    return f'{{"rows": {n}, "cols": {n}, "entries": [{body}]}}\n'


def _exact_text(workload: Workload, shape: Shape, rng: random.Random,
                ) -> str:
    n = shape.n
    gaussian = workload.field == "gaussian-rational"
    breg = _nonsingular(rng, shape.regular, gaussian)
    s = _nonsingular(rng, n, gaussian)
    c = _canonical(n, breg, shape.jordan)
    s_star = (s[0].T, -s[1].T) if workload.involution == "conjugate" \
        else (s[0].T, s[1].T)
    return _render_exact(workload, *_gauss_mul(_gauss_mul(s_star, c), s))


# -- float inputs ----------------------------------------------------------------


def _unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _float_text(shape: Shape, rng: random.Random) -> str:
    n, regular = shape.n, shape.regular
    nrng = np.random.default_rng(rng.getrandbits(64))
    canon = np.zeros((n, n), dtype=np.complex128)
    if regular:
        sigma = shape.spread ** (np.arange(regular) / max(regular - 1, 1))
        canon[:regular, :regular] = (
            _unitary(nrng, regular) * sigma) @ _unitary(nrng, regular)
    at = regular
    for k in shape.jordan:
        for t in range(k - 1):
            canon[at + t, at + t + 1] = 1.0
        at += k
    q = _unitary(nrng, n)
    a = q @ canon @ q.conj().T
    # 17 significant digits round-trip a double exactly
    return _json(n, ["%.17g%+.17g*i" % (x.real, x.imag)
                     for x in a.ravel().tolist()])


def requests(workload: Workload, seed: int):
    """Yield the run's distinct requests: the design's shapes with
    matrices drawn from the seed."""
    for i, shape in enumerate(design(workload)):
        rng = _rng(workload, seed, i)
        if workload.command == "float-regularize":
            text = _float_text(shape, rng)
        else:
            text = _exact_text(workload, shape, rng)
        yield Request(i, shape, text)


def fingerprint(reqs) -> str:
    """SHA-256 over the input texts, in request order."""
    h = hashlib.sha256()
    for r in reqs:
        h.update(r.text.encode())
        h.update(b"\0")
    return h.hexdigest()


def write_inputs(workload: Workload, seed: int, directory: str) -> dict:
    """Write one JSON input file per request and return the manifest:
    the fingerprint of the input set and, per request, its file and
    the answer built into it."""
    h = hashlib.sha256()
    entries = []
    for r in requests(workload, seed):
        path = os.path.join(directory, f"req-{r.index:03d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(r.text)
        h.update(r.text.encode())
        h.update(b"\0")
        entries.append({"index": r.index, "path": path, "n": r.shape.n,
                        "regular": r.shape.regular,
                        "jordan": list(r.shape.jordan), "m": r.shape.m})
    return {"workload": workload.name, "seed": seed,
            "fingerprint": h.hexdigest(), "requests": entries}


if __name__ == "__main__":
    # run as a separate process so the generator's memory never counts
    # toward the benchmark worker's peak RSS
    name, seed_arg, out_dir = sys.argv[1:4]
    manifest = write_inputs(WORKLOADS[name], int(seed_arg), out_dir)
    with open(os.path.join(out_dir, "manifest.json"), "w",
              encoding="utf-8") as fh:
        json.dump(manifest, fh)
