"""Correctness checks for every benchmark op, written without library code.

Nothing here imports ``prodschur``: triple scans are plain loops, expected
values are known mathematics or recomputed from first principles, and
artifact bytes are compared against digests recorded at the seed commit
(the byte-identical CLI artifact contract).  Each checker returns a list
of error strings; an empty list means the output is correct.
"""

from __future__ import annotations

import hashlib
import math
from typing import Optional, Sequence

import numpy as np

# Known values: S(3) = S'(3) = 14, S'(4) = 41, and the largest
# non-2-Schur subset of [1, 12] under a + b = c has 10 elements.
KNOWN_VALUES = {("sum", 3): 14, ("double-sum", 3): 14, ("double-sum", 4): 41}
MAX_NON_SCHUR_12_2_SUM = 10

# sha256 of each CLI artifact payload as written at the seed commit.
ARTIFACT_SHA256 = {
    "schur-k4-double-sum":
        "a0ebc61841ebb5d40909a0657038b58e08e91355d15cc019fb4902ab61bd4050",
    "construct-log-product-k3":
        "0b12101586c7ae22fd9e2cc2c2b59a024e03f08b0ca5b6f88f5a8a32f085e2e2",
    "construct-log-product-k4":
        "d8734ffc84dbeff2b33cf1f70dcd2d6faf4ecced2377683213c5472a86212b91",
    "construct-mod5":
        "d49753e6b359bd6111fedb68904662af8f4ce57d947bc8463e5aa6a321806cd7",
    "construct-eleven":
        "690c9477792e90104277d885f8883f31db871f66f061348f7e285b3a134b80ad",
    "construct-blocker":
        "1afef57fd86856906d5c5b13f4ad3d4c910eab77fb3c2d4c22233c2037d507f6",
}

# sha256 of colouring_digest() of each artifact as colouring_from_text
# parsed it at the seed commit.
PARSED_SHA256 = {
    "schur-k4-double-sum":
        "21938327d3bd4aa7a2937b0d3fd33a6fbd392fff3fb862d755bd236c62bcf386",
    "construct-log-product-k3":
        "6e330a7e38d573bdd15295f0287492451c4d593c28ece4b92cb5b61fa5c57273",
    "construct-log-product-k4":
        "18fcdb298a2e9c354cdd774e606442011da5ce0e284a9eae766a3747af15606c",
    "construct-mod5":
        "738abaeac2f4bf74415b2089d04268b60e9fc4ef424ddb9ad9202b7fe7816fec",
    "construct-eleven":
        "c17ebeea5fda6d69a1dd88d0359b73e1fc41896c79a16af8f88a3aa57fd21c27",
    "construct-blocker":
        "472b9f0d790df5a556462145dc4bb4e812f7a79b122b326c95efb01e5f60d191",
}

# Monochromatic a + b = c triples (a <= b) of the eleven-interval
# colouring at n = 1e5; eleven_mono_count() recomputes it by interval
# arithmetic.
ELEVEN_MONO_1E5 = 454540909
# tau(8648640) = 448 is the largest divisor count up to 1e7.
MAX_DIVISORS_1E7 = (448, 8648640)
# |{x <= 1e7 : x has a divisor in (1e3, 1e4)}|, recorded at the seed
# commit and recomputed by table_count() in the benchmark's tests.
TABLE_1E7_1E3_1E4 = 4605930


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def colouring_digest(lo: int, hi: int, k: int, colours: np.ndarray) -> str:
    """Digest of a parsed colouring: its header and its colour per integer."""
    head = f"{lo} {hi} {k}\n".encode()
    return sha256_hex(head + np.asarray(colours, dtype=np.int8).tobytes())


# ---------------------------------------------------------------------------
# colourings
# ---------------------------------------------------------------------------

def mono_triple(colour: Sequence[int], system: str) -> Optional[tuple]:
    """First (a, b, c) with a <= b, all one colour, solving the system.

    `colour[x]` is x's colour, 0 where x is not coloured; plain loops only.
    """
    hi = len(colour) - 1
    members = [x for x in range(1, hi + 1) if colour[x]]
    for i, a in enumerate(members):
        for b in members[i:]:
            c = a * b if system == "product" else a + b
            if c > hi:
                break
            if colour[a] != colour[b]:
                continue
            cands = (c, c + 1) if system == "double-sum" else (c,)
            for cc in cands:
                if cc <= hi and colour[cc] == colour[a]:
                    return (a, b, cc)
    return None


def colouring_errors(colour: Sequence[int], lo: int, hi: int, k: int,
                     system: str) -> list[str]:
    """Errors unless `colour` k-colours exactly [lo, hi] with no mono triple."""
    colour = [int(c) for c in colour]
    if len(colour) != hi + 1:
        return [f"colour array covers [0, {len(colour) - 1}], expected [0, {hi}]"]
    bad = [x for x in range(1, hi + 1) if (lo <= x) != (1 <= colour[x] <= k)]
    if bad:
        return [f"{len(bad)} integers wrongly coloured, first {bad[0]}"]
    triple = mono_triple(colour, system)
    return [f"monochromatic {system} triple {triple}"] if triple else []


def subset_colouring_errors(colour: Sequence[int], size: int, k: int,
                            system: str) -> list[str]:
    """Errors unless `colour` k-colours exactly `size` integers with no mono triple."""
    colour = [int(c) for c in colour]
    coloured = [x for x in range(1, len(colour)) if colour[x]]
    errs = []
    if len(coloured) != size:
        errs.append(f"{len(coloured)} integers coloured, expected {size}")
    if any(colour[x] > k for x in coloured):
        errs.append(f"colour above k={k}")
    triple = mono_triple(colour, system)
    if triple:
        errs.append(f"monochromatic {system} triple {triple}")
    return errs


# ---------------------------------------------------------------------------
# Monte Carlo bands
# ---------------------------------------------------------------------------

def _offset(alpha: float) -> float:
    """Exponent offset b(alpha) of the perturbed threshold, from its definition."""
    delta = 1.0 - (1.0 + math.log(math.log(2.0))) / math.log(2.0)
    r = alpha ** (1.0 / delta) / (4.0 * math.log(1.0 / alpha) ** (1.5 / delta))
    return r / (1.0 + 2.0 * r)


def sweep_probability(n: int, c: float, alpha: Optional[float]) -> float:
    if alpha is None:
        raw = c * (n * math.log(n)) ** (-1.0 / 3.0)
    else:
        raw = c * n ** (-0.5 + _offset(alpha))
    return min(raw, 1.0)


def monotone_errors(freqs: Sequence[float], trials: int) -> list[str]:
    """At most one inversion, none larger than 2/sqrt(trials)."""
    slack = 2.0 / math.sqrt(trials)
    gaps = [max(0.0, freqs[i] - freqs[i + 1]) for i in range(len(freqs) - 1)]
    errs = []
    if sum(1 for g in gaps if g > 0) > 1:
        errs.append(f"frequencies {list(freqs)} invert more than once")
    if any(g > slack for g in gaps):
        errs.append(f"frequencies {list(freqs)} invert by more than {slack:.3f}")
    return errs


def band_errors(freqs: Sequence[float], trials: int, *,
                first_max: Optional[float] = 0.1,
                last_min: float = 0.9) -> list[str]:
    """Frequency band of acceptance criteria 9 and 10."""
    errs = monotone_errors(freqs, trials)
    if first_max is not None and freqs[0] > first_max:
        errs.append(f"first frequency {freqs[0]} > {first_max}")
    if freqs[-1] < last_min:
        errs.append(f"last frequency {freqs[-1]} < {last_min}")
    return errs


# ---------------------------------------------------------------------------
# CLI commands
# ---------------------------------------------------------------------------

def exit_code_errors(got: int, expected: int) -> list[str]:
    return [] if got == expected else [f"exit code {got}, expected {expected}"]


def artifact_errors(key: str, data: bytes) -> list[str]:
    got = sha256_hex(data)
    want = ARTIFACT_SHA256[key]
    return [] if got == want else [f"artifact {key} sha256 {got[:12]}, expected {want[:12]}"]


def parse_report(text: str) -> dict[str, str]:
    """``key: value`` lines of a command's stdout or stderr report."""
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep and " " not in key:
            out[key] = value.strip()
    return out


def report_errors(report: dict[str, str], expected: dict[str, str]) -> list[str]:
    return [f"{key}: {report.get(key)!r}, expected {want!r}"
            for key, want in expected.items() if report.get(key) != want]


def census(n: int) -> dict[str, str]:
    """Product triples ab = c <= n, 2 <= a <= b, as ``count triples`` prints them."""
    r = math.isqrt(n)
    off = sum(n // a - a for a in range(2, r + 1))
    diag = max(r - 1, 0)
    return {"total": str(off + diag), "off_diagonal": str(off), "diagonal": str(diag)}


def gstar_bounds(n: int, eps: float) -> dict[str, str]:
    """k = 2 extremal-size bounds; S(2) = S'(2) = 5, so both use n^(1/5)."""
    root = n ** (1.0 / 5)
    return {"lower": str(n - root), "upper": str(n - (1.0 - eps) * root),
            "upper_condition_met": str(math.log(n) > 25 * math.log(2.0 / eps))}


_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def stream_seed(master: int, *indices: int) -> int:
    """The documented splitmix64 chain that keys every Philox stream."""
    h = master & _MASK64
    for i in indices:
        h = _splitmix64(h ^ (i & _MASK64))
    return h


def dropped_indicator(n: int, drop: int, seed: int) -> np.ndarray:
    """[2, n] minus `drop` members chosen by the seeded Philox stream that
    ``count supersat`` uses, as an absolute indicator."""
    dense = np.zeros(n + 1, dtype=bool)
    dense[2:] = True
    if drop:
        rng = np.random.Generator(np.random.Philox(
            key=np.array([stream_seed(seed, drop), 0], dtype=np.uint64)))
        dense[rng.choice(np.arange(2, n + 1), size=drop, replace=False)] = False
    return dense


def supersat_expected(n: int, drop: int, seed: int) -> dict[str, str]:
    """``count supersat``: ordered (a, b) in (A cap [2, sqrt n])^2 with ab in A."""
    dense = dropped_indicator(n, drop, seed)
    small = np.flatnonzero(dense[:math.isqrt(n) + 1])
    count = int(np.count_nonzero(dense[np.multiply.outer(small, small)]))
    return {"count": str(count), "size": str(int(dense.sum()))}


def eleven_mono_count(n: int) -> int:
    """Mono a + b = c (a <= b) under colour 1 on (4n/11, 10n/11], colour 2 elsewhere.

    Each colour class is a union of intervals, so for each a the valid b
    form intervals: b in [a, n - a], b in the class, a + b in the class.
    """
    lo1 = 4 * n // 11 + 1
    hi1 = 10 * n // 11
    classes = [[(lo1, hi1)], [(1, lo1 - 1), (hi1 + 1, n)]]
    total = 0
    for ivs in classes:
        for lo_a, hi_a in ivs:
            for a in range(lo_a, hi_a + 1):
                for lo_b, hi_b in ivs:
                    for lo_c, hi_c in ivs:
                        b_lo = max(a, lo_b, lo_c - a)
                        b_hi = min(n - a, hi_b, hi_c - a)
                        if b_hi >= b_lo:
                            total += b_hi - b_lo + 1
    return total


def table_count(n: int, y: int, z: int) -> int:
    """|{x <= n : some divisor d of x has y < d < z}|, by marking multiples."""
    marked = np.zeros(n + 1, dtype=bool)
    for d in range(y + 1, z):
        marked[d::d] = True
    return int(np.count_nonzero(marked[1:]))
