"""Independent checks of c4book artifacts.

Nothing here imports c4book: graph6 is parsed and written by this file's own
code, and every property is tested with a different algorithm from the
package's (neighbourhood disjointness for C4-freeness, subset enumeration
for book numbers, the counting lemma for large witnesses).  Each check
returns a list of problems; an empty list means the artifact is correct.
"""

from __future__ import annotations

import random
from itertools import combinations
from math import comb

# The certify workload's input files are ER_q for these q; ER_9 is relabelled.
ER_INPUTS = (17, 9)
ER_RELABELLED = 9
CONSTRUCT_ORDER = 820  # construct random-delete --n 800 --k 2 --m 10
VERIFY_N = 60  # verify er9.g6 --k 4 --n 60

# Values pinned from the seed commit's CLI output.
ER17_DIGEST = "08626797df62df93a9445dd0f1d05aa5ec54ae6ff1af543affb53e5fac8a4110"
EXHAUST_PROOF = {"all_rejected": True, "graphs_examined": 0, "order": 11, "k": 2, "n": 4}
EXHAUST_WITNESS = "I?qbCdWLG"


# -- graph6 --


def g6_decode(text: str) -> list[int]:
    """Adjacency rows (bit j of row i set iff i ~ j) of a graph6 string."""
    data = text.strip().encode("ascii")
    if not data or any(not 63 <= b <= 126 for b in data):
        raise ValueError("not a graph6 string")
    if data[0] != 126:
        n, pos = data[0] - 63, 1
    elif data[1] != 126:
        n, pos = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63), 4
    else:
        n = 0
        for b in data[2:8]:
            n = n << 6 | (b - 63)
        pos = 8
    bits = "".join(format(b - 63, "06b") for b in data[pos:])
    total = n * (n - 1) // 2
    if len(bits) != 6 * ((total + 5) // 6) or "1" in bits[total:]:
        raise ValueError(f"graph6 body does not match order {n}")
    rows = [0] * n
    off = 0
    for v in range(1, n):
        col = bits[off : off + v]
        off += v
        u = col.find("1")
        while u >= 0:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
            u = col.find("1", u + 1)
    return rows


def g6_encode(rows: list[int]) -> str:
    n = len(rows)
    if n <= 62:
        head = [n + 63]
    else:
        head = [126, (n >> 12) + 63, (n >> 6 & 63) + 63, (n & 63) + 63]
    bits = "".join("1" if rows[v] >> u & 1 else "0" for v in range(1, n) for u in range(v))
    bits += "0" * (-len(bits) % 6)
    body = [int(bits[i : i + 6], 2) + 63 for i in range(0, len(bits), 6)]
    return bytes(head + body).decode("ascii")


def relabel(rows: list[int], seed: int) -> list[int]:
    """The same graph under a vertex permutation drawn from `seed`."""
    n = len(rows)
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    out = [0] * n
    for u, row in enumerate(rows):
        new = 0
        for w in range(n):
            if row >> w & 1:
                new |= 1 << perm[w]
        out[perm[u]] = new
    return out


# -- graph properties --


def c4_free(rows: list[int]) -> bool:
    """No vertex reaches another through two distinct neighbours."""
    for u, ru in enumerate(rows):
        reach = 0
        not_u = ~(1 << u)
        m = ru
        while m:
            low = m & -m
            m ^= low
            step = rows[low.bit_length() - 1] & not_u
            if reach & step:
                return False
            reach |= step
    return True


def min_degree(rows: list[int]) -> int:
    return min(row.bit_count() for row in rows)


def book_number(rows: list[int], k: int) -> int:
    """Most common non-neighbours of any k-set independent in the graph."""
    n = len(rows)
    best = 0
    for spine in combinations(range(n), k):
        if any(rows[a] >> b & 1 for a, b in combinations(spine, 2)):
            continue
        pages = sum(
            1 for w in range(n) if w not in spine and not any(rows[s] >> w & 1 for s in spine)
        )
        best = max(best, pages)
    return best


def lemma_book_bound(rows: list[int], k: int) -> int:
    """Upper bound N - k(delta+1) + C(k,2) on the complement book number of
    a C4-free graph: two neighbourhoods share at most one vertex."""
    return len(rows) - k * (min_degree(rows) + 1) + comb(k, 2)


def polarity_problems(rows: list[int], q: int) -> list[str]:
    """Shape of ER_q: q^2+q+1 vertices, C4-free, q+1 vertices of degree q and
    the rest of degree q+1."""
    probs = []
    if len(rows) != q * q + q + 1:
        probs.append(f"ER_{q} has {len(rows)} vertices")
        return probs
    degs = sorted(row.bit_count() for row in rows)
    if degs != [q] * (q + 1) + [q + 1] * (q * q):
        probs.append(f"ER_{q} degree sequence is wrong")
    if not c4_free(rows):
        probs.append(f"ER_{q} contains a C4")
    return probs


# -- per-op checks: (exit code, artifact, inputs) -> problems --


def _witness_problems(art: dict, order: int, k: int, pages: int) -> list[str]:
    rows = g6_decode(art["graph6"])
    probs = []
    if len(rows) != order:
        probs.append(f"witness has {len(rows)} vertices, expected {order}")
    if not c4_free(rows):
        probs.append("witness contains a C4")
    if book_number(rows, k) >= pages:
        probs.append(f"witness complement contains B_{pages}^({k})")
    return probs


def check_construct(code: int, art: dict, inputs: dict) -> list[str]:
    if code != 0 or not art.get("found"):
        return [f"construct did not find a graph (exit {code})"]
    run, cert = art["run"], art["certificate"]
    rows = g6_decode(art["graph6"])
    n, k, m = run["n"], run["k"], run["m"]
    probs = []
    if len(rows) != CONSTRUCT_ORDER or cert["order"] != CONSTRUCT_ORDER:
        probs.append(f"order {len(rows)}, expected {CONSTRUCT_ORDER}")
    if run["order"] - run["d"] != len(rows):
        probs.append("survivor count does not match ER_p order minus deletions")
    if not c4_free(rows):
        probs.append("output contains a C4")
    delta = min_degree(rows)
    if m < 1 or delta < m:
        probs.append(f"minimum degree {delta} below floor m = {m}")
    if cert["min_degree"] != delta:
        probs.append(f"certificate min degree {cert['min_degree']} != {delta}")
    n_star = len(rows) - k * (delta + 1) + comb(k, 2) + 1
    if cert["guaranteed_book_free_n"] != n_star or n_star > n:
        probs.append(f"certificate n* = {cert['guaranteed_book_free_n']}, expected {n_star} <= {n}")
    if cert["graph_hash"] != run["result_digest"]:
        probs.append("certificate graph_hash differs from run.result_digest")
    return probs


def check_exhaust_proof(code: int, art: dict, inputs: dict) -> list[str]:
    proof = art.get("exhaustion_proof") or {}
    got = {key: proof.get(key) for key in EXHAUST_PROOF}
    if code != 1 or art.get("witness_found") is not False or got != EXHAUST_PROOF:
        return [f"exhaustion proof {got} (exit {code}), expected {EXHAUST_PROOF}"]
    return []


def check_exhaust_witness(code: int, art: dict, inputs: dict) -> list[str]:
    if code != 0 or art.get("graph6") != EXHAUST_WITNESS:
        return [f"witness {art.get('graph6')!r} (exit {code}), expected {EXHAUST_WITNESS!r}"]
    return _witness_problems(art, 10, 2, 4)


def check_certify(code: int, art: dict, inputs: dict) -> list[str]:
    rows = g6_decode(inputs["er17.g6"])
    n_star = lemma_book_bound(rows, 3) + 1
    probs = []
    if code != 0 or art.get("graph_hash") != ER17_DIGEST:
        probs.append(f"graph_hash {art.get('graph_hash')} (exit {code}), expected {ER17_DIGEST}")
    if art.get("guaranteed_book_free_n") != n_star or art.get("order") != len(rows):
        probs.append(f"n* = {art.get('guaranteed_book_free_n')}, expected {n_star}")
    if art.get("graph6") != inputs["er17.g6"]:
        probs.append("certified graph is not the input file")
    return probs


def check_verify(code: int, art: dict, inputs: dict) -> list[str]:
    rows = g6_decode(inputs["er9.g6"])
    probs = []
    if code != 0 or art.get("witness") is not True:
        probs.append(f"verify rejected a witness (exit {code})")
    if art.get("graph6") != inputs["er9.g6"]:
        probs.append("verified graph is not the input file")
    # The input is C4-free (checked at set-up), so the lemma proves the verdict.
    if lemma_book_bound(rows, 4) >= VERIFY_N:
        probs.append(f"the counting lemma does not prove ER_9 book-free at n = {VERIFY_N}")
    return probs


def check_anneal(code: int, art: dict, inputs: dict) -> list[str]:
    if code == 1 and art.get("witness_found") is False:
        return []
    if code == 0 and art.get("witness_found") is True:
        return _witness_problems(art, 23, 2, 13)
    return [f"unexpected probe result (exit {code})"]
