"""Seeded request generators for the three benchmark workloads.

A workload is a sequence of rounds. A slot fixes the kind of a request and
its size (order or degree, grid size N, past operator, interval groups); the
slots together cover the workload's range of sizes. In the in-process
workloads a round holds every slot once in each height class of the
rationals, with a fixed choice of beta = 1 and of the state per slot and
class, so every round has the same cost mix and a run of whole rounds
measures the same mix for every seed. A cli-cold round holds every command
once and rotates the height classes and beta = 1 over the commands from one
round to the next; there, interpreter start and cold enumeration set the
cost, not the height. The seed shuffles each round and draws the rest: the
rationals within their class, increment words, factor cells, laws and the
order in which the malformed CLI requests are dealt.

In the in-process workloads the sizes are chosen so that the latency
percentiles land inside bands of similar requests rather than in the gap
between two sizes: the median in a band of 10-35 ms requests (order-8
transforms; Fock products of length 4 and tables at N = 8, degree 6) and the
90th percentile in a band of 150-300 ms requests (order-10 transforms; Fock
tables at degree 8-10 and degree-4 martingale and conditional-expectation
checks). A gap would let the percentile jump from one size to the next
between runs.

Nothing here imports twostate: a request is plain data, and the library only
ever sees the inputs generated here.
"""

from __future__ import annotations

import random
from fractions import Fraction

WORKLOADS = ("exact-series", "fock-model", "cli-cold")

# Largest numerator/denominator per height class.
HEIGHTS = (9, 99, 9999)


def rational(rng: random.Random, height: int) -> Fraction:
    """A positive rational p/q with 1 <= p, q <= height."""
    return Fraction(rng.randint(1, height), rng.randint(1, height))


def _params(rng: random.Random, height: int, beta_one: bool) -> dict:
    beta = Fraction(1) if beta_one else rational(rng, height)
    return {"alpha": rational(rng, height), "T": rational(rng, height), "beta": beta}


def _separated_params(rng: random.Random, height: int) -> dict:
    # alpha^2 T kept away from 1, where the free Poisson and C laws have a
    # density pole or 1/sqrt edge and a 200-point Riemann sum is too coarse to
    # serve as the density oracle.
    while True:
        p = _params(rng, height, True)
        ratio = p["alpha"] ** 2 * p["T"]
        if ratio <= Fraction(1, 4) or ratio >= 4:
            return p


# ---------------------------------------------------------------- exact-series

EXACT_SLOTS = (
    [(kind, n) for kind in ("free_moments", "two_state_moments", "free_cumulants", "two_state_cumulants",
                            "mixed_moment", "exact_quadrature") for n in range(7, 11)]
    # order 8 a second time widens the band that holds the median
    + [(kind, 8) for kind in ("free_moments", "two_state_moments", "free_cumulants", "two_state_cumulants",
                              "exact_quadrature")]
    + [("jacobi", n) for n in (6, 8, 10)]
    + [("generating_function", n) for n in (4, 6, 8, 10)]
    + [("generator_residual", n) for n in (4, 8, 12, 16)]
    + [("qv_lemma_fock", n) for n in (3, 4, 5, 6)]
    + [("qv_lemma_bruteforce", n) for n in (3, 4)]
)

# requests checked against the Fock model need beta = 1, the only value the
# operator model realises
BETA_ONE_KINDS = ("mixed_moment", "jacobi", "qv_lemma_fock")


def _exact_request(rng: random.Random, kind: str, size: int, slot: int, height: int) -> dict:
    beta_one = kind in BETA_ONE_KINDS or (slot + height) % 2 == 0
    req = {"kind": kind, "size": size, **_params(rng, HEIGHTS[height], beta_one)}
    if kind == "mixed_moment":
        req["N"] = 2 + size % 3
        req["word"] = tuple(rng.randint(1, req["N"]) for _ in range(size))
        req["state"] = ("phi", "psi")[(slot + height) % 2]
    elif kind == "jacobi":
        req["law"] = rng.choice(("nu", "mu"))
    elif kind == "exact_quadrature":
        req.update(_separated_params(rng, HEIGHTS[height]))
        req["law"] = rng.choice(("nu", "mu", "ct"))
    elif kind in ("qv_lemma_fock", "qv_lemma_bruteforce"):
        req["N"] = 2 + size % 3
    return req


# ------------------------------------------------------------------ fock-model

FOCK_SLOTS = (
    [(kind, (big_n, d)) for kind in ("phi_table", "psi_table")
     for big_n, d in ((2, 6), (2, 10), (4, 6), (4, 10), (6, 8), (6, 10), (8, 6), (8, 8))]
    + [("freeness", (big_n, length)) for big_n in (3, 4) for length in (2, 4, 5)]
    # (N, degree, t_cells, past power), with s at the end of the grid
    + [("martingale", shape) for shape in ((3, 2, 1, 2), (3, 3, 2, 1), (3, 4, 2, 2), (4, 2, 2, 2), (4, 3, 3, 1),
                                           (4, 4, 1, 2), (4, 4, 2, 1), (6, 2, 3, 1), (6, 3, 1, 2))]
    + [("product_lemma", groups) for groups in (
        (((1, 1), 1), ((2, 3), 2), ((4, 6), 1)),
        (((1, 3), 1), ((4, 8), 2)),
    )]
    # (N, t_cells, past power)
    + [("cond_exp", shape) for shape in ((3, 1, 3), (4, 3, 2), (6, 2, 3), (6, 3, 3), (8, 4, 2))]
    + [("sandwich", big_n) for big_n in (4, 8)]
    + [("kernel_residual", depth) for depth in (8, 64)]
)


def _fock_request(rng: random.Random, kind: str, size, height: int) -> dict:
    req = {"kind": kind, "size": size, **_params(rng, HEIGHTS[height], True)}
    if kind == "freeness":
        big_n, length = size
        cells = [rng.randint(1, big_n)]
        while len(cells) < length:
            cell = rng.randint(1, big_n)
            if cell != cells[-1]:
                cells.append(cell)
        req["factors"] = tuple((cell, 1 + k % 2) for k, cell in enumerate(cells))
    elif kind == "sandwich":
        req["window"] = rng.randint(2, size)
        # a word of total degree <= 2 keeps the oracle's mixed-moment words
        # at length <= 8
        before = req["window"] - 1
        if rng.random() < 0.5:
            req["sandwiched"] = ((rng.randint(1, before), rng.randint(1, 2)),)
        else:
            req["sandwiched"] = ((rng.randint(1, before), 1), (rng.randint(1, before), 1))
    return req


# -------------------------------------------------------------------- cli-cold

def _cli_wellformed(rng: random.Random, name: str, height: int, beta_one: bool) -> dict:
    p = _params(rng, height, beta_one)
    a, big_t, b = str(p["alpha"]), str(p["T"]), str(p["beta"])
    req = {"kind": "cli", "name": name, "malformed": False, **p}
    if name == "moments-low":
        req["argv"] = ["moments", "--alpha", a, "--T", big_t, "--beta", b, "--order", "5"]
    elif name == "moments-high":
        req["argv"] = ["moments", "--alpha", a, "--T", big_t, "--beta", b, "--order", "8"]
    elif name == "jacobi":
        req["argv"] = ["jacobi", "--alpha", a, "--t", big_t, "--order", "8"]
    elif name == "density":
        req.update(_separated_params(rng, height))
        req["measure"] = rng.choice(("nu", "mu", "ct"))
        req["samples"] = 150
        req["argv"] = ["density", "--measure", req["measure"], "--alpha", str(req["alpha"]),
                       "--t", str(req["T"]), "--samples", str(req["samples"])]
    elif name == "fock-moments":
        req["N"], req["degree"] = 4, 8
        req["argv"] = ["fock-moments", "--alpha", a, "--T", big_t, "--N", str(req["N"]),
                       "--degree", str(req["degree"])]
    elif name == "variation-table":
        req["N_list"] = sorted(rng.sample(range(1, 9), 4))
        req["argv"] = ["variation-table", "--alpha", a, "--beta", "1", "--T", big_t, "--k", "2",
                       "--N-list", ",".join(map(str, req["N_list"]))]
    elif name == "variation-centered":
        req["n"] = 3
        req["N_list"] = sorted(rng.sample(range(1, 9), 3))
        req["argv"] = ["variation-table", "--alpha", a, "--beta", b, "--T", big_t, "--n", str(req["n"]),
                       "--N-list", ",".join(map(str, req["N_list"]))]
    elif name == "norm-table":
        req["N"] = 3
        req["argv"] = ["norm-table", "--alpha", a, "--beta", "1", "--T", big_t, "--k", "2",
                       "--n-max", "2", "--N", str(req["N"])]
    elif name == "kernel-residual":
        req["depth"] = 12
        req["argv"] = ["kernel-residual", "--alpha", a, "--t", big_t, "--depth", str(req["depth"])]
    else:
        raise ValueError(f"unknown CLI request {name!r}")
    return req


# moments-high, jacobi and norm-table (about 0.5 s each: order-8 enumeration,
# lemma sum at n = 4) are the top quarter of a round, so the 90th percentile
# lands inside them; the rest cost little more than interpreter start. Order 9
# (over 1 s a request) would make one run of at least 100 requests last over a
# minute.
# freeness-check, martingale-check, generator-check and selfcheck are left
# out: they print only the library's own verdict, which no second route can
# check.
CLI_WELLFORMED = (
    "moments-low", "moments-high", "jacobi", "density", "fock-moments", "variation-table",
    "variation-centered", "norm-table", "kernel-residual",
)

# Malformed requests: zero denominators, non-numeric rationals, zero or
# negative sizes. The contract for every one of them is exit 2 with an
# "error:" line and no traceback; requests that break it count as failures.
# Ten templates dealt two a round: the ten rounds that give a run its 100
# samples deal each template exactly twice, so every run has the same mix.
CLI_MALFORMED = (
    ("zero-denominator-alpha", ["moments", "--alpha", "{p}/0", "--T", "1", "--order", "4"]),
    ("zero-denominator-T", ["fock-moments", "--alpha", "1", "--T", "{p}/0", "--N", "2"]),
    ("zero-denominator-beta", ["moments", "--alpha", "1", "--T", "1", "--beta", "{p}/0", "--order", "4"]),
    ("non-numeric-alpha", ["jacobi", "--alpha", "x{p}", "--t", "1"]),
    ("non-numeric-T", ["moments", "--alpha", "1", "--T", "{p}/q", "--order", "4"]),
    ("non-numeric-beta", ["variation-table", "--alpha", "1", "--beta", "{p}x", "--T", "1", "--n", "3",
                          "--N-list", "2"]),
    ("zero-N", ["fock-moments", "--alpha", "1", "--T", "1", "--N", "0"]),
    ("negative-N", ["martingale-check", "--alpha", "1", "--T", "1", "--N", "-{p}"]),
    ("zero-N-list", ["variation-table", "--alpha", "1", "--beta", "1", "--T", "1", "--k", "2", "--N-list", "0"]),
    ("zero-order", ["moments", "--alpha", "1", "--T", "1", "--order", "0"]),
)
MALFORMED_PER_ROUND = 2


def _cli_malformed(rng: random.Random, name: str, template: list[str]) -> dict:
    p = str(rng.randint(1, 99))
    return {"kind": "cli", "name": name, "malformed": True,
            "argv": [arg.replace("{p}", p) for arg in template]}


# ---------------------------------------------------------------------- rounds

def rounds(workload: str, seed: int):
    """Yield the workload's rounds, each a list of requests, forever."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    # the malformed templates are dealt round-robin in a seeded order, so every
    # run holds the same share of each
    malformed = rng.sample(CLI_MALFORMED, len(CLI_MALFORMED))
    index = 0
    while True:
        if workload == "exact-series":
            batch = [_exact_request(rng, kind, size, i, height)
                     for i, (kind, size) in enumerate(EXACT_SLOTS) for height in range(len(HEIGHTS))]
        elif workload == "fock-model":
            batch = [_fock_request(rng, kind, size, height)
                     for kind, size in FOCK_SLOTS for height in range(len(HEIGHTS))]
        else:
            batch = [_cli_wellformed(rng, name, HEIGHTS[(i + index) % len(HEIGHTS)], (i + index) % 2 == 0)
                     for i, name in enumerate(CLI_WELLFORMED)]
            batch += [_cli_malformed(rng, *malformed[(index * MALFORMED_PER_ROUND + k) % len(malformed)])
                      for k in range(MALFORMED_PER_ROUND)]
        rng.shuffle(batch)
        yield batch
        index += 1
