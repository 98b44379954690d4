"""Seeded input generator and job lists for the benchmark workloads.

`generate(workload, seed, out_dir)` writes every model and evidence file a
workload needs, plus ``deck.json``, the list of jobs (one ``hmtkl`` command
line each, with its expected exit code and the correctness check that applies
to it).  The same (workload, seed, size) always gives byte-identical files:
all randomness comes from ``random.Random(seed)`` and every number is written
with a fixed number of decimals.

Sizes, dimensions and methods sit on fixed grids, so every seed runs the same
mix of work; the seed draws the tree shapes, the parameters, the evidence, the
Monte Carlo seeds and the job order.

Why each workload:

* ``tree-exact`` - ``exact`` on heterogeneous ragged trees of 64-2048 nodes
  and on homogeneous regular trees.  Parsing, validation and topology
  building (``model``), the per-node local terms (``divergence``) and the
  inward pass (``tree``) do almost all the work; ``hmm`` and ``montecarlo``
  stay idle.
* ``chain-exact`` - ``exact``, ``exact --fast``, ``rate``, ``bound`` and
  ``evidence-exact`` on chains of 10 to 1e5 symbols.  The ``hmm`` layer is
  nearly the whole cost; the model documents are tiny.
* ``monte-carlo`` - ``mc`` on trees, on chains (through ``HmmModel.as_tree``),
  on the bundled Gaussian pair and with evidence, plus ``sweep`` with and
  without evidence.  The sampler and log-likelihood in ``montecarlo``
  dominate, and memory grows with trials x draws.
"""

from __future__ import annotations

import json
import random
import shutil
from pathlib import Path

WORKLOADS = ("tree-exact", "chain-exact", "monte-carlo")

#: Probabilities are written as integer multiples of 1/QUANTUM, so that files
#: are short, exact to reproduce, and rows sum to 1 far inside the 1e-12
#: tolerance of the model loader.
QUANTUM = 1_000_000

#: Node counts of the heterogeneous ragged trees: 22 steps of a log scale.
_TREE_SIZES = {"full": [round(64 * 32 ** (i / 21)) for i in range(22)], "tiny": [12, 20]}
#: (children, depth) of the homogeneous regular trees; node counts 64-2047.
_REGULAR_SHAPES = {"full": [(2, 9), (3, 6), (1, 700), (4, 5), (2, 11), (1, 64)], "tiny": [(2, 3)]}
_CHAIN_LENGTHS = {"full": [10, 32, 100, 316, 1000, 3162, 10000, 31623, 100000], "tiny": [10, 40]}
_CHAIN_STATES = {"full": [2, 4, 16, 64], "tiny": [2, 3]}
#: `bound` is O(N d^3): it runs up to this length.
_BOUND_MAX_N = 10000
#: `evidence-exact` holds an (N, d, d) stack per model: it runs while
#: N <= _EVIDENCE_MAX_N and N * d^2 <= _EVIDENCE_MAX_ND2.
_EVIDENCE_MAX_N = 10000
_EVIDENCE_MAX_ND2 = 4_200_000
#: (nodes, trials) of the joint mc jobs on ragged trees, (length, trials) of the
#: joint mc jobs on chains and of the mc --evidence jobs.  The Monte Carlo
#: deck holds two replicas of these, with their own models and seeds.
_MC_REPLICAS = {"full": 2, "tiny": 1}
_MC_TREES = {"full": [(64, 2000), (128, 1000), (256, 1000), (512, 500)], "tiny": [(10, 200)]}
_MC_CHAINS = {"full": [(50, 2000), (200, 1000), (1000, 200)], "tiny": [(8, 200)]}
_MC_EVIDENCE = {"full": [(100, 10000), (316, 3162), (1000, 1000), (2000, 1000)], "tiny": [(12, 300)]}
_MC_GAUSS_TRIALS = {"full": 100000, "tiny": 2000}
#: (n_min, n_max, step, trials) of the sweep jobs without and with evidence.
_SWEEP_JOINT = {"full": (5, 65, 20, 2000), "tiny": (4, 8, 4, 200)}
_SWEEP_EVIDENCE = {"full": (10, 100, 30, 1000), "tiny": (6, 12, 6, 200)}


def _probabilities(rng: random.Random, k: int, mask=None) -> list[float]:
    """A random probability vector of length k, zero where `mask` is False."""
    live = [i for i in range(k) if mask is None or mask[i]]
    weights = [0.2 + rng.random() for _ in live]
    total = sum(weights)
    units = [max(1, int(w / total * QUANTUM)) for w in weights]
    units[-1] += QUANTUM - sum(units)
    out = [0.0] * k
    for i, u in zip(live, units):
        out[i] = u / QUANTUM
    return out


def _blend(rng: random.Random, row: list[float], weight: float) -> list[float]:
    """`row` mixed with a fresh random row; positive wherever the fresh row is."""
    fresh = _probabilities(rng, len(row))
    units = [max(1, int(((1 - weight) * p + weight * q) * QUANTUM)) for p, q in zip(row, fresh)]
    top = max(range(len(units)), key=units.__getitem__)
    units[top] += QUANTUM - sum(units)
    return [u / QUANTUM for u in units]


def _matrix(rng, d, cols, mask=None):
    return [_probabilities(rng, cols, None if mask is None else mask[r]) for r in range(d)]


def _perturbed(rng, matrix, weight=0.3):
    return [_blend(rng, row, weight) for row in matrix]


def _discrete(matrix):
    return {"kind": "discrete", "matrix": matrix}


def _gaussian(rng, d):
    means = [round(rng.uniform(-2.0, 2.0), 4) for _ in range(d)]
    sds = [round(rng.uniform(0.5, 3.0), 4) for _ in range(d)]
    return {"kind": "gaussian", "means": means, "sds": sds}


def _gaussian_perturbed(rng, spec):
    means = [round(m + rng.uniform(-0.5, 0.5), 4) for m in spec["means"]]
    sds = [round(s * rng.uniform(0.7, 1.4), 4) for s in spec["sds"]]
    return {"kind": "gaussian", "means": means, "sds": sds}


def _emission_pair(rng, d, alphabet):
    """Matching emission specs for the first and second model."""
    if alphabet == "gaussian":
        a = _gaussian(rng, d)
        return a, _gaussian_perturbed(rng, a)
    a = _matrix(rng, d, alphabet)
    return _discrete(a), _discrete(_perturbed(rng, a))


def _ragged_paths(rng: random.Random, n: int) -> list[str]:
    """Node paths of a random tree with n nodes whose internal nodes have 1-4 children."""
    paths, frontier = [""], [""]
    while len(paths) < n:
        parent = frontier.pop(rng.randrange(len(frontier)))
        kids = [parent + str(c) for c in range(min(rng.randint(1, 4), n - len(paths)))]
        paths += kids
        frontier += kids
    return sorted(paths, key=lambda p: (len(p), p))


def _write(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8")


def _hmt_pair(rng, out_dir, name, d, alphabet, *, nodes=None, shape=None, sharing="per-node"):
    """Write a first/second model pair over one topology; returns the file names.

    `sharing` is ``per-node`` (per-node transitions and emissions), ``mixed``
    (per-node transitions, one shared emission) or ``shared``.
    """
    docs = [{"type": "hmt", "states": d, "alphabet": alphabet} for _ in range(2)]
    for doc in docs:
        if nodes is not None:
            doc["nodes"] = nodes
        else:
            doc["children"], doc["depth"] = shape
    initial = _probabilities(rng, d)
    docs[0]["initial"], docs[1]["initial"] = initial, _blend(rng, initial, 0.3)
    if sharing == "shared":
        pi = _matrix(rng, d, d)
        docs[0]["transition"], docs[1]["transition"] = pi, _perturbed(rng, pi)
        docs[0]["emission"], docs[1]["emission"] = _emission_pair(rng, d, alphabet)
    else:
        trans = [{}, {}]
        for p in nodes[1:]:
            pi = _matrix(rng, d, d)
            trans[0][p], trans[1][p] = pi, _perturbed(rng, pi)
        docs[0]["transition"], docs[1]["transition"] = trans
        if sharing == "mixed":
            docs[0]["emission"], docs[1]["emission"] = _emission_pair(rng, d, alphabet)
        else:
            emis = [{}, {}]
            for p in nodes:
                emis[0][p], emis[1][p] = _emission_pair(rng, d, alphabet)
            docs[0]["emission"], docs[1]["emission"] = emis
    files = [f"{name}_a.json", f"{name}_b.json"]
    for doc, file in zip(docs, files):
        _write(out_dir / file, doc)
    return files


def _periodic_mask(d):
    """Two alternating state classes: every transition crosses between them."""
    half = max(1, d // 2)
    return [[(r < half) != (s < half) for s in range(d)] for r in range(d)]


def _hmm_pair(rng, out_dir, name, d, alphabet, length, *, periodic=False):
    """Write a chain pair; the first model's transition is periodic when asked."""
    initial = _probabilities(rng, d)
    pi = _matrix(rng, d, d, _periodic_mask(d) if periodic else None)
    pi_b = _perturbed(rng, pi)
    emis_a, emis_b = _emission_pair(rng, d, alphabet)
    files = [f"{name}_a.json", f"{name}_b.json"]
    for file, init, trans, emis in ((files[0], initial, pi, emis_a), (files[1], _blend(rng, initial, 0.3), pi_b, emis_b)):
        doc = {"type": "hmm", "states": d, "alphabet": alphabet, "length": length}
        doc.update(initial=init, transition=trans, emission=emis)
        _write(out_dir / file, doc)
    return files, (initial, pi, emis_a["matrix"] if alphabet != "gaussian" else None)


def _draw(rng, probs):
    u, acc = rng.random(), 0.0
    for i, p in enumerate(probs):
        acc += p
        if u < acc:
            return i
    return max(i for i, p in enumerate(probs) if p > 0)


def _evidence(rng, out_dir, name, params, length):
    """Write `length` symbols drawn from the chain `params` (1-based labels)."""
    initial, pi, emission = params
    state, symbols = _draw(rng, initial), []
    for i in range(length):
        if i:
            state = _draw(rng, pi[state])
        symbols.append(_draw(rng, emission[state]) + 1)
    file = f"{name}_x.txt"
    (out_dir / file).write_text(" ".join(map(str, symbols)) + "\n", encoding="utf-8")
    return file


def _pair_args(command, files):
    return [command, "--model-a", files[0], "--model-b", files[1]]


def _tree_exact(rng, out_dir, size):
    jobs = []
    for j, n in enumerate(_TREE_SIZES[size]):
        d = (2, 4, 8)[j % 3]
        alphabet = "gaussian" if j % 2 else rng.randint(2, 4)
        sharing = ("per-node", "per-node", "mixed", "shared")[j % 4]
        name = f"t{j:02d}"
        files = _hmt_pair(rng, out_dir, name, d, alphabet, nodes=_ragged_paths(rng, n), sharing=sharing)
        jobs.append({"id": name, "argv": _pair_args("exact", files), "check": {"kind": "tree-mc", "files": files}})
    for j, shape in enumerate(_REGULAR_SHAPES[size]):
        d = (2, 4, 8)[j % 3]
        alphabet = "gaussian" if j % 2 else rng.randint(2, 4)
        name = f"r{j:02d}"
        files = _hmt_pair(rng, out_dir, name, d, alphabet, shape=shape, sharing="shared")
        jobs.append({"id": name, "argv": _pair_args("exact", files), "check": {"kind": "closed-form", "files": files}})
    return jobs, ["t00", "r00"]


def _chain_exact(rng, out_dir, size):
    jobs, warmup = [], []
    lengths, dims = _CHAIN_LENGTHS[size], _CHAIN_STATES[size]
    for di, d in enumerate(dims):
        for ni, n in enumerate(lengths):
            # One fixed slot per state count holds a periodic pair, so that every
            # seed runs the --fast fallback on the same sizes.
            periodic = ni == (2 * di + 1) % len(lengths)
            name = f"c{di}{ni}"
            alphabet = rng.randint(2, 8)
            files, params = _hmm_pair(rng, out_dir, name, d, alphabet, n, periodic=periodic)
            group = {"kind": "chain", "group": name, "files": files, "periodic": periodic}
            cmds = [("exact", []), ("fast", ["--fast"])]
            if n <= _BOUND_MAX_N:
                cmds.append(("bound", []))
            if not periodic:
                cmds.append(("rate", []))
            if n <= _EVIDENCE_MAX_N and n * d * d <= _EVIDENCE_MAX_ND2:
                cmds.append(("evidence", ["--evidence", _evidence(rng, out_dir, name, params, n)]))
            for label, extra in cmds:
                command = {"fast": "exact", "evidence": "evidence-exact"}.get(label, label)
                job = {"id": f"{name}-{label}", "argv": _pair_args(command, files) + extra, "check": dict(group, role=label)}
                jobs.append(job)
                if ni == 0 and di == 0:
                    warmup.append(job["id"])
    return jobs, warmup


def _monte_carlo(rng, out_dir, size):
    jobs = []
    for rep in range(_MC_REPLICAS[size]):
        jobs += _monte_carlo_replica(rng, out_dir, size, str(rep))
    return jobs, ["mc0-0", "me0-0"]


def _monte_carlo_replica(rng, out_dir, size, rep):
    jobs = []

    def mc(name, files, trials, check, extra=()):
        argv = _pair_args("mc", files) + list(extra) + ["--trials", str(trials), "--seed", str(rng.randrange(1 << 31))]
        jobs.append({"id": name, "argv": argv, "check": dict(check, files=files)})

    for j, (n, trials) in enumerate(_MC_TREES[size]):
        d, alphabet = (2, 4, 8)[j % 3], ("gaussian" if j % 2 else rng.randint(2, 4))
        name = f"mt{j}-{rep}"
        files = _hmt_pair(rng, out_dir, name, d, alphabet, nodes=_ragged_paths(rng, n), sharing=("per-node", "mixed")[j % 2])
        mc(name, files, trials, {"kind": "mc-tree"})
    for j, (n, trials) in enumerate(_MC_CHAINS[size]):
        files, _ = _hmm_pair(rng, out_dir, f"mc{j}-{rep}", (2, 4, 3)[j % 3], rng.randint(2, 6), n)
        mc(f"mc{j}-{rep}", files, trials, {"kind": "mc-chain"})
    bundled = Path(__file__).resolve().parent.parent / "src" / "hmtkl" / "data"
    files = ["gauss_a.json", "gauss_b.json"]
    for src, dst in zip(("gauss_tree_a.json", "gauss_tree_b.json"), files):
        shutil.copyfile(bundled / src, out_dir / dst)
    mc(f"mg-{rep}", files, _MC_GAUSS_TRIALS[size], {"kind": "mc-tree"})
    for j, (n, trials) in enumerate(_MC_EVIDENCE[size]):
        name = f"me{j}-{rep}"
        files, params = _hmm_pair(rng, out_dir, name, (2, 4, 8)[j % 3], rng.randint(2, 6), n)
        mc(name, files, trials, {"kind": "mc-evidence"}, ["--evidence", _evidence(rng, out_dir, name, params, n)])
    for name, (n_min, n_max, step, trials), with_evidence in (
        (f"sj-{rep}", _SWEEP_JOINT[size], False),
        (f"se-{rep}", _SWEEP_EVIDENCE[size], True),
    ):
        files, params = _hmm_pair(rng, out_dir, name, 2, rng.randint(2, 3), n_max)
        extra = ["--n-min", str(n_min), "--n-max", str(n_max), "--step", str(step)]
        if with_evidence:
            extra += ["--evidence", _evidence(rng, out_dir, name, params, n_max)]
        argv = _pair_args("sweep", files) + extra + ["--trials", str(trials), "--seed", str(rng.randrange(1 << 31))]
        jobs.append({"id": name, "argv": argv, "check": {"kind": "sweep", "files": files, "evidence": with_evidence}})
    return jobs


_DECKS = {"tree-exact": _tree_exact, "chain-exact": _chain_exact, "monte-carlo": _monte_carlo}


def generate(workload: str, seed: int, out_dir, size: str = "full") -> dict:
    """Write the workload's inputs and ``deck.json`` into `out_dir`; return the deck.

    Every job is expected to exit 0.  ``warmup`` names the jobs run once before
    timing starts; ``jobs`` is in the (seeded) order the timed loop runs them.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    jobs, warmup = _DECKS[workload](rng, out_dir, size)
    rng.shuffle(jobs)
    for job in jobs:
        job["expect"] = 0
    deck = {"workload": workload, "seed": seed, "size": size, "warmup": warmup, "jobs": jobs}
    _write(out_dir / "deck.json", deck)
    return deck
