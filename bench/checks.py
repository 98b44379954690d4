"""Correctness checks of the jobs' outputs, run after the timed loop.

Every job's output is deterministic, so each distinct job is checked once and
every execution of it must print the same text.  The checks compare routes
that share as little as possible:

* ``tree-mc``: a heterogeneous tree's exact value lies inside a 5 sigma Monte
  Carlo interval of the same pair.
* ``closed-form``: a homogeneous regular tree's closed form equals the inward
  recursion on the same pair, within 1e-9 relative.
* ``chain``: ``exact``, ``exact --fast`` and ``bound`` of one chain pair agree
  within 1e-9 relative, and ``--fast`` reports the method it should (the
  direct-sum fallback on a periodic pair); ``rate`` equals nu @ k computed
  here from an eigenvector; ``evidence-exact`` equals the enumeration oracle
  on small instances and otherwise a forward-backward computation made here.
* ``mc-tree``, ``mc-chain``, ``mc-evidence``: the exact value lies inside
  the job's own 5 sigma interval.
* ``sweep``: every row's exact value matches ``do_bound`` (or, with
  evidence, the forward-backward computation), its Monte Carlo mean lies
  inside 5 sigma of it, its rate matches nu @ k, and the shortest row
  matches the enumeration oracle.
"""

from __future__ import annotations

import csv
import io
import math
from pathlib import Path

import numpy as np

import hmtkl
from hmtkl import load_evidence, load_model

REL_TOL = 1e-9
SIGMAS = 5.0
#: Trials of the Monte Carlo estimates the checks draw themselves.
CHECK_TRIALS = 300
#: Largest number of hidden paths (or joint outcomes) handed to an oracle.
ORACLE_LIMIT = 10_000


class CheckError(Exception):
    """The output of a job is wrong."""


def _fields(line: str) -> dict[str, str]:
    return dict(item.split("=", 1) for item in line.split())


def _close(value: float, reference: float, what: str) -> None:
    if not math.isclose(value, reference, rel_tol=REL_TOL, abs_tol=1e-12):
        raise CheckError(f"{what}: {value!r} != reference {reference!r}")


def _within(reference: float, mean: float, standard_error: float, what: str) -> None:
    if not abs(reference - mean) <= SIGMAS * standard_error:
        raise CheckError(f"{what}: exact {reference!r} outside {mean!r} +- {SIGMAS} x {standard_error!r}")


def _estimate(fields):
    """(mean, standard error) of a printed Monte Carlo estimate."""
    return float(fields["mc_mean"]), float(fields["sd"]) / math.sqrt(int(fields["trials"]))


def _log(p):
    """log p, with 0 where p is 0 (those entries only ever get zero weight)."""
    with np.errstate(divide="ignore"):
        return np.where(p > 0, np.log(np.where(p > 0, p, 1.0)), 0.0)


def _forward(model, x):
    """Scaled forward messages and log P(x)."""
    emit = model.emission.matrix[:, x].T
    alpha = np.empty_like(emit)
    scale = np.empty(len(x))
    a = model.initial * emit[0]
    for i in range(len(x)):
        if i:
            a = (alpha[i - 1] @ model.transition) * emit[i]
        scale[i] = a.sum()
        alpha[i] = a / scale[i]
    return alpha, scale, float(np.log(scale).sum())


def reference_evidence_kl(m1, m0, evidence) -> float:
    """KL divergence of the hidden-path posteriors given x, by forward-backward.

    KL = E1[log P1(S, x)] - log P1(x) - E1[log P0(S, x)] + log P0(x), with the
    expectations under the first model's posterior taken through its state
    marginals and expected transition counts.
    """
    x = evidence.symbols
    pi1 = m1.transition
    emit1 = m1.emission.matrix[:, x].T
    alpha, scale, log_z1 = _forward(m1, x)
    beta = np.ones_like(alpha)
    for i in range(len(x) - 2, -1, -1):
        beta[i] = pi1 @ (emit1[i + 1] * beta[i + 1]) / scale[i + 1]
    gamma = alpha * beta
    counts = np.zeros_like(pi1)
    for i in range(len(x) - 1):
        counts += alpha[i][:, None] * pi1 * (emit1[i + 1] * beta[i + 1])[None, :] / scale[i + 1]

    def expected_log_joint(model):
        emit = _log(model.emission.matrix)[:, x].T
        return gamma[0] @ _log(model.initial) + (counts * _log(model.transition)).sum() + (gamma * emit).sum()

    return float(expected_log_joint(m1) - log_z1 - expected_log_joint(m0) + _forward(m0, x)[2])


def reference_rate(m1, m0):
    """(nu, nu @ k) with nu from an eigenvector of the first transition matrix."""
    values, vectors = np.linalg.eig(m1.transition.T)
    nu = np.real(vectors[:, np.argmin(np.abs(values - 1.0))])
    nu = nu / nu.sum()
    with np.errstate(divide="ignore", invalid="ignore"):
        rows = np.where(m1.transition > 0, m1.transition * np.log(m1.transition / m0.transition), 0.0).sum(axis=1)
        e1, e0 = m1.emission.matrix, m0.emission.matrix
        per_state = np.where(e1 > 0, e1 * np.log(e1 / e0), 0.0).sum(axis=1)
    return nu, float(nu @ (rows + m1.transition @ per_state))


class Checker:
    """Checks the distinct jobs of one deck, with the deck's files in `work_dir`."""

    def __init__(self, work_dir):
        self.dir = Path(work_dir)

    def _text(self, name):
        return (self.dir / name).read_text(encoding="utf-8")

    def _pair(self, files, length=None):
        a, b = (load_model(self._text(f)) for f in files)
        if length is not None:
            a, b = a.with_length(length), b.with_length(length)
        return a, b

    def check(self, job, stdout, group_outputs) -> None:
        """Raise CheckError unless `stdout` is right for `job`.

        `group_outputs` maps the role of every job in a chain group to its
        output, for the cross-route comparisons.
        """
        spec = job["check"]
        getattr(self, "_" + spec["kind"].replace("-", "_"))(job, spec, stdout, group_outputs)

    def _exact_value(self, stdout, method):
        fields = _fields(stdout)
        if fields.get("method") != method:
            raise CheckError(f"method {fields.get('method')!r}, expected {method!r}")
        return float(fields["exact_kld"])

    def _tree_mc(self, job, spec, stdout, _):
        value = self._exact_value(stdout, "tree-recursion")
        a, b = self._pair(spec["files"])
        est = hmtkl.mc_kld_no_evidence(a, b, CHECK_TRIALS, 12345)
        _within(value, est.mean, est.sd / math.sqrt(CHECK_TRIALS), "tree exact vs Monte Carlo")

    def _closed_form(self, job, spec, stdout, _):
        value = self._exact_value(stdout, "closed-form")
        _close(value, hmtkl.kld_exact_tree(*self._pair(spec["files"])), "closed form vs inward recursion")

    def _chain(self, job, spec, stdout, group):
        role = spec["role"]
        if role in ("exact", "fast", "bound"):
            exact = self._exact_value(group["exact"], "closed-form")
            if role == "fast":
                method = "closed-form" if spec["periodic"] else "fast-path"
                _close(self._exact_value(stdout, method), exact, "--fast vs exact")
            elif role == "bound":
                _close(float(_fields(stdout)["do_bound"]), exact, "bound vs exact")
            return
        a, b = self._pair(spec["files"])
        fields = _fields(stdout)
        if role == "rate":
            nu, rate = reference_rate(a, b)
            _close(float(fields["rate"]), rate, "rate vs nu @ k")
            printed = np.array([float(v) for v in fields["nu"].split(",")])
            if np.abs(printed - nu).max() > 1e-6:
                raise CheckError(f"nu {fields['nu']} != {nu}")
            return
        evidence = load_evidence(self._text(job["argv"][job["argv"].index("--evidence") + 1]))
        self._evidence_value(a, b, evidence, float(fields["evidence_kld"]))

    def _evidence_value(self, a, b, evidence, value):
        if a.n_states**a.length <= ORACLE_LIMIT:
            _close(value, hmtkl.brute_force_kld_posterior(a, b, evidence), "evidence exact vs oracle")
        _close(value, reference_evidence_kl(a, b, evidence), "evidence exact vs forward-backward")

    def _mc_line(self, job, stdout):
        fields = _fields(stdout)
        argv = job["argv"]
        for key in ("trials", "seed"):
            if fields[key] != argv[argv.index("--" + key) + 1]:
                raise CheckError(f"printed {key}={fields[key]} does not match the command line")
        return _estimate(fields)

    def _mc_tree(self, job, spec, stdout, _):
        mean, se = self._mc_line(job, stdout)
        _within(hmtkl.kld_exact_tree(*self._pair(spec["files"])), mean, se, "joint Monte Carlo")

    def _mc_chain(self, job, spec, stdout, _):
        mean, se = self._mc_line(job, stdout)
        _within(hmtkl.kld_hmm_no_evidence(*self._pair(spec["files"])), mean, se, "chain Monte Carlo")

    def _mc_evidence(self, job, spec, stdout, _):
        mean, se = self._mc_line(job, stdout)
        argv = job["argv"]
        evidence = load_evidence(self._text(argv[argv.index("--evidence") + 1]))
        _within(hmtkl.kld_hmm_evidence(*self._pair(spec["files"]), evidence), mean, se, "evidence Monte Carlo")

    def _sweep(self, job, spec, stdout, _):
        rows = list(csv.DictReader(io.StringIO(stdout)))
        argv = job["argv"]
        n_min, n_max, step = (int(argv[argv.index(flag) + 1]) for flag in ("--n-min", "--n-max", "--step"))
        if [int(r["N"]) for r in rows] != list(range(n_min, n_max + 1, step)):
            raise CheckError("sweep rows do not cover the requested lengths")
        evidence = None
        if spec["evidence"]:
            evidence = load_evidence(self._text(argv[argv.index("--evidence") + 1]))
        for row in rows:
            n = int(row["N"])
            a, b = self._pair(spec["files"], n)
            if evidence is None:
                exact = hmtkl.do_bound(a, b)
            else:
                exact = reference_evidence_kl(a, b, evidence.truncated(n))
            _close(float(row["exact"]), exact, f"sweep exact at N={n}")
            _close(float(row["exact_per_n"]), exact / n, f"sweep exact/N at N={n}")
            _close(float(row["rate"]), reference_rate(a, b)[1], "sweep rate vs nu @ k")
            se = (float(row["ci_hi"]) - float(row["ci_lo"])) / (2 * 1.96)
            _within(exact, float(row["mc_mean"]), se, f"sweep Monte Carlo at N={n}")
        a, b = self._pair(spec["files"], int(rows[0]["N"]))
        if evidence is None:
            if (a.n_states * a.emission.n_symbols) ** a.length <= ORACLE_LIMIT:
                _close(float(rows[0]["exact"]), hmtkl.brute_force_kld_joint(a.as_tree(), b.as_tree()), "sweep vs joint oracle")
        else:
            self._evidence_value(a, b, evidence.truncated(a.length), float(rows[0]["exact"]))


def check_outputs(deck, stdout: dict[str, str], work_dir) -> dict[str, str]:
    """Check every job that ran; returns {job id: reason} for the wrong ones."""
    checker = Checker(work_dir)
    groups: dict[str, dict[str, str]] = {}
    for job in deck["jobs"]:
        if job["check"]["kind"] == "chain" and job["id"] in stdout:
            groups.setdefault(job["check"]["group"], {})[job["check"]["role"]] = stdout[job["id"]]
    failures = {}
    for job in deck["jobs"]:
        if job["id"] not in stdout:
            continue
        try:
            checker.check(job, stdout[job["id"]], groups.get(job["check"].get("group"), {}))
        except CheckError as exc:
            failures[job["id"]] = str(exc)
        except (KeyError, ValueError, IndexError) as exc:  # unparsable output
            failures[job["id"]] = f"cannot read output {stdout[job['id']]!r}: {exc!r}"
    return failures
