"""Command-line front end.

Subcommands
-----------
validate        check model files and print the violation report
exact           exact divergence between two model files
rate            per-symbol divergence rate and stationary law
bound           the decomposition-based bound (equal to the exact value)
evidence-exact  exact divergence between hidden-path posteriors given evidence
mc              Monte Carlo estimate (joint, or posterior with --evidence)
sweep           CSV over a range of chain lengths, exact vs Monte Carlo

Exit codes: 0 success; 2 model, validation or usage error (such as an option
the subcommand does not take) or an allocation the machine cannot make; 3
mathematical precondition failure or overflow.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import math
import sys

from .errors import ModelError, ModelValidationError, PreconditionError, SpectralError
from .hmm import _chain_closed_form, _fast_fallback, _kld_hmm_spectral, _rate_at, kld_hmm_evidence, kld_hmm_no_evidence, kld_rate, do_bound, stationary_distribution
from .model import HmmModel, HmtModel, check_pair, load_evidence, load_model
from .montecarlo import mc_kld_evidence, mc_kld_no_evidence
from .tree import kld_exact_tree, kld_homogeneous_tree


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise ModelError(f"cannot read {path}: {exc}") from exc


def _open_out(path):
    """`path` opened for writing, or stdout (left open) when no path is given."""
    if path is None:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, "w", newline="", encoding="utf-8")
    except OSError as exc:
        raise ModelError(f"cannot write {path}: {exc}") from exc


def _load_pair(args):
    m_a, m_b = load_model(_read(args.model_a)), load_model(_read(args.model_b))
    if getattr(args, "n", None) is not None:  # sweep takes no --n: each row sets its own length
        if not isinstance(m_a, HmmModel) or not isinstance(m_b, HmmModel):
            raise ModelError("--n overrides the length of hmm model files only")
        m_a, m_b = m_a.with_length(args.n), m_b.with_length(args.n)
    return m_a, m_b


def _load_hmm_pair(args):
    m_a, m_b = _load_pair(args)
    if not isinstance(m_a, HmmModel) or not isinstance(m_b, HmmModel):
        raise ModelError("this command requires two hmm model files")
    return m_a, m_b


def _load_evidence_file(args):
    if not args.evidence:
        raise ModelError("this command requires --evidence")
    return load_evidence(_read(args.evidence))


def cmd_validate(args) -> int:
    status = 0
    for path in [args.model_a] + ([args.model_b] if args.model_b else []):
        try:
            load_model(_read(path))
        except ModelError as exc:
            for line in getattr(exc, "report", [str(exc)]):
                print(f"{path}: {line}")
            status = 2
        else:
            print(f"{path}: ok")
    return status


def cmd_exact(args) -> int:
    m_a, m_b = _load_pair(args)
    if isinstance(m_a, HmmModel) and isinstance(m_b, HmmModel):
        method = "closed-form"
        if args.fast:
            try:
                value = _kld_hmm_spectral(m_a, m_b)
                method = "fast-path"
            except SpectralError as exc:
                print(f"note: {_fast_fallback(exc)}", file=sys.stderr)
                value = _chain_closed_form(m_a, *exc.terms)
        else:
            value = kld_hmm_no_evidence(m_a, m_b)
    elif isinstance(m_a, HmtModel) and isinstance(m_b, HmtModel):
        if m_a.homogeneous and m_b.homogeneous and (m_a.topology.regular_arity or m_a.topology.depth == 1):
            value = kld_homogeneous_tree(m_a, m_b)
            method = "closed-form"
        else:
            value = kld_exact_tree(m_a, m_b)
            method = "tree-recursion"
    else:
        raise ModelError("model files have different types (hmm vs hmt)")
    print(f"exact_kld={_fmt(value)} method={method}")
    return 0


def cmd_rate(args) -> int:
    m_a, m_b = _load_hmm_pair(args)
    check_pair(m_a, m_b)
    nu = stationary_distribution(m_a.transition)
    rate = _rate_at(nu, m_a, m_b)
    print(f"nu={','.join(f'{v:.6f}' for v in nu)} rate={_fmt(rate)}")
    return 0


def cmd_bound(args) -> int:
    m_a, m_b = _load_hmm_pair(args)
    print(f"do_bound={_fmt(do_bound(m_a, m_b))}")
    return 0


def cmd_evidence_exact(args) -> int:
    m_a, m_b = _load_hmm_pair(args)
    value = kld_hmm_evidence(m_a, m_b, _load_evidence_file(args))
    print(f"evidence_kld={_fmt(value)}")
    return 0


def _print_estimate(est) -> None:
    # an infinite trial leaves `est.sd` NaN; the spread it stands for is unbounded
    sd = math.inf if est.infinite_trials else est.sd
    line = (
        f"mc_mean={_fmt(est.mean)} sd={_fmt(sd)} ci_lo={_fmt(est.ci_lo)} "
        f"ci_hi={_fmt(est.ci_hi)} trials={est.trials} seed={est.seed}"
    )
    if est.infinite_trials:
        line += f" infinite_trials={est.infinite_trials}"
    print(line)


def cmd_mc(args) -> int:
    if args.evidence:
        m_a, m_b = _load_hmm_pair(args)
        est = mc_kld_evidence(m_a, m_b, _load_evidence_file(args), args.trials, args.seed)
    else:
        m_a, m_b = (m.as_tree() if isinstance(m, HmmModel) else m for m in _load_pair(args))
        est = mc_kld_no_evidence(m_a, m_b, args.trials, args.seed)
    _print_estimate(est)
    return 0


def cmd_sweep(args) -> int:
    m_a, m_b = _load_hmm_pair(args)
    if not (1 <= args.n_min <= args.n_max):
        raise ModelError(f"sweep bounds must satisfy 1 <= n_min <= n_max, got {args.n_min}..{args.n_max}")
    if args.step < 1:
        raise ModelError(f"sweep step must be >= 1, got {args.step}")
    evidence = load_evidence(_read(args.evidence)) if args.evidence else None
    if evidence is not None and len(evidence) < args.n_max:
        raise ModelError(f"evidence has {len(evidence)} symbols, sweep needs {args.n_max}")
    with _open_out(args.out) as handle:  # an unwritable --out fails before any row is computed
        try:
            rate = _fmt(kld_rate(m_a, m_b))
        except PreconditionError:  # no unique stationary law: the field stays empty
            rate = ""

        rows = []
        for n in range(args.n_min, args.n_max + 1, args.step):
            a, b = m_a.with_length(n), m_b.with_length(n)
            if evidence is None:
                exact = kld_hmm_no_evidence(a, b)
                est = mc_kld_no_evidence(a.as_tree(), b.as_tree(), args.trials, args.seed)
            else:
                ev = evidence.truncated(n)
                exact = kld_hmm_evidence(a, b, ev)
                est = mc_kld_evidence(a, b, ev, args.trials, args.seed)
            rows.append(
                [n, _fmt(exact), _fmt(exact / n), rate, _fmt(est.mean), _fmt(est.ci_lo), _fmt(est.ci_hi), est.trials, est.seed]
            )

        writer = csv.writer(handle)
        writer.writerow(["N", "exact", "exact_per_n", "rate", "mc_mean", "ci_lo", "ci_hi", "trials", "seed"])
        writer.writerows(rows)
    return 0


#: Options beyond the model files, each declared only by the subcommands that read it.
_OPTIONS = {
    "--evidence": {"metavar": "PATH"},
    "--n": {"type": int},
    "--n-min": {"type": int, "default": 1},
    "--n-max": {"type": int, "default": 1},
    "--step": {"type": int, "default": 1},
    "--trials": {"type": int, "default": 1000},
    "--seed": {"type": int, "default": 0},
    "--out": {"metavar": "PATH"},
    "--fast": {"action": "store_true"},
}


def build_parser() -> argparse.ArgumentParser:
    return _build_parsers()[0]


def _build_parsers():
    """The whole parser, and each subcommand's own parser by name."""
    parser = argparse.ArgumentParser(prog="hmtkl", description="Exact and Monte Carlo KL divergence for hidden Markov trees and chains.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, *options, model_b_required=True):
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        p.add_argument("--model-a", required=True, metavar="PATH")
        p.add_argument("--model-b", required=model_b_required, metavar="PATH")
        for option in options:
            p.add_argument(option, **_OPTIONS[option])
        p.set_defaults(func=func)

    add("validate", cmd_validate, "check model files against the format invariants", model_b_required=False)
    add("exact", cmd_exact, "exact KL divergence between two models", "--n", "--fast")
    add("rate", cmd_rate, "KL divergence rate and stationary distribution", "--n")
    add("bound", cmd_bound, "decomposition bound (equals the exact divergence)", "--n")
    add("evidence-exact", cmd_evidence_exact, "exact divergence of hidden-path posteriors given evidence", "--n", "--evidence")
    add("mc", cmd_mc, "Monte Carlo estimate with a 95%% confidence interval", "--n", "--evidence", "--trials", "--seed")
    add("sweep", cmd_sweep, "CSV sweep over chain lengths", "--evidence", "--n-min", "--n-max", "--step", "--trials", "--seed", "--out")
    return parser, sub.choices


@functools.cache
def _parsers():
    """The parsers `main` uses, built once per process; parsing leaves them unchanged."""
    return _build_parsers()


def _parse_args(argv) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, with a command line that starts
    with a subcommand parsed by that subcommand's parser alone.

    The whole parser hands such a line, past the subcommand, to the same
    parser and copies its namespace after ``command``, so the result is the
    same.  When anything is left over, or the first word names no
    subcommand, the whole parser parses the line again, and every usage
    line, error message and exit code comes from it.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, subcommands = _parsers()
    sub = subcommands.get(argv[0]) if argv else None
    if sub is not None:
        args, rest = sub.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if not rest:
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    """Run one command line (``sys.argv[1:]`` by default) and return its exit code.

    The line is parsed by its subcommand's own parser when it starts with
    one and that parser takes all of it (`_parse_args`); otherwise by the
    whole parser, whose usage and error lines are argparse's own.
    """
    args = _parse_args(argv)
    try:
        return args.func(args)
    except ModelValidationError as exc:
        for line in exc.report:
            print(line, file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(str(exc), file=sys.stderr)
        return 3
    except OverflowError as exc:
        print(str(exc), file=sys.stderr)
        return 3
    except (ModelError, ValueError, MemoryError) as exc:
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
