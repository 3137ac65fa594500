"""The work of one benchmark pass, run inside bench/worker.py.

A library pass builds its job list from the seed, runs every job in a timed
loop, then checks every output outside the timed loop.  A CLI pass runs
`narayana.cli.main`.  Both sample the machine's speed while they run
(speed.Sampler) and end with one JSON report line on standard error.  A
traced pass does the same with layers.Tracer installed and adds the
per-layer metrics to the report.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction

from narayana import combinat, identities
from narayana.exact_core import QPolynomial

from layers import Census, Tracer, install, layer_metrics, results_made
from speed import Sampler

# Sizes: each pass takes about a second on the seed commit (see README.md).
SWEEP_MAX_N = 16
LEMMA_MAX_N = 8
INVERSE_SEQUENCES = 8  # of each kind: scalar and polynomial
SCALAR_LENGTH = 40
POLY_LENGTH = 20
POLY_DEGREE = 5
MAX_DENOMINATOR = 9  # small denominators keep the cost of one job steady across seeds
LEFT_INVERSION_SP = ((1, 0), (2, 1), (3, 2))  # (s, p), cycled over the jobs
INVOLUTION_MAX_N = {"D": 5, "P": 6, "Q": 4}
DBAR_MAX_N = 6
WEIGHT_MAX_N = {"D": 6, "P": 7, "Q": 6}
CERTIFICATES = frozenset(
    ("multiset_closure", "self_inverse", "weight_reversal", "fixed_set_match",
     "total_weight")
)


def _by_size(jobs, rng):
    """Jobs in ascending n, in seeded random order within each n."""
    return sorted(jobs, key=lambda job: (job[-1], rng.random()))


def _proper_fraction(rng):
    d = rng.randint(2, MAX_DENOMINATOR)
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, d - 1), d)


def make_jobs(workload, seed):
    rng = random.Random(seed)
    if workload == "identity_sweep":
        jobs = [
            ("identity", tag, n)
            for tag in identities.IDENTITY_TAGS
            for n in range(identities.identity_min_n(tag), SWEEP_MAX_N + 1)
        ]
        jobs += [("integral", None, n) for n in range(1, SWEEP_MAX_N + 1)]
        jobs += [("lemma", None, n) for n in range(LEMMA_MAX_N + 1)]
        return _by_size(jobs, rng)
    if workload == "rational_inverse":
        jobs = []
        for i in range(2 * INVERSE_SEQUENCES):
            if i % 2 == 0:
                seq = [_proper_fraction(rng) for _ in range(SCALAR_LENGTH)]
            else:
                seq = [
                    QPolynomial([_proper_fraction(rng) for _ in range(POLY_DEGREE + 1)], "q")
                    for _ in range(POLY_LENGTH)
                ]
            jobs.append(("inverse", LEFT_INVERSION_SP[i % len(LEFT_INVERSION_SP)], seq))
        return jobs
    if workload == "involution_certify":
        jobs = [
            ("involution", family, n)
            for family, cap in INVOLUTION_MAX_N.items()
            for n in range(1, cap + 1)
        ]
        jobs += [("dbar", None, n) for n in range(1, DBAR_MAX_N + 1)]
        jobs += [
            ("weight", family, n)
            for family, cap in WEIGHT_MAX_N.items()
            for n in range(1, cap + 1)
        ]
        return _by_size(jobs, rng)
    raise ValueError(f"unknown library workload {workload!r}")


def _round_trips(seq, s, p):
    """Each inverse pair applied forward then backward: (forward, back) pairs."""
    pairs = []
    for relation in (identities.legendre_inverse, identities.binomial_inverse):
        forward = relation("forward", seq)
        pairs.append((forward, relation("backward", forward)))
    forward = identities.left_inversion_forward(s, p, seq, s * (len(seq) - 1) + 1)
    pairs.append((forward, identities.left_inversion(s, p, forward)))
    return pairs


def run_job(job):
    kind, arg, n = job
    if kind == "identity":
        return identities.check_identity(arg, n)
    if kind == "integral":
        return identities.integral_representation_check(n)
    if kind == "lemma":
        return identities.lemma_difference_argument(n)
    if kind == "inverse":
        return _round_trips(n, *arg)
    if kind == "involution":
        return combinat.involution_verify(arg, n)
    if kind == "dbar":
        return combinat.dbar_involution_check(n)
    if kind == "weight":
        weight = getattr(combinat, f"family_{arg}_weight")
        closed = getattr(combinat, f"family_{arg}_closed_form")
        return [(weight(n, k), closed(n, k)) for k in range(n + 1)]
    raise ValueError(f"unknown job kind {kind!r}")


def check_job(job, out, census):
    """(checks attempted, failure messages) for one job's output; every value
    also goes through the exactness census."""
    kind, arg, n = job
    label = f"{kind} {arg} n={n}" if kind != "inverse" else f"inverse s,p={arg}"
    if kind in ("identity", "integral"):
        exact = census.exact(out.lhs) & census.exact(out.rhs)
        ok = out.equal and exact
        return 1, [] if ok else [f"{label}: equal={out.equal} exact={exact}"]
    if kind == "lemma":
        return 1, [] if out is True else [f"{label}: returned {out!r}"]
    if kind == "inverse":
        expected = [x if isinstance(x, QPolynomial) else QPolynomial.constant(x) for x in n]
        failures = []
        for relation, (forward, back) in zip(("legendre", "binomial", "left"), out):
            exact = census.exact(forward) & census.exact(back)
            if back != expected or not exact:
                failures.append(f"{label} {relation}: round trip exact={exact}")
        return len(out), failures
    if kind in ("involution", "dbar"):
        exact = census.exact(out.total_weight) & census.exact(out.fixed_weight)
        ok = set(out.certificates) == CERTIFICATES and out.certified and exact
        return 1, [] if ok else [f"{label}: {out.certificates} exact={exact}"]
    if kind == "weight":
        failures = [
            f"{label} k={k}: enumerated weight differs from the closed form"
            for k, (weight, closed) in enumerate(out)
            if not (census.exact(weight) & census.exact(closed)) or weight != closed
        ]
        return len(out), failures
    raise ValueError(f"unknown job kind {kind!r}")


REPORT_PREFIX = "bench-report "  # run.py looks for this prefix on stderr


def _report(report):
    sys.stderr.write(REPORT_PREFIX + json.dumps(report) + "\n")


def library_pass(workload, seed, traced, setup_s):
    """Run one pass and write its report: set-up as measured; the pass and the
    time from its start to the first answer, scaled to the reference speed
    (speed.py) with the speed itself; the checks; and, when traced, the
    per-layer metrics."""
    jobs = make_jobs(workload, seed)
    sampler = Sampler()
    if traced:
        tracer = Tracer(sampler.clock)
        originals = install(tracer)
    outputs = []
    with sampler:
        t0 = sampler.clock()
        for job in jobs:
            outputs.append(run_job(job))
            if len(outputs) == 1:
                first = sampler.clock()
        pass_s = sampler.clock() - t0
    speed = sampler.speed()
    if traced:
        spans = tracer.snapshot(speed)  # the checks below are not part of the pass

    census = Census()
    attempted, failures = 0, []
    for job, out in zip(jobs, outputs):
        n_checks, job_failures = check_job(job, out, census)
        attempted += n_checks
        failures += job_failures
    report = {"setup_s": setup_s, "pass_s": pass_s * speed, "first_s": (first - t0) * speed,
              "speed": speed, "attempted": attempted, "failures": failures}
    if traced:
        elements = sum(out.size for job, out in zip(jobs, outputs)
                       if job[0] in ("involution", "dbar"))
        report["metrics"] = layer_metrics(spans, originals, census, elements)
    _report(report)
    return 0


class _FirstWrite:
    """Standard output that notes the clock at its first write."""

    def __init__(self, stream, clock):
        self._stream, self._clock, self.at = stream, clock, None

    def write(self, text):
        if self.at is None:
            self.at = self._clock()
        return self._stream.write(text)

    def __getattr__(self, name):
        return getattr(self._stream, name)


def cli_pass(argv, traced, setup_s):
    """Run `narayana <argv>` in this process, as the console script does.

    Standard output is the CLI's own, byte for byte; the report goes to
    standard error.  The first answer is the first write to standard output."""
    from narayana import cli

    sampler = Sampler()
    if traced:
        tracer = Tracer(sampler.clock)
        originals = install(tracer)
        results = []
        buffered = []

        def emit(result, fmt):
            if not buffered:
                buffered.append(results_made(tracer))
            results.append(result)
            return emit_check(result, fmt)

        emit_check = cli._emit_check
        cli._emit_check = tracer.wrap(emit, "cli.emit")
        cli._cmd_verify = tracer.wrap(cli._cmd_verify, "cli.verify")
        cli.build_parser = tracer.wrap(cli.build_parser, "cli.parse")
        argparse.ArgumentParser.parse_args = tracer.wrap(
            argparse.ArgumentParser.parse_args, "cli.parse")

    stdout = sys.stdout = _FirstWrite(sys.stdout, sampler.clock)
    with sampler:
        t0 = sampler.clock()
        code = cli.main(argv)
        stdout.flush()
        end = sampler.clock()
    sys.stdout = sys.__stdout__
    speed = sampler.speed()
    first = stdout.at if stdout.at is not None else end
    report = {"setup_s": setup_s, "pass_s": (end - t0) * speed, "first_s": (first - t0) * speed,
              "speed": speed, "attempted": 0, "failures": []}
    if traced:
        spans = tracer.snapshot(speed)
        census = Census()
        for result in results:
            census.exact(result.lhs)
            census.exact(result.rhs)
        cli_spans = {
            "parse.s": spans.total_s("cli.parse"),
            "compute.s": spans.total_s("cli.verify") - spans.total_s("cli.emit"),
            "emit.s": spans.total_s("cli.emit"),
            "results_buffered": buffered[0] if buffered else 0,
        }
        report["attempted"] = 1
        if census.inexact:
            report["failures"] = [f"{census.inexact} coefficients are not int or Fraction"]
        report["metrics"] = layer_metrics(spans, originals, census, 0, cli_spans)
    _report(report)
    return code
