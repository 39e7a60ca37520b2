"""Acceptance suite: one test per criterion, each printing a PASS line with
its elapsed time.  Run with `pytest tests/test_acceptance.py -v -s`.

Limits over infinite data (the headline orbit/anti-orbit numbers) are not
reproducible; these checks certify the finite statements: closed forms vs
definitional oracles, monotone hypotheses on ranges, family recurrences and
disjointness at depth, complete preimage enumeration, estimator behaviour,
topology lemma hypotheses, and byte-level report determinism.
"""
import io
import json
import random
import time
from fractions import Fraction

from arithdyn import arithfun as af
from arithdyn import cli
from arithdyn import dynamics as dy
from arithdyn import preimage as pre
from arithdyn import topology as tp
from arithdyn.factorint import DeferredValue, factored_range, primes_upto, to_integer
from definitional import oracle_evaluate
from helpers import evaluate_int


class Stopwatch:
    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.t0
        return False


def announce(criterion, message, elapsed=None):
    suffix = f" [{elapsed:.1f}s]" if elapsed is not None else ""
    print(f"\n[criterion {criterion}] PASS: {message}{suffix}")


def test_criterion_01_oracle_equivalence():
    # Jordan's tuple-counting oracle grows as n^k, so its ranges are cut:
    # k=1 to 500, k=2 to 200 (as stated), k=3 to 60.
    pairs = [
        (af.PHI, 500), (af.jordan(2), 200), (af.jordan(3), 60),
        (af.PSI, 500), (af.generalized_psi(2), 500), (af.generalized_psi(3), 500),
        (af.PHI_STAR, 500),
        (af.BIG_OMEGA, 500), (af.SMALL_OMEGA, 500),
        (af.D, 500), (af.divisor_count(3), 500),
        (af.sigma(1), 500), (af.sigma(2), 500), (af.sigma(3), 500),
    ]
    with Stopwatch() as sw:
        mismatches = []
        for f, hi in pairs:
            for n in range(1, hi + 1):
                if evaluate_int(f, n) != oracle_evaluate(f, n):
                    mismatches.append((str(f), n))
    assert mismatches == []
    assert sw.elapsed < 60
    announce(1, "eval == definitional oracle across all eight families "
                "(14 parameterizations), zero mismatches", sw.elapsed)


def test_criterion_02_psi_jordan_identity():
    with Stopwatch() as sw:
        for k in (1, 2, 3):
            rep = af.identity_check_psi_jordan(k, 10 ** 5)
            assert rep.passed, rep
    assert sw.elapsed < 30
    announce(2, "psi_k * J_k = J_2k for k in {1,2,3}, n <= 1e5", sw.elapsed)


def test_criterion_03_monotone_sweeps():
    with Stopwatch() as sw:
        results = af.catalogue_monotone_sweep(10 ** 6)
    violations = {k: v for k, v in results.items() if v is not None}
    assert violations == {}
    assert len(results) == 16  # 5 decreasing + 11 strictly-increasing checks
    assert sw.elapsed < 120
    announce(3, "all monotone hypotheses hold on n <= 1e6 "
                "(phi/phi*/Omega/omega/d below n; psi/J_2/sigma_k/psi_k/J_(k+2) "
                "strictly above)", sw.elapsed)


def test_criterion_04_antiorbit_certifications():
    jobs = [
        (dy.Scheme.PHI_ANTI, 20, 30, "a(phi) >= 20 certified at depth 30"),
        (dy.Scheme.D_ANTI, 5, 5, "a(d) >= 5 certified at depth 5"),
        (dy.Scheme.OMEGA_ANTI, 5, 5, "a(Omega) >= 5 certified at depth 5"),
        (dy.Scheme.SMALL_OMEGA_ANTI, 5, 6, "a(omega) >= 5 certified at depth 6"),
    ]
    for scheme, families, depth, want in jobs:
        with Stopwatch() as sw:
            rep = dy.verify_disjoint(dy.default_family_specs(scheme, families),
                                     depth)
        assert rep.passed, (scheme, rep.counterexample)
        assert rep.certified_bound == want
        assert sw.elapsed < 10, (scheme, sw.elapsed)
    # the Omega tower is handled exactly: depth 5 ends at the value 2^65536,
    # and the depth-6 term carries 2^65536 as exponent, kept as a link to
    # term 5
    t5 = dy.family_terms(dy.FamilySpec(dy.Scheme.OMEGA_ANTI, 1), 5)[-1]
    assert to_integer(t5) == 2 ** 65536
    *_, t5, t6 = dy.family_terms(dy.FamilySpec(dy.Scheme.OMEGA_ANTI, 1), 6)
    exponent = dict(t6.explicit)[2]
    assert exponent == DeferredValue(t5, 0)
    assert exponent.resolve() == 2 ** 65536
    announce(4, "anti-orbit certifications: phi 20x30, d 5x5, Omega 5x5 "
                "(2^65536 exact), omega 5x6 via interval factors")


def test_criterion_05_orbit_certifications():
    with Stopwatch() as sw:
        for scheme, name in ((dy.Scheme.PSI_ORBIT, "psi"), (dy.Scheme.J2_ORBIT, "J_2")):
            rep = dy.verify_disjoint(dy.default_family_specs(scheme, 20), 30)
            assert rep.passed, rep.counterexample
            assert rep.certified_bound == f"o({name}) >= 20 certified at depth 30"
    assert sw.elapsed < 10
    announce(5, "orbit certifications: o(psi) >= 20 and o(J_2) >= 20 at depth 30",
             sw.elapsed)


def test_criterion_06_generic_note_subsumption():
    with Stopwatch() as sw:
        for gspec, scheme in ((dy.psi_generic_spec(5), dy.Scheme.PSI_ORBIT),
                              (dy.j2_generic_spec(5), dy.Scheme.J2_ORBIT)):
            generic, rep = dy.generic_family_terms(gspec, 20)
            assert rep.passed and len(generic) == 5
            for fam, terms in enumerate(generic, start=1):
                builtin = dy.family_terms(dy.FamilySpec(scheme, fam), 20)
                assert terms == builtin, (scheme, fam)
    announce(6, "generic multiplicative construction reproduces the psi and "
                "J_2 families exactly (5 families x depth 20)", sw.elapsed)


def test_criterion_07_inverse_totient():
    with Stopwatch() as sw:
        table = af.value_table(af.PHI, 10 ** 5)
        fibres = {}
        for x in range(1, 10 ** 5 + 1):
            fibres.setdefault(table[x], []).append(x)
        for m in range(1, 2001):
            assert pre.inverse_phi(m).members == tuple(fibres.get(m, [])), m
        assert pre.inverse_phi(1).members == (1, 2)
        assert pre.inverse_phi(4).members == (5, 8, 10, 12)
        for m in range(1, 51):
            cert = to_integer(pre.phi_bound(m))
            assert all(x <= cert for x in pre.inverse_phi(m).members)
    assert sw.elapsed < 60
    announce(7, "inverse_phi(m) == brute-force fibre for m <= 2000; members "
                "inside the containment certificate for m <= 50", sw.elapsed)


def test_criterion_08_nonfinite_fibre_witnesses():
    with Stopwatch() as sw:
        witnesses = pre.nonfinite_fibre_witness(af.SMALL_OMEGA, 1, 10 ** 4)
        for p in witnesses:
            pps = [(p, 1)]
            assert af.scalar_value(af.SMALL_OMEGA, pps) == 1
            assert af.scalar_value(af.BIG_OMEGA, pps) == 1
            assert af.scalar_value(af.D, pps) == 2
        # the Omega fibre over 1 inside 1..1e6, counted from factorizations,
        # must agree with the sieve's own prime count
        count = sum(1 for _, pps in factored_range(10 ** 6)
                    if af.scalar_value(af.BIG_OMEGA, pps) == 1)
        sieve_count = len(primes_upto(10 ** 6))
        assert count == sieve_count == 78498
    announce(8, "first 1e4 primes sit in omega^-1(1), Omega^-1(1), d^-1(2); "
                "#(Omega^-1(1) up to 1e6) == sieve prime count 78498", sw.elapsed)


def test_criterion_09_entropy_estimators():
    with Stopwatch() as sw:
        rng = random.Random(0)
        for _ in range(10):
            size = rng.randint(1, 100)
            seeds = rng.sample(range(1, 101), size)
            est = dy.ent_set_estimate(af.PHI, seeds, 10 ** 4)
            assert est.value <= Fraction(1, 50), est  # 0.02
        seeds = [3 ** k * 2 for k in range(1, 6)]
        est = dy.ent_set_estimate(af.PSI, seeds, 500)
        assert abs(est.value - 5) <= Fraction(1, 10)
    announce(9, "ent_set(phi, A, 1e4) <= 0.02 for 10 seeded random A within "
                "1..100; ent_set(psi, five 3^k*2 seeds, 500) = "
                f"{float(est.value)} within 0.1 of 5", sw.elapsed)


def test_criterion_10_topology():
    with Stopwatch() as sw:
        rep = tp.contains_one_forward(af.PHI, 10 ** 5)
        assert rep.passed
        rep = tp.verify_taubar_subset(af.PHI, 10 ** 4)
        assert rep.passed
        for name in ("psi", "psi_2", "J_2", "J_3", "sigma_1", "sigma_2"):
            rep = tp.separation_check(af.parse_function(name), 10 ** 5)
            assert rep.passed, name
        rep = tp.separation_check(af.PHI, 10 ** 5)
        assert not rep.passed
        # the least hypothesis violation is phi(2) = 1 < 2; phi(3) = 2 < 3
        # is the next one (the catalogued witness statement checks both)
        assert rep.counterexample.position == 2
        assert evaluate_int(af.PHI, 3) == 2 < 3
        rep = tp.verify_tau_subset(af.PSI, 10 ** 4)
        assert rep.passed
        res = tp.partition_map(tp.residue_partition(2), 10 ** 3)
        assert len(res.components) == 2
        assert res.report.passed
    announce(10, "forward connectivity of phi to 1e5, minimal-open-set "
                 "containments to 1e4, six separation PASSes at 1e5, the phi "
                 "separation counterexample, and the odds/evens partition",
             sw.elapsed)


def test_criterion_11_report_determinism():
    def render():
        buf = io.StringIO()
        code = cli.run(["table", "orbit-numbers", "--no-timestamp",
                        "--format", "json"], out=buf)
        assert code == 0
        return buf.getvalue().encode()

    with Stopwatch() as sw:
        first, second = render(), render()
    assert first == second
    doc = json.loads(first)
    assert doc["status"] == "PASS"
    assert "timestamp" not in doc
    announce(11, "two runs of `table orbit-numbers --no-timestamp` are "
                 "byte-identical JSON", sw.elapsed)
