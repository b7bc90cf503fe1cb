"""Acceptance suite: every check prints its `hkit verify` line and asserts at
its stated tolerance.  These call the same check functions the `hkit
verify` command runs, so the CLI and the test suite can never disagree.
"""
from __future__ import annotations

from hkit import checks


def _passes(check) -> None:
    r = check()
    print(r.line())
    assert r.passed, r.line()


def test_berry_limit_eigenphases():
    _passes(checks.check_berry_limit)


def test_invariant_solution_oracle():
    _passes(checks.check_invariant_oracle)


def test_spectral_oracle():
    _passes(checks.check_spectral_oracle)


def test_overlap_closed_form():
    _passes(checks.check_overlap_closed_form)


def test_gauge_invariance_of_reported_phases():
    _passes(checks.check_gauge_invariance)


def test_parallel_transport_residual_converges():
    _passes(checks.check_parallel_residual)


def test_abelian_to_nonabelian_witness_transition():
    _passes(checks.check_witness_transition)


def test_omega_perturbative_order():
    _passes(checks.check_omega_perturbative)


def test_two_route_equivalence():
    _passes(checks.check_two_route)


def test_wilczek_zee_holonomy():
    _passes(checks.check_wilczek_zee)


def test_noncyclic_abelian_consistency():
    _passes(checks.check_noncyclic_consistency)


def test_integrator_order():
    _passes(checks.check_rk4_order)
