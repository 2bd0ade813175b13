"""Acceptance gate: one check line per criterion, seeded and pinned.

Run with ``pytest tests/test_acceptance.py -s`` to see the eleven
criterion lines; the same checks back ``ordtower verify all``.
"""

import subprocess
import sys

import pytest

from ordtower import VerifyConfig, run_suites

CMD = [sys.executable, "-m", "ordtower"]


@pytest.fixture(scope="module")
def results():
    out = run_suites(["tower", "family", "vc", "aa"], VerifyConfig(seed=1))
    return {r.name: r for r in out}


def report(idx, ok, text):
    print(f"ACCEPTANCE {idx:02d} {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, text


def passed(results, *names):
    bad = [results[n] for n in names if not results[n].passed]
    ok = not bad
    detail = "; ".join(results[n].detail for n in names)
    if bad:
        detail = "; ".join(r.line() for r in bad)
    return ok, detail


def test_criterion_01_tower_totality(results):
    ok, detail = passed(results, "tower-trichotomy-roundtrip")
    report(1, ok, f"tower totality and rank consistency: {detail}")


def test_criterion_02_vc_dimension_2(results):
    ok, detail = passed(results, "cond4-triples", "window-vc-dim")
    report(2, ok, f"dimension-2 law: {detail}")


def test_criterion_03_closure_soundness(results):
    ok, detail = passed(results, "closure-extend-sound", "closure-close-sound")
    report(3, ok, f"cofinality and closure soundness: {detail}")


def test_criterion_04_brute_oracles(results):
    ok, detail = passed(results, "closed-alltriples-oracle", "trace-brute-oracle")
    report(4, ok, f"independent oracle equivalence: {detail}")


def test_criterion_05_instability_ladder(results):
    ok, detail = passed(results, "ladder-biconditional")
    report(5, ok, f"instability ladder: {detail}")


def test_criterion_06_sauer_conformity(results):
    ok, detail = passed(results, "sauer-windows")
    report(6, ok, f"trace-count conformity: {detail}")


def test_criterion_07_section_sizes(results):
    ok, detail = passed(results, "section-size-identity")
    report(7, ok, f"section-size identity: {detail}")


def test_criterion_08_order_type(results):
    ok, detail = passed(results, "aa-order-type")
    report(8, ok, f"order type omega: {detail}")


def test_criterion_09_almost_agreement(results):
    ok, detail = passed(results, "aa-almost-agree")
    report(9, ok, f"almost-agreement certificates: {detail}")


def test_criterion_10_adjust_unit_law(results):
    ok, detail = passed(results, "adjust-unit-law")
    report(10, ok, f"adjustment unit law: {detail}")


def test_criterion_11_cli_determinism(results):
    # the fixture's run in this process and one CLI run in another
    run = subprocess.run(CMD + ["verify", "all", "--seed", "1"],
                         capture_output=True, timeout=300)
    here = "".join(r.line() + "\n" for r in results.values()).encode()
    same = run.stdout == here
    clean = run.returncode == 0
    lit_ok, lit_detail = passed(results, "ordinal-literal-roundtrip")
    ok = same and clean and lit_ok
    report(11, ok,
           f"verify all --seed 1 byte-identical in two processes and exit 0: "
           f"{same and clean}; {lit_detail}")
