"""Acceptance suite: one test per release criterion.

Each test prints a single pass/fail line (run pytest with -s to see
them all) and enforces its runtime budget with a wall-clock check.
"""

import json
import random
import time
from pathlib import Path

import numpy as np
import pytest

from resposet import (
    ResiduatedStructure,
    boolean_residuation,
    chain_residuation,
    check_integrality,
    check_lemma1,
    check_pseudo_kleene,
    derived_negation,
    extend_boolean_theorem5,
    extend_theorem1,
    extend_theorem2,
    extend_theorem3,
    find_residuations,
    find_residuations_naive,
    involuted,
    replay_check,
    structural_equal,
    verify_residuated,
)
from resposet.cli import main
from resposet.fixtures import chain_involuted, cube_boolean, letter_cube_boolean
from resposet.order import poset_from_covers

GOLDENS = Path(__file__).parent / "goldens"


def report(num, label, ok):
    print(f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({label}) failed"


def run_cli(argv, tmp_path, name):
    out = tmp_path / name
    code = main(argv + ["-o", str(out)])
    assert code == 0
    return out.read_bytes()


class TestAcceptance:
    def test_criterion_1_seven_element_tables(self, tmp_path):
        start = time.perf_counter()
        got = run_cli(
            ["extend", "thm1", "-i", "builtin:n5", "--mode", "reusebounds", "--format", "text"],
            tmp_path,
            "pentagon7.txt",
        )
        elapsed = time.perf_counter() - start
        ok = got == (GOLDENS / "pentagon7_tables.txt").read_bytes() and elapsed < 1.0
        report(1, "7x7 pentagon extension tables", ok)

    def test_criterion_2_five_chain_tables(self, tmp_path):
        start = time.perf_counter()
        got = run_cli(
            ["extend", "cor1", "--n", "5", "--format", "text"], tmp_path, "chain5.txt"
        )
        elapsed = time.perf_counter() - start
        ok = got == (GOLDENS / "chain5_tables.txt").read_bytes() and elapsed < 1.0
        report(2, "5x5 chain tables", ok)

    def test_criterion_3_boolean_extension_tables(self, tmp_path):
        start = time.perf_counter()
        got = run_cli(
            ["extend", "thm5", "-i", "builtin:cube8", "--n", "2", "--format", "text"],
            tmp_path,
            "cube12.txt",
        )
        elapsed = time.perf_counter() - start
        ok = got == (GOLDENS / "cube12_tables.txt").read_bytes() and elapsed < 1.0
        report(3, "12x12 Boolean extension tables", ok)

    def test_criterion_4_pentagon_impossibility(self, involuted_corpus):
        from resposet.fixtures import n5_involuted

        start = time.perf_counter()
        outcome = find_residuations(n5_involuted(), require_negation=True)
        elapsed = time.perf_counter() - start
        ok = not outcome.satisfiable and elapsed < 10.0
        # the pruned miner must agree with the oracle on every small carrier
        for ip in involuted_corpus:
            if len(ip.poset) > 4:
                continue
            bottom, top = ip.poset.bounds()
            if top is None or bottom is None:
                continue
            fast = find_residuations(ip, limit=10**6)
            slow = find_residuations_naive(ip)
            if len(fast.structures) != len(slow.structures) or any(
                a != b for a, b in zip(fast.structures, slow.structures)
            ):
                ok = False
                break
        report(4, "pentagon unsatisfiable + oracle agreement", ok)

    def test_criterion_5_construction_soundness(self, involuted_corpus, small_posets):
        start = time.perf_counter()

        def sound(result):
            s = result.structure
            return (
                verify_residuated(s).overall
                and check_lemma1(s).overall
                and check_integrality(s).overall
                and derived_negation(s) == result.involution.mapping
            )

        ok = True
        for ip in involuted_corpus:
            ok = ok and sound(extend_theorem1(ip))
            for n in (2, 3):
                ok = ok and sound(extend_theorem2(ip, n))
        for n in range(3, 11):
            ok = ok and sound(chain_residuation(n))
        for k in (1, 2, 3, 4):
            B = cube_boolean(k)
            s = boolean_residuation(B)
            ok = ok and verify_residuated(s).overall and check_lemma1(s).overall
            for n in (1, 2, 3):
                ok = ok and sound(extend_boolean_theorem5(B, n))
        for p in small_posets:
            for n in (2, 3):
                for k in (0, 1, 2):
                    ok = ok and sound(extend_theorem3(p, n, k))
        elapsed = time.perf_counter() - start
        ok = ok and elapsed < 120.0
        report(5, f"construction soundness over the corpus ({elapsed:.1f}s)", ok)

    def test_criterion_6_cross_construction_coherence(self, involuted_corpus):
        ok = True
        for ip in involuted_corpus:
            a = extend_theorem2(ip, 2).structure
            b = extend_theorem1(ip).structure
            ok = ok and a == b
        empty = involuted(poset_from_covers([], []), {})
        ok = ok and structural_equal(
            chain_residuation(4).structure, extend_theorem1(empty).structure
        )
        report(6, "cross-construction coherence", ok)

    def test_criterion_7_kleene_preservation(self, involuted_corpus):
        from resposet.fixtures import (
            kleene_six_involuted,
            n5_involuted,
            pseudo_kleene_nine_involuted,
        )

        six = check_pseudo_kleene(*_pair(kleene_six_involuted()))
        nine = check_pseudo_kleene(*_pair(pseudo_kleene_nine_involuted()))
        pent = check_pseudo_kleene(*_pair(n5_involuted()))
        ok = six.kleene and nine.pseudo_kleene and not nine.kleene and not pent.pseudo_kleene
        for ip in involuted_corpus:
            if not ip.poset.is_lattice():
                continue
            before = check_pseudo_kleene(ip.poset, ip.involution)
            if not before.pseudo_kleene:
                continue
            res = extend_theorem1(ip)
            ext_inv = {x: res.involution(x) for x in res.structure.elements}
            after = check_pseudo_kleene(res.structure.poset, ext_inv)
            ok = ok and after.pseudo_kleene
            if before.kleene:
                ok = ok and after.kleene
        report(7, "Kleene classification and preservation", ok)

    def test_criterion_8_boolean_restriction_law(self):
        ok = True
        for k in (1, 2, 3, 4):
            B = cube_boolean(k) if k != 3 else letter_cube_boolean()
            L, comp = B.lattice, B.complement
            for n in (1, 2, 3):
                s = extend_boolean_theorem5(B, n).structure
                for x in B.elements:
                    for y in B.elements:
                        meet = L.meet(x, y)
                        want = "#c1" if meet == B.bottom else meet
                        ok = ok and s.odot_of(x, y) == want
                        join = L.join(comp(x), y)
                        want = f"#c{2 * n}" if join == B.top else join
                        ok = ok and s.arrow_of(x, y) == want
        report(8, "Boolean restriction law", ok)

    def test_criterion_9_fault_injection(self):
        rng = random.Random(20250825)
        pool = [
            extend_theorem1(chain_involuted(3)).structure,
            chain_residuation(6).structure,
            extend_boolean_theorem5(cube_boolean(2), 1).structure,
        ]
        ok = True
        trials = 120
        for _ in range(trials):
            s = rng.choice(pool)
            which = rng.choice(["odot", "arrow"])
            els = s.elements
            x, y = rng.choice(els), rng.choice(els)
            i, j = s.poset.index(x), s.poset.index(y)
            old = getattr(s, which)[i, j]
            new = rng.choice([v for v in range(len(els)) if v != old])
            table = np.array(getattr(s, which))
            table[i, j] = new
            odot = table if which == "odot" else np.array(s.odot)
            arrow = table if which == "arrow" else np.array(s.arrow)
            bad = ResiduatedStructure(s.poset, s.unit, odot, arrow)
            failures = (
                verify_residuated(bad).failed()
                + check_lemma1(bad).failed()
                + check_integrality(bad).failed()
            )
            detected = bool(failures) and all(
                not replay_check(bad, c.name, c.witness) for c in failures
            )
            ok = ok and detected
        report(9, f"fault injection ({trials} corruptions)", ok)


def _pair(ip):
    return ip.poset, ip.involution


# Byte-equal tables of constructions that the criteria above do not pin:
# Theorem 2 with n = 3, Theorem 3 with a middle chain, Theorem 1 reusing
# the input's own 4-chain frame.
TWO_CHAIN = {"elements": ["u", "v"], "covers": [["u", "v"]]}


@pytest.mark.parametrize(
    "argv, golden",
    [
        (["extend", "thm2", "-i", "builtin:n5", "--n", "3"], "pentagon11_tables.txt"),
        (["extend", "thm3", "-i", "twochain.json", "--n", "2", "--k", "1"], "twochain9_tables.txt"),
        (["extend", "thm1", "-i", "builtin:kleene6", "--mode", "reusefour"], "kleene6_tables.txt"),
    ],
)
def test_construction_tables_match_golden(argv, golden, tmp_path):
    (tmp_path / "twochain.json").write_text(json.dumps(TWO_CHAIN))
    argv = [str(tmp_path / a) if a == "twochain.json" else a for a in argv]
    got = run_cli(argv + ["--format", "text"], tmp_path, golden)
    assert got == (GOLDENS / golden).read_bytes()
