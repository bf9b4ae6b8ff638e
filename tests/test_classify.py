import pytest

from resposet import (
    check_pseudo_kleene,
    extend_boolean_theorem5,
    extend_theorem2,
    is_distributive,
    recognize_boolean,
)
from resposet.errors import NotALattice
from resposet.fixtures import (
    antichain,
    chain,
    cube_boolean,
    kleene_six_involuted,
    n5,
    n5_involuted,
    pseudo_kleene_nine_involuted,
)


def naive_distributive(p):
    """Oracle: test x ^ (y v z) = (x ^ y) v (x ^ z) over all triples."""
    for x in p.elements:
        for y in p.elements:
            for z in p.elements:
                lhs = p.meet(x, p.join(y, z))
                rhs = p.join(p.meet(x, y), p.meet(x, z))
                if lhs != rhs:
                    return False
    return True


class TestDistributivity:
    def test_n5_is_not_distributive(self):
        ok, witness = is_distributive(n5())
        assert not ok
        x, y, z = witness
        p = n5()
        assert p.meet(x, p.join(y, z)) != p.join(p.meet(x, y), p.meet(x, z))

    def test_chains_are_distributive(self):
        for n in range(1, 7):
            ok, witness = is_distributive(chain(n))
            assert ok and witness is None

    def test_cube_is_distributive(self):
        ok, _ = is_distributive(cube_boolean(3).lattice)
        assert ok

    def test_matches_oracle_on_small_lattices(self, small_posets):
        for p in small_posets:
            if not p.is_lattice():
                continue
            ok, _ = is_distributive(p)
            assert ok == naive_distributive(p)

    def test_join_prime_verdict_matches_the_scan(self, small_posets):
        # the scan stays the reference, and it gives every "no" its witness
        lattices = [p for p in small_posets if p.is_lattice()]
        lattices += [
            extend_boolean_theorem5(cube_boolean(4), n, verify=False).poset for n in (10, 100)
        ]
        lattices.append(extend_theorem2(n5_involuted(), 10, verify=False).poset)
        verdicts = set()
        for p in lattices:
            scan = p._distributivity_scan()
            assert p._join_prime() == scan[0]
            assert is_distributive(p) == scan
            verdicts.add(scan[0])
        assert verdicts == {True, False}

    def test_non_lattice_rejected(self):
        with pytest.raises(NotALattice):
            is_distributive(antichain(2))


class TestPseudoKleene:
    def test_six_element_is_kleene(self):
        ip = kleene_six_involuted()
        verdict = check_pseudo_kleene(ip.poset, ip.involution)
        assert verdict.pseudo_kleene
        assert verdict.distributive
        assert verdict.kleene
        assert verdict.report.overall

    def test_nine_element_is_pseudo_kleene_but_not_kleene(self):
        ip = pseudo_kleene_nine_involuted()
        verdict = check_pseudo_kleene(ip.poset, ip.involution)
        assert verdict.pseudo_kleene
        assert not verdict.distributive
        assert not verdict.kleene

    def test_n5_fails_bound_identity(self):
        verdict = check_pseudo_kleene(n5(), n5_involuted().involution)
        assert not verdict.pseudo_kleene
        bound = verdict.report.check("kleene-bound")
        assert not bound.passed
        x, y = bound.witness
        p, inv = n5(), n5_involuted().involution
        assert not p.leq(p.meet(x, inv(x)), p.join(y, inv(y)))

    def test_bound_witness_on_n5_is_a_c(self):
        # a ^ a' = a is not below c v c' = c, first such pair in order
        verdict = check_pseudo_kleene(n5(), n5_involuted().involution)
        assert verdict.report.check("kleene-bound").witness == ("a", "c")

    def test_absorption_identity_follows_from_distributivity(self, involuted_corpus):
        for ip in involuted_corpus:
            if not ip.poset.is_lattice():
                continue
            ok, _ = is_distributive(ip.poset)
            if not ok:
                continue
            verdict = check_pseudo_kleene(ip.poset, ip.involution)
            assert verdict.report.check("kleene-absorption").passed


class TestBooleanRecognition:
    def test_cubes_are_boolean(self):
        for k in (1, 2, 3, 4):
            B = recognize_boolean(cube_boolean(k).lattice)
            assert B is not None
            comp = B.complement
            L = B.lattice
            for x in L.elements:
                assert L.meet(x, comp(x)) == B.bottom
                assert L.join(x, comp(x)) == B.top

    def test_three_chain_is_not_boolean(self):
        # the middle element has no complement
        assert recognize_boolean(chain(3)) is None

    def test_n5_is_not_boolean(self):
        assert recognize_boolean(n5()) is None

    def test_singleton_is_boolean(self):
        B = recognize_boolean(chain(1))
        assert B is not None and B.bottom == B.top

    def test_complement_is_antitone_involution(self):
        from resposet import check_antitone_involution

        B = cube_boolean(3)
        assert check_antitone_involution(B.lattice, B.complement.mapping).overall
