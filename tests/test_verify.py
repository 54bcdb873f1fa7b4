import json

import pytest

from ewords import (
    INFINITY,
    ZERO,
    ExtRational,
    FreeWord,
    e_word,
    farey_level,
    parents,
)
from ewords.verify import (
    _oracle_word,
    count_ewords_of_length,
    canonical_sequences,
    enumerate_ewords,
    neighbor_pairs,
    oracle_e_word,
    oracle_parents,
    rational_indices,
    sweep,
    table_sequences,
)

W = FreeWord.parse


class TestRationalIndices:
    def test_shell_one_is_orphans(self):
        assert rational_indices(1) == [ZERO, INFINITY]

    def test_shell_two(self):
        assert rational_indices(2) == [
            ExtRational(-1, 1),
            ZERO,
            ExtRational(1, 1),
            INFINITY,
        ]

    def test_shell_three_adds(self):
        added = set(rational_indices(3)) - set(rational_indices(2))
        assert added == {
            ExtRational(2, 1),
            ExtRational(1, 2),
            ExtRational(-2, 1),
            ExtRational(-1, 2),
        }

    def test_all_in_shell_and_sorted(self):
        xs = rational_indices(9)
        assert xs == sorted(xs)
        assert len(set(xs)) == len(xs)
        assert all(abs(x.p) + x.q <= 9 for x in xs)

    def test_bad_bound(self):
        with pytest.raises(ValueError):
            rational_indices(0)


class TestNeighborPairs:
    def test_shell_two(self):
        minus = ExtRational(-1, 1)
        one = ExtRational(1, 1)
        assert neighbor_pairs(2) == [
            (minus, ZERO),
            (minus, INFINITY),
            (ZERO, one),
            (ZERO, INFINITY),
            (one, INFINITY),
        ]

    def test_nonnegative_filter(self):
        pairs = neighbor_pairs(6, include_negative=False)
        assert pairs and all(not x.is_negative for x, _ in pairs)

    def test_descent_matches_all_pairs_search(self):
        # the list the descent replaced: every ordered pair of shell indices
        # tested with the neighbor determinant
        for bound in range(1, 31):
            idx = rational_indices(bound)
            for include_negative in (True, False):
                kept = [z for z in idx if include_negative or not z.is_negative]
                brute = [
                    (x, y)
                    for i, x in enumerate(kept)
                    for y in kept[i + 1 :]
                    if abs(x.p * y.q - y.p * x.q) == 1
                ]
                assert neighbor_pairs(bound, include_negative) == brute, (bound, include_negative)

    def test_bad_bound(self):
        with pytest.raises(ValueError):
            neighbor_pairs(0)


class TestOracles:
    def test_oracle_parents_examples(self):
        assert oracle_parents(ExtRational(3, 5)) == (ExtRational(1, 2), ExtRational(2, 3))
        assert oracle_parents(ExtRational(5, 1)) == (ExtRational(4, 1), INFINITY)
        assert oracle_parents(ExtRational(-3, 1)) == (INFINITY, ExtRational(-2, 1))

    def test_oracle_parents_rejects_orphans(self):
        with pytest.raises(ValueError):
            oracle_parents(INFINITY)

    def test_parents_match_oracle(self):
        for x in rational_indices(40):
            if x.is_orphan:
                continue
            assert parents(x) == oracle_parents(x), x

    def test_oracle_words(self):
        assert oracle_e_word(ZERO) == W("a")
        assert oracle_e_word(INFINITY) == W("b")
        assert oracle_e_word(ExtRational(68, 13)) == e_word(ExtRational(68, 13))


class TestEnumerate:
    def test_bound_one(self):
        assert enumerate_ewords(1) == {ZERO: W("a"), INFINITY: W("b")}

    def test_bound_two_adds_ba(self):
        table = enumerate_ewords(2)
        assert table[ExtRational(1, 1)] == W("b a")
        assert table[ExtRational(-1, 1)] == W("b a^-1")

    def test_bound_three(self):
        table = enumerate_ewords(3)
        assert table[ExtRational(2, 1)] == W("b a b")
        assert table[ExtRational(1, 2)] == W("a b a")
        assert table[ExtRational(-2, 1)] == W("b a^-1 b")
        assert table[ExtRational(-1, 2)] == W("a^-1 b a^-1")

    def test_modes(self):
        assert enumerate_ewords(8, mode="shortcut") == enumerate_ewords(8)

    @pytest.mark.parametrize("mode", ["orphan", "shortcut"])
    def test_descent_matches_per_index_walk(self, mode):
        # same keys in the same order and the same runs as one e_word per index
        walked = {x: e_word(x, mode).runs for x in rational_indices(60)}
        for bound in range(1, 61):
            table = enumerate_ewords(bound, mode)
            indices = rational_indices(bound)
            assert list(table) == indices, bound
            assert [w.runs for w in table.values()] == [walked[x] for x in indices], bound

    def test_bad_mode_at_bound_one(self):
        with pytest.raises(ValueError, match="mode"):
            enumerate_ewords(1, mode="fast")

    def test_bad_bound(self):
        with pytest.raises(ValueError):
            enumerate_ewords(0)


class TestCounting:
    @pytest.mark.parametrize("n,count", [(2, 2), (4, 4), (5, 8)])
    def test_examples(self, n, count):
        assert count_ewords_of_length(n) == (count, count)

    def test_starts_at_two(self):
        with pytest.raises(ValueError):
            count_ewords_of_length(1)


class TestSequenceFamilies:
    def test_canonical_sequences_small(self):
        seqs = {s.entries for s in canonical_sequences(2, 2)}
        assert seqs == {
            (1,),
            (2,),
            (0, 2),
            (1, 2),
            (2, 2),
            (0, 1, 2),
            (0, 2, 2),
            (1, 1, 2),
            (1, 2, 2),
            (2, 1, 2),
            (2, 2, 2),
        }
        assert all(s.is_canonical for s in canonical_sequences(3, 3))

    def test_table_sequences_shapes(self):
        shapes = {s.entries for s in table_sequences(2)}
        assert (1, 1) in shapes and (2, 1, 2) in shapes
        assert (0, 2, 2) in shapes and (0, 1, 1, 2) in shapes
        assert len(shapes) == 16


class TestSweep:
    def test_clean_at_ten(self):
        report = sweep(10)
        assert report.ok
        assert report.failure_count == 0
        assert len(report.checks) == 22
        names = [c.name for c in report.checks]
        assert len(set(names)) == len(names)
        assert "palindrome-parity" in names
        assert "mode-equivalence" in names
        assert "stepper-vs-enumeration" in names
        assert all(c.tested > 0 for c in report.checks)

    def test_json_round_trip(self):
        report = sweep(4)
        data = json.loads(json.dumps(report.to_dict()))
        assert data["bound"] == 4
        assert data["ok"] is True
        assert len(data["checks"]) == 22
        assert all(c["failures"] == [] for c in data["checks"])

    def test_table_rendering(self):
        lines = sweep(4).format_table()
        assert lines[0].startswith("sweep over")
        assert lines[-1].startswith("PASS:")
        assert len(lines) == 24

    def test_bad_bound(self):
        with pytest.raises(ValueError):
            sweep(1)

    def test_mode_equivalence_reads_the_shell_descent(self, monkeypatch):
        # reversing a word is what flipping its product order does to it
        import ewords.verify

        def flipped(bound, mode="orphan"):
            return {x: w.reverse() for x, w in enumerate_ewords(bound, mode).items()}

        monkeypatch.setattr(ewords.verify, "enumerate_ewords", flipped)
        report = sweep(8)
        assert [c.name for c in report.checks if c.failures] == ["mode-equivalence"]

    def test_failures_carry_counterexamples(self):
        # sabotage one comparison to confirm the report format
        from ewords.verify import SweepCheck, SweepFailure, SweepReport, _run_check

        check = _run_check("demo", [(False, "1/2", "a b a", "b a b"), (True, 0, 0, 0)])
        assert check.tested == 2
        assert check.failures == (SweepFailure("1/2", "a b a", "b a b"),)
        report = SweepReport(2, (check,))
        assert not report.ok
        assert any("FAIL" in line for line in report.format_table())
        assert "expected a b a" in "".join(report.format_table())
        assert isinstance(check, SweepCheck)

    def test_long_failure_list(self):
        from ewords.verify import SweepCheck, SweepFailure, SweepReport

        failures = tuple(SweepFailure(f"{i}/1", "a", "b") for i in range(7))
        report = SweepReport(3, (SweepCheck("demo", 7, failures),))
        lines = report.format_table()
        assert sum(line.startswith(">     ") for line in lines) == 6
        assert [line for line in lines if "expected" in line] == [
            f">     {i}/1: expected a, got b" for i in range(5)
        ]
        assert ">     ... 2 more" in lines
        assert lines[-1] == "FAIL: 7 instances, 7 failures"
        assert report.to_dict()["checks"][0]["failures"] == [
            {"input": f"{i}/1", "expected": "a", "got": "b"} for i in range(7)
        ]


class TestSharedOracleMemo:
    def test_shared_memo_matches_fresh_oracle(self):
        # one memo across a whole shell, as the sweep keeps it, in shell order
        memo: dict = {}
        for x in rational_indices(20):
            assert _oracle_word(x, memo) == oracle_e_word(x), x
        assert set(memo) == set(rational_indices(20))


def _expected_tested(bound: int) -> dict[str, int]:
    """Instances each sweep check covers, counted from the shell itself."""
    indices = rational_indices(bound)
    positive = [x for x in indices if not (x.is_negative or x.is_orphan)]
    finite_nonneg = [x for x in indices if not (x.is_negative or x.is_infinite)]
    finite_positive = [x for x in positive if not x.is_infinite]
    pairs = neighbor_pairs(bound)
    nonneg_pairs = neighbor_pairs(bound, include_negative=False)
    return {
        "parents-vs-splitting-oracle": len(positive),
        "parents-rebuild": len(positive),
        "level-parent-recursion": len(positive),
        "cf-roundtrip": len(finite_nonneg),
        "word-vs-oracle": len(indices),
        "mode-equivalence": len(indices),
        "shortcut-closed-forms": (2 * bound - 1) + (2 * bound - 2),
        "shortcut-call-reduction": sum(x.q >= 2 and abs(x.p) >= 2 for x in indices),
        "palindrome-parity": len(indices),
        "length-law": len(indices),
        "exponent-sums": len(indices),
        "neighbor-palindrome": len(pairs),
        "parity-table": len(pairs),
        "mediant-betweenness": len(pairs),
        "child-product-rule": len(nonneg_pairs),
        "stepper-vs-enumeration": len(finite_positive),
        "stepper-ewordness": len(finite_positive),
        "stepper-approximants": len(finite_positive),
        "stopping-exponent-form": len(finite_positive),
        "closed-form-tables": len(table_sequences(min(bound, 5))),
        "run-preserving-vs-steps": 7 * 2 * min(bound, 6),
        "length-counting": min(bound, 12) - 1,
    }


class TestSweepCounts:
    @pytest.mark.parametrize("bound", [2, 5, 11])
    def test_names_and_tested_counts(self, bound):
        data = sweep(bound).to_dict()
        got = {c["name"]: c["tested"] for c in data["checks"]}
        assert [c["name"] for c in data["checks"]] == list(_expected_tested(bound))
        assert got == _expected_tested(bound)
        assert data["ok"] is True


class TestLevelsAgainstTree:
    def test_levels_cover_shell(self):
        # every index in the shell has the level its expansion claims
        for x in rational_indices(12):
            if x.is_orphan:
                assert farey_level(x) == 0
            else:
                lo, up = parents(x)
                assert farey_level(x) == 1 + max(farey_level(lo), farey_level(up))
