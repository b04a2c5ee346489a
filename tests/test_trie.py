"""Tests for the radix trie and its frozen LPM, including property tests
against brute force and against each other."""

from hypothesis import given, strategies as st

from repro.addr import MAX_ADDR, Prefix, aton
from repro.trie import FrozenLPM, PrefixTrie


def _prefix(text):
    return Prefix.parse(text)


class TestBasics:
    def test_empty(self):
        trie = PrefixTrie()
        assert len(trie) == 0
        assert not trie
        assert trie.lookup(0) is None

    def test_insert_and_exact(self):
        trie = PrefixTrie()
        trie.insert(_prefix("10.0.0.0/8"), "a")
        assert trie.exact(_prefix("10.0.0.0/8")) == "a"
        assert trie.exact(_prefix("10.0.0.0/9")) is None
        assert len(trie) == 1

    def test_replace_keeps_len(self):
        trie = PrefixTrie()
        trie.insert(_prefix("10.0.0.0/8"), "a")
        trie.insert(_prefix("10.0.0.0/8"), "b")
        assert len(trie) == 1
        assert trie.exact(_prefix("10.0.0.0/8")) == "b"

    def test_contains(self):
        trie = PrefixTrie()
        trie.insert(_prefix("10.0.0.0/8"), "a")
        assert _prefix("10.0.0.0/8") in trie
        assert _prefix("11.0.0.0/8") not in trie

    def test_remove(self):
        trie = PrefixTrie()
        trie.insert(_prefix("10.0.0.0/8"), "a")
        assert trie.remove(_prefix("10.0.0.0/8"))
        assert not trie.remove(_prefix("10.0.0.0/8"))
        assert len(trie) == 0
        assert trie.lookup(aton("10.1.1.1")) is None

    def test_default_route(self):
        trie = PrefixTrie()
        trie.insert(_prefix("0.0.0.0/0"), "default")
        assert trie.lookup_value(aton("203.0.113.7")) == "default"


class TestLongestPrefixMatch:
    def test_picks_most_specific(self):
        trie = PrefixTrie()
        trie.insert(_prefix("10.0.0.0/8"), "eight")
        trie.insert(_prefix("10.1.0.0/16"), "sixteen")
        trie.insert(_prefix("10.1.2.0/24"), "twentyfour")
        assert trie.lookup_value(aton("10.1.2.3")) == "twentyfour"
        assert trie.lookup_value(aton("10.1.3.1")) == "sixteen"
        assert trie.lookup_value(aton("10.2.0.1")) == "eight"
        assert trie.lookup_value(aton("11.0.0.1")) is None

    def test_lookup_returns_matched_prefix(self):
        trie = PrefixTrie()
        trie.insert(_prefix("10.1.0.0/16"), "v")
        prefix, value = trie.lookup(aton("10.1.200.200"))
        assert prefix == _prefix("10.1.0.0/16")
        assert value == "v"

    def test_lookup_all_least_specific_first(self):
        trie = PrefixTrie()
        trie.insert(_prefix("10.0.0.0/8"), 8)
        trie.insert(_prefix("10.1.0.0/16"), 16)
        matches = trie.lookup_all(aton("10.1.0.1"))
        assert [v for _, v in matches] == [8, 16]

    def test_host_route(self):
        trie = PrefixTrie()
        trie.insert(_prefix("10.0.0.0/8"), "net")
        trie.insert(Prefix(aton("10.0.0.1"), 32), "host")
        assert trie.lookup_value(aton("10.0.0.1")) == "host"
        assert trie.lookup_value(aton("10.0.0.2")) == "net"


class TestCovered:
    def test_covered_iterates_subtree(self):
        trie = PrefixTrie()
        trie.insert(_prefix("10.0.0.0/8"), "a")
        trie.insert(_prefix("10.1.0.0/16"), "b")
        trie.insert(_prefix("11.0.0.0/8"), "c")
        found = {str(p) for p, _ in trie.covered(_prefix("10.0.0.0/8"))}
        assert found == {"10.0.0.0/8", "10.1.0.0/16"}

    def test_items_returns_everything(self):
        trie = PrefixTrie()
        entries = {"10.0.0.0/8": 1, "10.128.0.0/9": 2, "192.168.0.0/16": 3}
        for text, value in entries.items():
            trie.insert(_prefix(text), value)
        assert {str(p): v for p, v in trie.items()} == entries

    def test_covered_missing_subtree_empty(self):
        trie = PrefixTrie()
        trie.insert(_prefix("10.0.0.0/8"), "a")
        assert list(trie.covered(_prefix("192.0.0.0/8"))) == []


prefix_strategy = st.builds(
    lambda addr, plen: Prefix.of(addr, plen),
    st.integers(min_value=0, max_value=MAX_ADDR),
    st.integers(min_value=0, max_value=32),
)


class TestProperties:
    @given(st.dictionaries(prefix_strategy, st.integers(), max_size=40),
           st.lists(st.integers(min_value=0, max_value=MAX_ADDR), max_size=25))
    def test_lpm_matches_bruteforce(self, table, probes):
        trie = PrefixTrie()
        for prefix, value in table.items():
            trie.insert(prefix, value)
        for addr in probes:
            expected = None
            for prefix, value in table.items():
                if addr in prefix:
                    if expected is None or prefix.plen > expected[0].plen:
                        expected = (prefix, value)
            got = trie.lookup(addr)
            if expected is None:
                assert got is None
            else:
                assert got is not None
                assert got[0].plen == expected[0].plen
                assert got[1] == expected[1]

    @given(st.sets(prefix_strategy, max_size=40))
    def test_len_and_items_consistent(self, prefixes):
        trie = PrefixTrie()
        for index, prefix in enumerate(sorted(prefixes)):
            trie.insert(prefix, index)
        assert len(trie) == len(prefixes)
        assert {p for p, _ in trie.items()} == prefixes

    @given(st.sets(prefix_strategy, min_size=1, max_size=20))
    def test_remove_all_empties(self, prefixes):
        trie = PrefixTrie()
        for prefix in prefixes:
            trie.insert(prefix, "x")
        for prefix in prefixes:
            assert trie.remove(prefix)
        assert len(trie) == 0


#: Prefixes at the corners of the address space, mixed into the clustered
#: tables below: the default route, both ends as /32, and a /1.
EDGE_PREFIXES = (Prefix(0, 0), Prefix(0, 32), Prefix(MAX_ADDR, 32),
                 Prefix(1 << 31, 1))


@st.composite
def clustered_tables(draw):
    """Prefix → value tables whose prefixes sit near one base address, so
    they nest and abut, with few distinct values, so equal values under
    distinct prefixes are common."""
    base = draw(st.integers(min_value=0, max_value=MAX_ADDR))
    value = st.integers(min_value=0, max_value=2)
    table = {}
    for plen, spread, noise, stored in draw(st.lists(
        st.tuples(st.integers(min_value=0, max_value=32),
                  st.sampled_from([0, 4, 8, 16, 32]),
                  st.integers(min_value=0, max_value=MAX_ADDR),
                  value),
        max_size=30,
    )):
        table[Prefix.of(base ^ (noise & ((1 << spread) - 1)), plen)] = stored
    for prefix in draw(st.sets(st.sampled_from(EDGE_PREFIXES))):
        table[prefix] = draw(value)
    return table


def _probes(table, extra):
    """Both ends of every prefix and the addresses just outside it, the
    two ends of the address space, and ``extra``."""
    probes = {0, MAX_ADDR, *extra}
    for prefix in table:
        probes.update((prefix.addr, prefix.last,
                       max(prefix.addr - 1, 0), min(prefix.last + 1, MAX_ADDR)))
    return sorted(probes)


class TestFrozenLPM:
    @given(clustered_tables(),
           st.lists(st.integers(min_value=0, max_value=MAX_ADDR), max_size=10))
    def test_matches_the_trie(self, table, extra):
        trie = PrefixTrie()
        for prefix, value in table.items():
            trie.insert(prefix, value)
        frozen = FrozenLPM(table.items())
        for addr in _probes(table, extra):
            assert frozen.lookup(addr) == trie.lookup(addr)
            assert frozen.lookup_value(addr) == trie.lookup_value(addr)

    @given(clustered_tables())
    def test_ranges_sorted_disjoint_and_unmerged(self, table):
        frozen = FrozenLPM(table.items())
        starts = list(frozen.starts)
        assert starts[0] == 0
        assert starts == sorted(set(starts))
        # Neighbouring ranges always differ in their matched prefix, even
        # where the values are equal.
        for left, right in zip(frozen.prefixes, frozen.prefixes[1:]):
            assert left != right
        # A prefix its more-specifics cover whole answers nowhere.
        assert {p for p in frozen.prefixes if p is not None} <= set(table)

    @given(clustered_tables())
    def test_trie_freeze_is_the_same_table(self, table):
        trie = PrefixTrie()
        for prefix, value in table.items():
            trie.insert(prefix, value)
        frozen, direct = trie.freeze(), FrozenLPM(table.items())
        assert list(frozen.ranges()) == list(direct.ranges())

    def test_empty_table(self):
        frozen = FrozenLPM()
        assert frozen.starts == [0]
        for addr in (0, 1, aton("10.1.2.3"), MAX_ADDR):
            assert frozen.lookup(addr) is None
            assert frozen.lookup_value(addr) is None
        assert PrefixTrie().freeze().lookup(MAX_ADDR) is None

    def test_equal_values_keep_their_own_prefix(self):
        outer, inner, beside = (_prefix("10.0.0.0/8"), _prefix("10.1.0.0/16"),
                                _prefix("11.0.0.0/8"))
        frozen = FrozenLPM([(outer, 7), (inner, 7), (beside, 7)])
        assert frozen.lookup(aton("10.0.0.1")) == (outer, 7)
        assert frozen.lookup(aton("10.1.0.1")) == (inner, 7)
        assert frozen.lookup(aton("10.2.0.1")) == (outer, 7)
        assert frozen.lookup(aton("11.0.0.1")) == (beside, 7)

    def test_repeated_prefix_keeps_last_value(self):
        prefix = _prefix("10.0.0.0/8")
        frozen = FrozenLPM([(prefix, "a"), (_prefix("10.1.0.0/16"), "b"),
                            (prefix, "c")])
        assert frozen.lookup_value(aton("10.0.0.1")) == "c"
        assert frozen.lookup_value(aton("10.255.0.1")) == "c"
        assert frozen.lookup_value(aton("10.1.0.1")) == "b"

    def test_later_inserts_do_not_reach_a_frozen_trie(self):
        trie = PrefixTrie()
        trie.insert(_prefix("10.0.0.0/8"), "a")
        frozen = trie.freeze()
        trie.insert(_prefix("10.1.0.0/16"), "b")
        assert frozen.lookup_value(aton("10.1.0.1")) == "a"
