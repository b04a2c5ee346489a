"""Tests for the frozen longest-prefix match, including property tests
against a brute-force longest match."""

from hypothesis import given, strategies as st

from repro.addr import MAX_ADDR, Prefix, aton
from repro.trie import FrozenLPM


def _prefix(text):
    return Prefix.parse(text)


def _longest_match(table, addr):
    """The reference: the (prefix, value) of the longest prefix in
    ``table`` that covers ``addr``, by trying every prefix."""
    best = None
    for prefix, value in table.items():
        if addr in prefix and (best is None or prefix.plen > best[0].plen):
            best = (prefix, value)
    return best


class TestBasics:
    def test_empty(self):
        frozen = FrozenLPM({}.items())
        assert list(frozen.ranges()) == [(0, None, None)]
        assert frozen.lookup(0) is None

    def test_insert_and_exact(self):
        """One prefix answers exactly its own span, and nothing else."""
        eight = _prefix("10.0.0.0/8")
        frozen = FrozenLPM([(eight, "a")])
        assert list(frozen.ranges()) == [
            (0, None, None), (eight.addr, eight, "a"),
            (eight.last + 1, None, None),
        ]

    def test_replace_keeps_len(self):
        prefix = _prefix("10.0.0.0/8")
        once = FrozenLPM([(prefix, "a")])
        twice = FrozenLPM([(prefix, "a"), (prefix, "b")])
        assert len(twice.starts) == len(once.starts)
        assert twice.lookup(aton("10.1.2.3")) == (prefix, "b")

    def test_contains(self):
        """Every match contains the address it answers."""
        frozen = FrozenLPM([(_prefix("10.0.0.0/8"), "a"),
                            (_prefix("10.1.0.0/16"), "b")])
        for text in ("10.0.0.0", "10.1.0.0", "10.1.255.255", "10.2.0.0",
                     "10.255.255.255"):
            prefix, _ = frozen.lookup(aton(text))
            assert aton(text) in prefix
        assert frozen.lookup(aton("11.0.0.0")) is None
        assert frozen.lookup(aton("9.255.255.255")) is None

    def test_default_route(self):
        frozen = FrozenLPM([(_prefix("0.0.0.0/0"), "default")])
        assert frozen.lookup_value(aton("203.0.113.7")) == "default"
        assert frozen.lookup_value(MAX_ADDR) == "default"


class TestLongestPrefixMatch:
    def test_picks_most_specific(self):
        frozen = FrozenLPM([
            (_prefix("10.0.0.0/8"), "eight"),
            (_prefix("10.1.0.0/16"), "sixteen"),
            (_prefix("10.1.2.0/24"), "twentyfour"),
        ])
        assert frozen.lookup_value(aton("10.1.2.3")) == "twentyfour"
        assert frozen.lookup_value(aton("10.1.3.1")) == "sixteen"
        assert frozen.lookup_value(aton("10.2.0.1")) == "eight"
        assert frozen.lookup_value(aton("11.0.0.1")) is None

    def test_lookup_returns_matched_prefix(self):
        frozen = FrozenLPM([(_prefix("10.1.0.0/16"), "v")])
        prefix, value = frozen.lookup(aton("10.1.200.200"))
        assert prefix == _prefix("10.1.0.0/16")
        assert value == "v"

    def test_host_route(self):
        frozen = FrozenLPM([(_prefix("10.0.0.0/8"), "net"),
                            (Prefix(aton("10.0.0.1"), 32), "host")])
        assert frozen.lookup_value(aton("10.0.0.1")) == "host"
        assert frozen.lookup_value(aton("10.0.0.2")) == "net"


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


prefix_strategy = st.builds(
    lambda addr, plen: Prefix.of(addr, plen),
    st.integers(min_value=0, max_value=MAX_ADDR),
    st.integers(min_value=0, max_value=32),
)


def _assert_matches_longest(frozen, table, probes):
    for addr in probes:
        expected = _longest_match(table, addr)
        assert frozen.lookup(addr) == expected
        assert frozen.lookup_value(addr) == (
            None if expected is None else expected[1]
        )


class TestProperties:
    @given(st.dictionaries(prefix_strategy, st.integers(), max_size=40),
           st.lists(st.integers(min_value=0, max_value=MAX_ADDR), max_size=25))
    def test_lpm_matches_bruteforce(self, table, probes):
        """Tables of prefixes spread over the whole address space."""
        _assert_matches_longest(FrozenLPM(table.items()), table, probes)


class TestFrozenLPM:
    @given(clustered_tables(),
           st.lists(st.integers(min_value=0, max_value=MAX_ADDR), max_size=10))
    def test_matches_the_trie(self, table, extra):
        """Nested, abutting prefixes probed at every edge answer as the
        brute-force longest match does."""
        _assert_matches_longest(FrozenLPM(table.items()), table,
                                _probes(table, extra))

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

    def test_empty_table(self):
        frozen = FrozenLPM()
        assert frozen.starts == [0]
        for addr in (0, 1, aton("10.1.2.3"), MAX_ADDR):
            assert frozen.lookup(addr) is None
            assert frozen.lookup_value(addr) is None

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
        """A frozen table copies its pairs: a prefix added to their source
        afterwards does not reach it."""
        table = {_prefix("10.0.0.0/8"): "a"}
        frozen = FrozenLPM(table.items())
        table[_prefix("10.1.0.0/16")] = "b"
        assert frozen.lookup_value(aton("10.1.0.1")) == "a"
