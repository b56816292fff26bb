"""Enumerators: exhaustive, duplicate-free, deterministic.

Counts are cross-checked against power-set filters (sets) and an antichain
walk over all proper monomial ideals (ideals) at small sizes, then frozen.
"""

import hashlib
import itertools
import pickle

import pytest

from excolex import enumeration
from excolex.colex import colex_ideal
from excolex.enumeration import (
    PROPER_N_MAX,
    _two_degree_sets,
    enumerate_proper_ideals,
    enumerate_strongly_stable_ideals,
    enumerate_strongly_stable_sets,
)
from excolex.errors import CampaignTooLarge, ContractViolation
from excolex.ideals import (
    MonomialIdeal,
    degree_profile,
    graded_component,
    is_strongly_stable_ideal,
)
from excolex.monomials import (
    Monomial,
    borel_reductions,
    is_strongly_stable,
    iter_degree_masks,
)


def brute_force_sets(n, d):
    universe = [Monomial(m) for m in iter_degree_masks(n, d)]
    found = set()
    for r in range(1, len(universe) + 1):
        for combo in itertools.combinations(universe, r):
            if is_strongly_stable(set(combo)):
                found.add(frozenset(combo))
    return found


@pytest.mark.parametrize("n,d", [(3, 2), (4, 2), (4, 3), (5, 2), (5, 4)])
def test_sets_match_power_set_filter(n, d):
    enumerated = [frozenset(s) for s in enumerate_strongly_stable_sets(n, d)]
    assert len(enumerated) == len(set(enumerated))  # duplicate-free
    assert set(enumerated) == brute_force_sets(n, d)


def test_set_counts_frozen():
    def count(n, d):
        return sum(1 for _ in enumerate_strongly_stable_sets(n, d))

    assert count(3, 2) == 3
    assert count(4, 2) == 7
    # brute-force pinned: fifteen, one per staircase profile
    assert count(5, 2) == 15
    assert count(5, 5) == 1  # only the full product at top degree
    assert count(6, 1) == 6  # prefixes of the variables


def test_three_chain_at_n3_d2():
    sets = list(enumerate_strongly_stable_sets(3, 2))
    as_text = [tuple(u.text() for u in s) for s in sets]
    assert sorted(as_text, key=len) == [
        ("e1e2",),
        ("e1e2", "e1e3"),
        ("e1e2", "e1e3", "e2e3"),
    ]


def test_sets_stream_is_deterministic():
    first = list(enumerate_strongly_stable_sets(5, 3))
    second = list(enumerate_strongly_stable_sets(5, 3))
    assert first == second


def all_proper_ideals(n):
    masks = [m for d in range(1, n + 1) for m in iter_degree_masks(n, d)]
    found = []

    def walk(start, chosen):
        if chosen:
            found.append(MonomialIdeal(n, tuple(Monomial(m) for m in chosen)))
        for k in range(start, len(masks)):
            m = masks[k]
            if all(not (c & m == c or m & c == m) for c in chosen):
                chosen.append(m)
                walk(k + 1, chosen)
                chosen.pop()

    walk(0, [])
    return found


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_ideals_match_antichain_filter(n):
    expected = {
        I.gens
        for I in all_proper_ideals(n)
        if is_strongly_stable_ideal(I) and len(degree_profile(I)) <= 2
    }
    enumerated = [I.gens for I in enumerate_strongly_stable_ideals(n)]
    assert len(enumerated) == len(set(enumerated))
    assert set(enumerated) == expected


@pytest.mark.parametrize("n,count", [(1, 1), (2, 4), (3, 18), (4, 166)])
def test_proper_ideals_match_antichain_walk(n, count):
    enumerated = [I.gens for I in enumerate_proper_ideals(n)]
    assert len(enumerated) == len(set(enumerated)) == count
    assert set(enumerated) == {I.gens for I in all_proper_ideals(n)}


def test_ideal_counts_frozen():
    def count(n, **kw):
        return sum(1 for _ in enumerate_strongly_stable_ideals(n, **kw))

    # n=2 has three: the first variable, both variables, and their product
    assert count(2) == 3
    assert count(3) == 8
    assert count(4) == 25
    assert count(5) == 109
    assert count(5, max_degrees=1) == 41


@pytest.mark.parametrize("max_degrees", [0, -1, 3, 10**30, True, 2.0, "2"])
def test_ideal_stream_refuses_a_degree_count_it_cannot_walk(max_degrees):
    # the stream walks at most two degrees: 3 or more would silently yield
    # only the ideals that 2 yields, and 0 or less would yield nothing
    with pytest.raises(ContractViolation) as refusal:
        next(enumerate_strongly_stable_ideals(4, max_degrees))
    assert len(str(refusal.value)) < 160


@pytest.mark.parametrize("n", [0, -1, -2, 65, 3.0, True, pytest.param(10**5000, id="10**5000")])
def test_streams_refuse_an_ambient_size_outside_1_to_64(n, monkeypatch):
    # the ideal streams build their ideals unchecked, so each checks n itself, at
    # its head: before the walk's tables (2^n elements for the proper ideals)
    monkeypatch.setattr(enumeration, "_elements", lambda *args: pytest.fail("table built"))
    streams = (
        enumerate_strongly_stable_ideals(n),
        enumerate_strongly_stable_sets(n, 2),
        enumerate_proper_ideals(n),
    )
    for stream in streams:
        with pytest.raises(ContractViolation, match="^ambient size") as refusal:
            next(stream)
        assert len(str(refusal.value)) < 160


@pytest.mark.parametrize("n", [PROPER_N_MAX + 1, 64])
def test_proper_ideal_stream_refuses_an_ambient_size_above_its_ceiling(n, monkeypatch):
    # in range for the other streams, but its table would hold 2^n masks: at
    # n = 64 building it raised a bare OverflowError
    monkeypatch.setattr(enumeration, "_elements", lambda *args: pytest.fail("table built"))
    assert PROPER_N_MAX == 6
    refused = f"^proper-ideal stream at n = {n} is above its ceiling 6"
    with pytest.raises(CampaignTooLarge, match=refused) as refusal:
        next(enumerate_proper_ideals(n))
    assert len(str(refusal.value)) < 160


@pytest.mark.parametrize("d", [0, -1, True, 2.0, "2"])
def test_set_stream_refuses_a_degree_below_1(d):
    # degree 0 would yield the unit, a generating set of the improper ideal
    with pytest.raises(ContractViolation) as refusal:
        next(enumerate_strongly_stable_sets(3, d))
    assert len(str(refusal.value)) < 160


def test_set_stream_above_the_ambient_is_empty():
    assert list(enumerate_strongly_stable_sets(3, 4)) == []
    assert list(enumerate_strongly_stable_sets(3, 10**5000)) == []


def _stable_stream(max_degrees):
    return lambda n: enumerate_strongly_stable_ideals(n, max_degrees)


def _colex_of(stream):
    return lambda n: map(colex_ideal, stream(n))


# every producer of ideals built without the constructor's checks, at each n
DERIVED_IDEALS = [
    *(pytest.param(_stable_stream(k), n, id=f"{n}-{k}") for n in range(1, 7) for k in (1, 2)),
    *(pytest.param(enumerate_proper_ideals, n, id=f"proper-{n}") for n in range(1, 6)),
    *(
        pytest.param(_colex_of(enumerate_proper_ideals), n, id=f"colex-of-proper-{n}")
        for n in range(1, 5)
    ),
    *(
        pytest.param(_colex_of(enumerate_strongly_stable_ideals), n, id=f"colex-of-stable-{n}")
        for n in range(1, 7)
    ),
]


@pytest.mark.parametrize("producer, n", DERIVED_IDEALS)
def test_walked_ideals_equal_the_constructors(producer, n):
    # derived ideals skip the constructor's checks; each ideal must be the one
    # the public constructor builds from its generators
    for I in producer(n):
        J = MonomialIdeal(I.n, I.gens)
        assert I == J and hash(I) == hash(J) and I.masks == J.masks
        assert type(I.gens) is tuple and type(I.masks) is tuple
        twin = pickle.loads(pickle.dumps(I))
        assert twin == I and twin.masks == I.masks
        with pytest.raises(AttributeError):
            I.n = n


def test_every_yielded_ideal_is_strongly_stable():
    # green and colex-bound skip the closed form's guard on these ideals; check
    # their one-size-up universes: two degrees to n = 6, one degree to n = 7
    for n in range(1, 8):
        for I in enumerate_strongly_stable_ideals(n, max_degrees=2 if n <= 6 else 1):
            assert is_strongly_stable_ideal(I), I


def test_two_degree_ideals_have_two_degrees():
    two = [
        I
        for I in enumerate_strongly_stable_ideals(4)
        if len(degree_profile(I)) == 2
    ]
    assert two  # the stream does reach two-degree profiles
    for I in two:
        d1, d2 = (d for d, _ in degree_profile(I))
        assert d1 < d2


def test_max_extra_caps_new_generators():
    walked = 0
    for mset, extra in _two_degree_sets(5, 1):
        profile = degree_profile(MonomialIdeal(5, [*mset, *extra]))
        assert len(profile) == 2 and profile[1][1] == len(extra) == 1
        walked += 1
    assert walked


def recursive_down_sets(n, d, base=(), max_extra=None):
    """Reference: the recursive exclude-first walk, every leaf in order."""
    base_masks = {u.mask for u in base}
    elems = [m for m in iter_degree_masks(n, d) if m not in base_masks]
    out = []

    def walk(idx, chosen):
        if idx == len(elems):
            out.append(tuple(Monomial(m) for m in sorted(base_masks | set(chosen))))
            return
        walk(idx + 1, chosen)
        if max_extra is not None and len(chosen) >= max_extra:
            return
        mask = elems[idx]
        preds = [v.mask for v in borel_reductions(Monomial(mask))]
        if all(p in base_masks or p in chosen for p in preds):
            walk(idx + 1, chosen + [mask])

    walk(0, [])
    return out


@pytest.mark.parametrize("n", range(1, 8))
def test_sets_stream_matches_recursive_walk(n):
    for d in range(1, n + 1):
        expected = recursive_down_sets(n, d)[1:]  # the empty leaf comes first
        assert list(enumerate_strongly_stable_sets(n, d)) == expected


@pytest.mark.parametrize("max_extra", [None, 0, 1, 2, 3])
@pytest.mark.parametrize("n", range(2, 7))
def test_two_degree_stream_matches_recursive_walk(n, max_extra):
    # the two-degree tail: every d1 < d2 and every degree-d1 set, in stream
    # order, extended by every nonempty down-closed choice of new generators
    expected = []
    for d1, d2 in itertools.combinations(range(1, n + 1), 2):
        for mset in enumerate_strongly_stable_sets(n, d1):
            base = graded_component(MonomialIdeal(n, mset), d2)
            for sup in recursive_down_sets(n, d2, base, max_extra)[1:]:
                expected.append(MonomialIdeal(n, [*mset, *(u for u in sup if u not in base)]))
    walk = [MonomialIdeal(n, [*mset, *extra]) for mset, extra in _two_degree_sets(n, max_extra)]
    assert walk == expected


def test_walk_is_not_bounded_by_the_recursion_limit():
    # C(13, 5) = 1287 candidates; a recursive walk overflows the stack here
    first = list(itertools.islice(enumerate_strongly_stable_sets(13, 5), 3))
    assert len(first) == 3
    assert all(is_strongly_stable(set(s)) for s in first)


# --- stream pins: SHA-256 over one repr(masks) line per yielded object -----------

def stream_digest(stream):
    h = hashlib.sha256()
    for masks in stream:
        h.update(repr(masks).encode() + b"\n")
    return h.hexdigest()


IDEAL_STREAM_PINS = {
    1: "524930951df1c7fa0dcc92bcb5533de395a41c83ce80ab87d48f352262733127",
    2: "a41285743c42652b724d0678ed20218c1a185aca95ae0b7b491fba48757afe2d",
    3: "aa1ef61221c21a7af864e175bc23a86c68a27fd451cdb78aaeaf1405532b7b27",
    4: "a6bd0b9c9a592ed4db25e5d2db19517f4a0fa1de228e3754265992dc0e647819",
    5: "bd4f88556d8f860cf506694a8e2e18e8cd91e86b35eacf71f064f4583791779d",
    6: "0ccd57b36930414523d33b49916b48667815b0e83ac4d67f2f8e39b16443bc33",
}
IDEAL_STREAM_PIN_7_MAX_EXTRA_2 = "416c4e681b337128e16db664a7b89a46bad67a8ee69690f56f24e70ff1727093"
SET_STREAM_PINS_8 = {
    1: "31018dcdff6ab916e7a6ca6222e956ad923eeaa15e88acf85ddc725c2bb01d23",
    2: "c2cb4c00d59349450b43d4ed47a4e4a78b71b4200635734f46bc0a552ccbb9c5",
    3: "471d4bccc26437ffa5c7853e3ee801d44bc937345b304d344677180b4323d59f",
    4: "20cdd8ae5347ac0e3f492366a3e8f2fa976472de9e55cd2dc40c09d0dcad58be",
    5: "d028aa90d8fa90b590ddc52b4e6062085f3374bd71528ec1133f2483ad7014cd",
    6: "e8826e73b5f4ba05a44a9b00e65a13ca0b712bd09ec0d25c168d0dbaff6bdc36",
    7: "73ae269cdd27b5d094fc76a5c60188ac9753265ef2392af2fbca21f9d54eb379",
    8: "bf51957c3c8810937c07759bc7acf360f01e4aa7cc5d715dcffac4fd67c86a05",
}
PROPER_STREAM_PINS = {
    1: "524930951df1c7fa0dcc92bcb5533de395a41c83ce80ab87d48f352262733127",
    2: "e3ff197d4aa02f2e9036aa3dccca5349f252a49f5a78579d39748ed8d3b049c5",
    3: "59aa4f1b7a230d9e600206358adf4bd57da3455c44a80a1c9d353bbe62af30cd",
    4: "1d18015f1c0bec66870e28814f1f10956d0002b82d5858ce2e7f9349f73f1cfc",
    5: "5b3ba363027ac2f7013abf0d1d112851ee582249e95ccd39ce2c90770eecdb0b",  # 7579 ideals
}


@pytest.mark.parametrize("n", sorted(IDEAL_STREAM_PINS))
def test_ideal_stream_is_pinned(n):
    stream = (I.masks for I in enumerate_strongly_stable_ideals(n))
    assert stream_digest(stream) == IDEAL_STREAM_PINS[n]


def test_capped_ideal_stream_is_pinned():
    # the single-degree ideals, then the walk's with at most two degree-d2 generators
    singles = enumerate_strongly_stable_ideals(7, max_degrees=1)
    capped = (MonomialIdeal(7, [*mset, *extra]) for mset, extra in _two_degree_sets(7, 2))
    stream = (I.masks for I in itertools.chain(singles, capped))
    assert stream_digest(stream) == IDEAL_STREAM_PIN_7_MAX_EXTRA_2


@pytest.mark.parametrize("d", sorted(SET_STREAM_PINS_8))
def test_set_stream_is_pinned(d):
    stream = (tuple(u.mask for u in mset) for mset in enumerate_strongly_stable_sets(8, d))
    assert stream_digest(stream) == SET_STREAM_PINS_8[d]


@pytest.mark.parametrize("n", sorted(PROPER_STREAM_PINS))
def test_proper_ideal_stream_is_pinned(n):
    stream = (I.masks for I in enumerate_proper_ideals(n))
    assert stream_digest(stream) == PROPER_STREAM_PINS[n]


@pytest.mark.parametrize("max_extra", [None, 2])
@pytest.mark.parametrize("n", range(1, 8))
def test_two_degree_walk_is_the_streams_tail(n, max_extra):
    # a capped walk prunes the full one: the tail's ideals with few enough
    # degree-d2 generators, in the same order
    stream = list(enumerate_strongly_stable_ideals(n))
    pairs = [(mset, tuple(extra)) for mset, extra in _two_degree_sets(n, max_extra)]
    singles = sum(len(degree_profile(I)) == 1 for I in stream)
    assert all(len(degree_profile(I)) == 1 for I in stream[:singles])
    tail = [
        I for I in stream[singles:] if max_extra is None or degree_profile(I)[1][1] <= max_extra
    ]
    for I, (mset, extra) in zip(tail, pairs, strict=True):
        assert I == MonomialIdeal(n, [*mset, *extra])
        # section6's memo key, read off the walk
        key = ((mset[0].degree, len(mset)), (extra[0].degree, len(extra)))
        assert key == degree_profile(I)
