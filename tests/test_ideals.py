"""Ideal layer: minimal generators, graded components, stability, profiles."""

import copy
import pickle
import random

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from excolex.enumeration import enumerate_strongly_stable_ideals
from excolex.errors import ContractViolation, clipped_repr
from excolex.ideals import (
    MonomialIdeal,
    degree_profile,
    graded_component,
    is_strongly_stable_ideal,
    is_strongly_stable_ideal_componentwise,
    minimalize,
    parse_monomial,
    scan_component,
)
from excolex.monomials import MAX_VARIABLES, Monomial, iter_degree_masks, shadow_masks

M = Monomial.from_text


def ideal(n, *texts):
    return minimalize(n, [M(t) for t in texts])


def test_equality_and_hash_are_structural_on_n_and_gens():
    I = ideal(5, "e1e2", "e1e3", "e2e3", "e1e4e5")
    J = MonomialIdeal(5, list(reversed(I.gens)))  # sorted by the constructor
    assert I == J and hash(I) == hash((I.n, I.gens)) == hash(J)
    assert I != ideal(6, "e1e2", "e1e3", "e2e3", "e1e4e5")
    # the derived masks take no part, even when they disagree
    K = copy.copy(I)
    object.__setattr__(K, "masks", ())
    assert K == I and hash(K) == hash(I)
    # never equal to a plain tuple of its fields, from either side
    for plain in ((I.n, I.gens), (I.n, I.gens, I.masks)):
        assert I != plain and plain != I


def test_repr_lists_n_and_gens_only():
    I = ideal(5, "e1e2", "e1e3", "e2e3", "e1e4e5")
    assert repr(I) == "MonomialIdeal(n=5, gens=(e1e2, e1e3, e2e3, e1e4e5))"


def test_ideal_is_immutable_and_copies_through_the_constructor():
    I = ideal(4, "e1e2", "e1e3", "e2e3e4")
    for name in ("n", "gens", "masks", "other"):
        with pytest.raises(AttributeError):
            setattr(I, name, None)
        with pytest.raises(AttributeError):
            delattr(I, name)
    for twin in (copy.copy(I), copy.deepcopy(I), pickle.loads(pickle.dumps(I))):
        assert twin == I and twin.masks == I.masks


def test_constructor_validations():
    with pytest.raises(ContractViolation):
        MonomialIdeal(4, ())  # empty
    with pytest.raises(ContractViolation):
        MonomialIdeal(2, (M("e1e3"),))  # outside ambient
    with pytest.raises(ContractViolation):
        MonomialIdeal(4, (M("e1e2"), M("e1e2e3")))  # not minimal
    with pytest.raises(ContractViolation):
        MonomialIdeal(4, (Monomial(0),))  # unit generator


@pytest.mark.parametrize("n", [True, False, 2.0, "3", None])
def test_constructor_refuses_an_ambient_size_that_is_not_an_int(n):
    message = f"ambient size must be an integer, got {clipped_repr(n)}"
    with pytest.raises(ContractViolation) as exc:
        MonomialIdeal(n, (M("e1"),))
    assert str(exc.value) == message
    with pytest.raises(ContractViolation) as exc:
        MonomialIdeal.from_dict({"n": n, "generators": [[1]]})
    assert str(exc.value) == message


def test_gens_sorted_by_degree_then_revlex():
    I = MonomialIdeal(5, (M("e2e3e4"), M("e1e4"), M("e1e2")))
    assert [u.text() for u in I.gens] == ["e1e2", "e1e4", "e2e3e4"]


def test_minimalize_examples():
    assert ideal(4, "e1e2", "e1e2e3").gens == (M("e1e2"),)
    I = ideal(5, "e1e2", "e1e3e4", "e1e3e5")
    assert [u.text() for u in I.gens] == ["e1e2", "e1e3e4", "e1e3e5"]
    assert ideal(3, "e1e2", "e1e2").gens == (M("e1e2"),)


def test_minimalize_idempotent():
    I = ideal(5, "e1e2", "e2e3e4", "e1e3e5", "e1e2e5")
    again = minimalize(5, I.gens)
    assert again == I


def test_structural_equality():
    a = ideal(4, "e1e2", "e3e4")
    b = MonomialIdeal(4, (M("e3e4"), M("e1e2")))
    assert a == b
    assert a != MonomialIdeal(5, a.gens)


def test_graded_component_multiples():
    I = ideal(4, "e1e2")
    assert graded_component(I, 3) == {M("e1e2e3"), M("e1e2e4")}
    assert graded_component(I, 1) == set()


def shadow(monos, n):
    return set(map(Monomial, shadow_masks([u.mask for u in monos], (1 << n) - 1)))


def test_graded_component_shadow_plus_new_generators():
    # degree-2 part of the second construction example, read over n=5:
    # its degree-3 component is the 8-element shadow, leaving just 2 monomials
    I = ideal(5, "e1e2", "e1e3", "e2e3", "e1e4")
    comp = graded_component(I, 3)
    assert comp == shadow(I.gens, 5)
    assert len(comp) == 8
    everything = {Monomial(m) for m in iter_degree_masks(5, 3)}
    assert len(everything - comp) == 2


@pytest.mark.parametrize(
    "texts,n",
    [(("e1e2", "e1e3e4"), 5), (("e1", "e2e3"), 4), (("e1e2e3",), 3)],
)
def test_component_recursion(texts, n):
    # component at t+1 = shadow of component at t, plus degree-(t+1) generators
    I = ideal(n, *texts)
    for t in range(I.indeg, n):
        lhs = graded_component(I, t + 1)
        rhs = shadow(graded_component(I, t), n) | set(I.gens_of_degree(t + 1))
        assert lhs == rhs


def test_strongly_stable_ideal_examples():
    assert is_strongly_stable_ideal(ideal(5, "e1e2", "e1e3", "e1e4", "e2e3e4"))
    assert not is_strongly_stable_ideal(ideal(3, "e2e3"))
    assert is_strongly_stable_ideal(ideal(2, "e1"))


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


# ideals where a Borel move of a generator is a multiple of a generator of
# lower degree only: e1e3 and e1e2, the moves of e2e3, lie in (e1); the last
# two are not strongly stable, as e2e4 and e1e4e5 lie outside
LOWER_DEGREE_COVERS = (
    ("e1", "e2e3"),
    ("e1", "e2e3", "e2e4e5"),
    ("e1e2", "e1e3", "e2e3", "e1e4e5", "e2e4e5", "e3e4e5"),
    ("e1", "e3e4"),
    ("e1e2", "e1e3", "e2e4e5"),
)


def mixed_degree_ideals(n, count, seed):
    """Ideals with generators in at least two degrees: the lower-degree covers,
    then seeded ones, namely strongly stable ones from the enumeration, each
    also with one generator swapped for a random mask, and random ones."""
    rng = random.Random(seed)
    stable = [
        I for I in enumerate_strongly_stable_ideals(n) if len(degree_profile(I)) > 1
    ]
    out = [ideal(n, *texts) for texts in LOWER_DEGREE_COVERS]
    for I in rng.sample(stable, count):
        out.append(I)
        masks = [u.mask for u in I.gens]
        masks[rng.randrange(len(masks))] = rng.randrange(1, 1 << n)
        out.append(minimalize(n, [Monomial(m) for m in masks]))
        out.append(minimalize(n, [Monomial(rng.randrange(1, 1 << n)) for _ in range(4)]))
    return [I for I in out if len(degree_profile(I)) > 1]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_generator_test_agrees_with_componentwise(n):
    # every proper ideal up to n = 4; seeded mixed-degree ones at n = 5 and 6
    ideals = all_proper_ideals(n) if n <= 4 else mixed_degree_ideals(n, 60, seed=n)
    verdicts = {is_strongly_stable_ideal_componentwise(I) for I in ideals}
    for I in ideals:
        assert is_strongly_stable_ideal(I) == is_strongly_stable_ideal_componentwise(I)
    assert n == 1 or verdicts == {True, False}  # both answers are exercised


def test_single_degree_component_is_generator_set():
    I = ideal(5, "e1e2", "e1e3", "e2e3")
    assert graded_component(I, 2) == set(I.gens)


def test_degree_profile_examples():
    assert degree_profile(ideal(5, "e1e2", "e1e3e4", "e1e3e5")) == ((2, 1), (3, 2))
    I = ideal(5, "e1e2", "e1e3", "e1e4", "e1e5", "e2e3e4", "e2e3e5", "e2e4e5")
    assert degree_profile(I) == ((2, 4), (3, 3))
    assert degree_profile(ideal(3, "e1e2")) == ((2, 1),)


def test_json_round_trip_and_text_entries():
    I = ideal(5, "e1e2", "e1e3e4")
    data = I.as_dict()
    assert data == {"n": 5, "generators": [[1, 2], [1, 3, 4]]}
    assert MonomialIdeal.from_dict(data) == I
    textual = {"n": 5, "generators": ["e1e2", "e1e3e4"]}
    assert MonomialIdeal.from_dict(textual) == I
    with pytest.raises(ContractViolation):
        MonomialIdeal.from_dict(textual, allow_text=False)
    with pytest.raises(ContractViolation):
        MonomialIdeal.from_dict({"generators": [[1]]})


def test_parse_monomial_forms():
    assert parse_monomial([1, 3]) == M("e1e3")
    assert parse_monomial("e1e3") == M("e1e3")
    with pytest.raises(ContractViolation):
        parse_monomial(12)


def test_from_dict_requires_a_generator_list():
    for raw in (5, "e1e2", {"e1": 1}, None):
        with pytest.raises(ContractViolation):
            MonomialIdeal.from_dict({"n": 3, "generators": raw})


def test_from_dict_rejects_json_booleans():
    with pytest.raises(ContractViolation):
        MonomialIdeal.from_dict({"n": 3, "generators": [[True, 2]]})
    with pytest.raises(ContractViolation):
        MonomialIdeal.from_dict({"n": True, "generators": [[1]]})


# --- the mask-level fast paths against brute force ---------------------------

# random generator masks over e_1..e_7 (the unit excluded), with the ambient
mask_lists = st.integers(1, 7).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=8),
    )
)


def first_divisibility_reference(gens):
    """The first (u, v) of the all-pairs scan over the sorted generators."""
    for u in gens:
        for v in gens:
            if u.mask != v.mask and u.mask & v.mask == u.mask:
                return u, v
    return None


@given(mask_lists, st.integers(0, 7))
@settings(max_examples=200)
def test_component_masks_is_the_superset_filter(case, t):
    n, masks = case
    t = min(t, n)
    expected = [(m, any(g & m == g for g in masks)) for m in iter_degree_masks(n, t)]
    assert list(scan_component(masks, n, t)) == expected


@given(mask_lists, st.integers(0, 127))
@settings(max_examples=200)
def test_contains_is_any_generator_dividing(case, probe):
    n, masks = case
    I = minimalize(n, [Monomial(m) for m in masks])
    mono = Monomial(probe & ((1 << n) - 1))
    assert I.contains(mono) == any(g.mask & mono.mask == g.mask for g in I.gens)


@given(mask_lists)
@settings(max_examples=300)
def test_constructor_rejects_exactly_the_non_minimal_sets(case):
    n, masks = case
    raw = [Monomial(m) for m in dict.fromkeys(masks)]  # distinct, unsorted
    gens = sorted(raw, key=lambda u: (u.degree, u.mask))
    pair = first_divisibility_reference(gens)
    if pair is None:
        assert MonomialIdeal(n, raw).gens == tuple(gens)
    else:
        with pytest.raises(ContractViolation) as exc:
            MonomialIdeal(n, raw)
        assert str(exc.value) == f"{pair[0]} divides {pair[1]}; generators are not minimal"


@given(mask_lists)
@settings(max_examples=200)
def test_minimalize_keeps_exactly_the_minimal_masks(case):
    n, masks = case
    expected = {m for m in masks if not any(o != m and o & m == o for o in masks)}
    assert {u.mask for u in minimalize(n, [Monomial(m) for m in masks]).gens} == expected


# --- the constructor against a per-generator reference -----------------------

def constructor_reference(n, raw):
    """The constructor's checks written as one Python loop per generator;
    returns the generators the ideal must store."""
    gens = tuple(sorted(raw, key=lambda u: (u.mask.bit_count(), u.mask)))
    if not 1 <= n <= MAX_VARIABLES:
        raise ContractViolation(f"ambient size out of range: {clipped_repr(n)}")
    if not gens:
        raise ContractViolation("an ideal needs at least one generator")
    masks = [u.mask for u in gens]
    previous = None
    for u, mask in zip(gens, masks):
        if mask == 0:
            raise ContractViolation("the unit monomial generates an improper ideal")
        if mask.bit_length() > n:
            raise ContractViolation(f"generator {u} does not live in e_1..e_{n}")
        if mask == previous:
            raise ContractViolation(f"duplicate generator {u}")
        previous = mask
    count = len(masks)
    higher = 0
    for i, u in enumerate(masks):
        if higher <= i:
            degree = u.bit_count()
            higher = i + 1
            while higher < count and masks[higher].bit_count() == degree:
                higher += 1
        for j in range(higher, count):
            if u & masks[j] == u:
                raise ContractViolation(
                    f"{gens[i]} divides {gens[j]}; generators are not minimal"
                )
    return gens


def outcome(build, *args):
    """What a call returns, or the type and message of what it raises."""
    try:
        return build(*args)
    except Exception as exc:  # noqa: BLE001 - the type is part of the outcome
        return type(exc), str(exc)


@st.composite
def constructor_inputs(draw):
    """An ambient (sometimes outside 1..64) and generator masks in any order:
    anything at all, distinct masks of the ambient, or an antichain of them."""
    n = draw(st.one_of(st.integers(1, 10), st.sampled_from([-1, 0, 64, 65, 1000])))
    kind = draw(st.sampled_from(["any", "distinct", "antichain"]))
    if kind == "any":  # small masks collide and divide one another
        small_or_wide = st.one_of(st.integers(0, 15), st.integers(0, 1023))
        return n, draw(st.lists(small_or_wide, max_size=10))
    top = (1 << min(max(n, 1), 7)) - 1
    masks = draw(st.lists(st.integers(1, top), unique=True, max_size=12))
    if kind == "antichain":
        masks = [m for m in masks if not any(o != m and o & m == o for o in masks)]
    return n, masks


@given(constructor_inputs(), st.sampled_from([list, tuple, iter]))
@example((4, [0b11, 0b111, 0b1]), list)  # three degrees, e1 divides both
@example((5, [0b10100, 0b11, 0b101, 0b11100]), list)  # only e3e5 | e3e4e5
@example((5, [0b11, 0b110, 0b1100, 0b11100]), list)  # e3e4 | e3e4e5
@example((3, [0b11, 0b11]), tuple)
@example((3, [0b11, 0b1000]), iter)
@example((65, [1]), list)
@example((3, []), list)
@settings(max_examples=1000)
def test_constructor_matches_its_reference(case, container):
    n, masks = case
    raw = [Monomial(m) for m in masks]
    expected = outcome(constructor_reference, n, raw)
    got = outcome(MonomialIdeal, n, container(raw))
    if isinstance(got, MonomialIdeal):
        assert got.masks == tuple(u.mask for u in got.gens)
        got = got.gens
    degrees = len({m.bit_count() for m in masks})
    if isinstance(expected[0], type):
        reasons = ("not minimal", "not live", "duplicate", "unit", "range", "at least")
        event("refused: " + next(r for r in reasons if r in expected[1]))
    else:
        event(f"accepted, {min(degrees, 3)}+ degrees")
    assert got == expected


def test_constructor_refuses_negative_masks():
    # a negative mask has no text (its index walk never ends), so the message
    # prints the mask itself, clipped. Monomial refuses one when it is built;
    # the ideal keeps its own check for a generator that bypasses Monomial's
    huge = -(1 << 400)
    with pytest.raises(ContractViolation, match="negative monomial mask -2"):
        Monomial(-2)
    assert len(clipped_repr(huge)) <= 100
    cases = [
        ([Monomial._make([-2])], "negative generator mask -2"),
        ([Monomial(0b11), Monomial._make([-8])], "negative generator mask -8"),
        ([Monomial._make([-1]), Monomial(0)], "the unit monomial generates an improper ideal"),
        ([Monomial._make([huge])], f"negative generator mask {clipped_repr(huge)}"),
    ]
    for raw, message in cases:
        with pytest.raises(ContractViolation) as exc:
            MonomialIdeal(3, raw)
        assert str(exc.value) == message


def test_an_int_past_the_digit_limit_shows_its_size():
    # 10**5000 has more decimal digits than int-to-text conversion allows
    # (4300 by default), so a message names its size instead of its digits
    huge = 10**5000
    assert clipped_repr(huge) == clipped_repr(-huge) == "<int of 16610 bits>"
    assert clipped_repr([huge]) == "[<int of 16610 bits>]"
    cases = [
        (huge, [Monomial(1)], "ambient size out of range: <int of 16610 bits>"),
        (3, [Monomial._make([-huge])], "negative generator mask <int of 16610 bits>"),
    ]
    for n, raw, message in cases:
        with pytest.raises(ContractViolation) as exc:
            MonomialIdeal(n, raw)
        assert str(exc.value) == message
