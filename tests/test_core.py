import hashlib
import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caphs.core import (
    UNBOUNDED,
    Assignment,
    Element,
    Instance,
    MalformedInput,
    PartialPlurality,
    Solution,
    ValidationError,
    equivalence_classes,
    generate_instance,
    parse_instance,
    parse_solution,
    serialize_instance,
    serialize_solution,
    stars,
)
from caphs.errors import UnknownElement

from _oracles import rescan_classes, rescan_stars, shape_then_model_parse_instance

GEN_PARAMS = {
    "n": 6,
    "m": 8,
    "d": 3,
    "cap_range": (1, 3),
    "weight_range": (1, 9),
    "mult_range": (1, 2),
}

# Frozen fingerprint of the seed-7 instance; guards generator stability.
SEED7_DIGEST = "9ef23fee0bb8e5303f00dcd4197e672b94eb628fcfa849529c8296c1e75dc3ae"


def test_element_validation():
    Element(id=0, cap=0, weight=0, mult=None)
    Element(id=1, cap=2, weight=1, mult=3)
    with pytest.raises(ValidationError):
        Element(id=2, cap=-1, weight=1, mult=1)
    with pytest.raises(ValidationError):
        Element(id=3, cap=1, weight=-1, mult=1)
    with pytest.raises(ValidationError):
        Element(id=4, cap=1, weight=1, mult=0)


def test_instance_validation():
    els = (Element(0, 1, 1, 1), Element(1, 1, 1, 1))
    Instance(elements=els, family=((0, 1), (1,)), d=2)
    with pytest.raises(ValidationError):
        Instance(elements=els, family=((0, 1),), d=1)
    with pytest.raises(ValidationError):
        Instance(elements=els, family=((),), d=2)
    with pytest.raises(ValidationError):
        Instance(elements=els, family=((0, 7),), d=2)
    with pytest.raises(ValidationError):
        Instance(elements=(els[0], els[0]), family=((0,),), d=2)


PAIR = (Element(0, 1, 1, 1), Element(1, 1, 1, 1))


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: Instance(elements=PAIR, family=((0,),), d=0), ValidationError,
         "d must be positive, got 0"),
        (lambda: Instance(elements=PAIR, family=((1, 0, 1),), d=3), ValidationError,
         "set 0 repeats an element id"),
        (lambda: Instance(elements=PAIR, family=((0,),), d=1).element(9), UnknownElement,
         "no element with id 9"),
        # bool subclasses int, but serialize_solution would write true, which
        # parse_solution refuses.
        (lambda: Solution({0: True}), ValidationError,
         "copy count for element 0 must be a positive int"),
        # The same holds for every integer field of an Element or an Instance.
        (lambda: Element(id=0, cap=True, weight=True), ValidationError,
         "element 0: id, cap, mult and weight must be integers"),
        (lambda: Element(id=True, cap=1), ValidationError,
         "element True: id, cap, mult and weight must be integers"),
        (lambda: Element(id=0, cap=1, mult=True), ValidationError,
         "element 0: id, cap, mult and weight must be integers"),
        (lambda: Element(id=0, cap=1, weight=1.5), ValidationError,
         "element 0: id, cap, mult and weight must be integers"),
        (lambda: Instance(elements=PAIR, family=((0,),), d=True), ValidationError,
         "d must be an integer, got True"),
        (lambda: Instance(elements=PAIR, family=((True,),), d=1), ValidationError,
         "set 0 names unknown element True"),
    ],
    ids=["d-zero", "repeated-id", "unknown-id", "bool-copies", "bool-cap-weight", "bool-id",
         "bool-mult", "float-weight", "bool-d", "bool-member"],
)
def test_models_reject_bad_fields(build, error, message):
    with pytest.raises(error) as got:
        build()
    assert got.value.args == (message,)


def test_instance_sorts_members_and_keeps_duplicates():
    els = (Element(0, 1, 1, 1), Element(1, 1, 1, 1))
    inst = Instance(elements=els, family=((1, 0), (0, 1)), d=2)
    assert inst.family == ((0, 1), (0, 1))


def test_generator_is_deterministic_and_pinned():
    inst = generate_instance(GEN_PARAMS, seed=7)
    text = serialize_instance(inst)
    assert hashlib.sha256(text.encode()).hexdigest() == SEED7_DIGEST
    again = generate_instance(GEN_PARAMS, seed=7)
    assert serialize_instance(again) == text
    other = generate_instance(GEN_PARAMS, seed=8)
    assert serialize_instance(other) != text


def test_seed7_shape():
    inst = generate_instance(GEN_PARAMS, seed=7)
    rows = [(e.id, e.cap, e.mult, e.weight) for e in inst.elements]
    assert rows == [
        (0, 3, 2, 6),
        (1, 3, 2, 6),
        (2, 3, 1, 3),
        (3, 1, 2, 3),
        (4, 3, 1, 1),
        (5, 3, 2, 2),
    ]
    assert inst.family == (
        (4,),
        (3, 5),
        (1, 2, 5),
        (1, 3),
        (1, 5),
        (1, 2),
        (0, 3, 5),
        (0, 5),
    )


def test_serialize_parse_round_trip():
    for seed in range(10):
        inst = generate_instance(GEN_PARAMS, seed=seed)
        assert parse_instance(serialize_instance(inst)) == inst


def test_unbounded_mult_round_trips_as_null():
    inst = Instance(
        elements=(Element(id=0, cap=2, weight=5, mult=UNBOUNDED),),
        family=((0,),),
        d=1,
    )
    text = serialize_instance(inst)
    assert '"mult": null' in text
    back = parse_instance(text)
    assert back.element(0).mult is None


def test_parse_rejects_malformed_documents():
    with pytest.raises(MalformedInput):
        parse_instance("not json")
    with pytest.raises(MalformedInput):
        parse_instance("[1, 2]")
    with pytest.raises(MalformedInput):
        parse_instance('{"d": 1, "family": []}')
    good = serialize_instance(generate_instance(GEN_PARAMS, seed=0))
    for fmt in ('"format": 2', '"format": true'):
        with pytest.raises(ValidationError):
            parse_instance(good.replace('"format": 1', fmt))
    # weight is mandatory per element
    with pytest.raises(MalformedInput):
        parse_instance(
            '{"format": 1, "d": 1,'
            ' "elements": [{"id": 0, "cap": 1, "mult": 1}],'
            ' "family": [[0]]}'
        )
    # bool subclasses int, but true/false are not integers in the format
    doc = {"format": 1, "d": 1, "elements": [{"id": 0, "cap": 1, "mult": 1, "weight": 1}],
           "family": [[0]]}
    bools = [
        {**doc, "d": True},
        {**doc, "family": [[False]]},
    ] + [
        {**doc, "elements": [{**doc["elements"][0], key: True}]}
        for key in ("id", "cap", "mult", "weight")
    ]
    for bad in bools:
        with pytest.raises(MalformedInput):
            parse_instance(json.dumps(bad))
    parse_instance(json.dumps(doc))
    for bad in ('{"copies": {"0": true}}', '{"copies": {"0": 1}, "assignment": {"0": false}}'):
        with pytest.raises(MalformedInput):
            parse_solution(bad)
    # Ids are keyed in canonical form only, so no two keys can name one id,
    # and a key repeated verbatim is refused rather than last-wins.
    for key in ("01", " 3 ", "1_0", "+1", "-0", "\u0661"):
        for bad in ({"copies": {key: 1}}, {"copies": {}, "assignment": {key: 0}}):
            with pytest.raises(MalformedInput):
                parse_solution(json.dumps(bad))
    for bad in (
        '{"copies": {"1": 1, "01": 1}}',
        '{"copies": {"1": 1, "1": 2}}',
        '{"copies": {"1": 1}, "assignment": {"0": 1, "0": 1}}',
        '{"copies": {}, "copies": {"1": 1}}',
    ):
        with pytest.raises(MalformedInput):
            parse_solution(bad)
    with pytest.raises(MalformedInput):
        parse_instance(json.dumps(doc)[:-1] + ', "d": 2}')
    assert parse_solution('{"copies": {"-1": 1, "10": 2}}')[0] == Solution({-1: 1, 10: 2})
    # Nesting past the decoder's recursion limit, and integers past the
    # interpreter's digit limit, are malformed input as well.
    for parse in (parse_instance, parse_solution):
        with pytest.raises(MalformedInput):
            parse("[" * 100_000)
        with pytest.raises(MalformedInput):
            parse("9" * 5000)


def _fault(draw, doc):
    """The document doc with one more fault in a field or a container."""
    kind = draw(st.sampled_from((
        "repeat", "bool", "negative", "mult 0", "duplicate id", "empty set", "too wide",
        "unknown id", "d 0", "container", "missing key",
    )))
    elements, family = doc.get("elements"), doc.get("family")
    ents = [e for e in elements if isinstance(e, dict)] if isinstance(elements, list) else []
    sets = [s for s in family if isinstance(s, list)] if isinstance(family, list) else []
    if kind == "bool":
        where = draw(st.sampled_from(("element", "member", "d")))
        if where == "element" and ents:
            draw(st.sampled_from(ents))[draw(st.sampled_from(("id", "cap", "mult", "weight")))] = True
        elif where == "member" and [s for s in sets if s]:
            chosen = draw(st.sampled_from([s for s in sets if s]))
            chosen[draw(st.integers(0, len(chosen) - 1))] = draw(st.booleans())
        else:
            doc["d"] = draw(st.booleans())
    elif kind in ("negative", "mult 0") and ents:
        ent = draw(st.sampled_from(ents))
        if kind == "mult 0":
            ent["mult"] = 0
        else:
            ent[draw(st.sampled_from(("cap", "weight")))] = draw(st.integers(-3, -1))
    elif kind == "duplicate id" and len(ents) >= 2:
        a, b = draw(st.permutations(ents))[:2]
        a["id"] = b.get("id")
    elif kind in ("empty set", "repeat", "too wide", "unknown id") and isinstance(family, list):
        ids = [e["id"] for e in ents if type(e.get("id")) is int]
        if kind == "empty set":
            family.append([])
        elif kind == "repeat":
            family.append([ids[0], ids[0]] if ids else [0, 0])
        elif kind == "too wide":
            width = (doc["d"] if isinstance(doc.get("d"), int) else 1) + 1
            family.append([max(ids or [0]) + 1 + i for i in range(width)])
        else:
            family.append([max(ids or [0]) + draw(st.integers(1, 3))])
        family.insert(draw(st.integers(0, len(family) - 1)), family.pop())
    elif kind == "d 0":
        doc["d"] = 0
    elif kind == "container":
        where = draw(st.sampled_from(("elements", "family", "element", "set", "document")))
        wrong = draw(st.sampled_from(({}, 3, "x", None)))
        if where == "element" and ents:
            elements[elements.index(draw(st.sampled_from(ents)))] = [wrong]
        elif where == "set" and sets:
            family[draw(st.integers(0, len(family) - 1))] = wrong
        elif where == "document":
            return [doc]
        else:
            doc[where if where in ("elements", "family") else "family"] = wrong
    elif kind == "missing key":
        if draw(st.booleans()) and ents:
            draw(st.sampled_from(ents)).pop(draw(st.sampled_from(("id", "cap", "weight"))), None)
        else:
            doc.pop(draw(st.sampled_from(("d", "elements", "family"))), None)
    return doc


@st.composite
def instance_documents(draw):
    """A valid instance document, then zero, one or two faults."""
    ids = draw(st.lists(st.integers(-3, 20), min_size=1, max_size=5, unique=True))
    d = draw(st.integers(1, 3))
    elements = []
    for x in ids:
        ent = {"id": x, "cap": draw(st.integers(0, 3)), "weight": draw(st.integers(0, 9))}
        if draw(st.booleans()):
            ent["mult"] = draw(st.one_of(st.none(), st.integers(1, 3)))
        elements.append(ent)
    family = draw(st.lists(
        st.lists(st.sampled_from(ids), min_size=1, max_size=min(d, len(ids)), unique=True), max_size=6,
    ))
    doc = {"d": d, "elements": elements, "family": family}
    if draw(st.booleans()):
        doc = {"format": 1, **doc}
    for _ in range(draw(st.sampled_from((1, 2, 0, 2, 1)))):
        doc = _fault(draw, doc) if isinstance(doc, dict) else doc
    return json.dumps(doc)


def _parsed(parse, text):
    try:
        inst = parse(text)
    except (MalformedInput, ValidationError) as exc:
        return type(exc), str(exc)
    return inst.elements, inst.family, inst.d, inst.hits


@settings(max_examples=600)
@given(instance_documents())
def test_parse_instance_matches_the_shape_then_model_parser(text):
    # The one-pass parser returns the same instance, or raises the same error
    # type with the same message, which for two faults is the same fault.
    assert _parsed(parse_instance, text) == _parsed(shape_then_model_parse_instance, text)


def test_parse_instance_keeps_which_fault_fires_first():
    # An element's value error fires before a later element's shape error.
    doc = {"d": 1, "elements": [{"id": 0, "cap": -1, "weight": 1}, {"id": True, "cap": 1, "weight": 1}],
           "family": [[0]]}
    with pytest.raises(ValidationError, match=r"^element 0: negative capacity -1$"):
        parse_instance(json.dumps(doc))

    # Every shape error of the family fires before the instance rules, which
    # fire in order: duplicate ids, d, then set by set.
    def document(ids, d, family):
        return json.dumps({"d": d, "elements": [{"id": x, "cap": 1, "weight": 1} for x in ids],
                           "family": family})

    for text, error, message in (
        (document([0, 0], 0, [[], [0, 0], [5], "x"]), MalformedInput, "each family set must be a list of integer ids"),
        (document([0, 0], 0, [[], [0, 0], [5]]), ValidationError, "duplicate element ids"),
        (document([0, 1], 0, [[], [0, 0], [5]]), ValidationError, "d must be positive, got 0"),
        (document([0, 1], 2, [[], [0, 0], [5]]), ValidationError, "set 0 is empty"),
        (document([0, 1], 2, [[0, 0], [5]]), ValidationError, "set 0 repeats an element id"),
        (document([0, 1], 1, [[0, 5]]), ValidationError, "set 0 has 2 > d=1 elements"),
        (document([0, 1], 2, [[1, 0], [5]]), ValidationError, "set 1 names unknown element 5"),
    ):
        with pytest.raises(error, match=f"^{message}$"):
            parse_instance(text)


def test_solution_and_assignment_basics():
    inst = generate_instance(GEN_PARAMS, seed=7)
    sol = Solution(copies={1: 1, 4: 1, 5: 2})
    assert sol.size() == 4
    assert sol.weight(inst) == 6 + 1 + 2 * 2
    with pytest.raises(ValidationError):
        Solution(copies={1: 0})


def test_solution_serialization_round_trip():
    sol = Solution(copies={3: 2, 0: 1})
    asg = Assignment(target={0: 3, 2: 0})
    text = serialize_solution(sol, asg)
    back_sol, back_asg = parse_solution(text)
    assert back_sol == sol
    assert back_asg == asg
    bare, none_asg = parse_solution(serialize_solution(sol))
    assert bare == sol
    assert none_asg is None
    with pytest.raises(MalformedInput):
        parse_solution('{"copies": {"x": 1}}')
    with pytest.raises(MalformedInput):
        parse_solution('{"copies": {"0": "one"}}')


def test_equivalence_classes_partition_the_family():
    for seed in range(8):
        inst = generate_instance(GEN_PARAMS, seed=seed)
        S = [e.id for e in inst.elements[:3]]
        classes = equivalence_classes(inst, S)
        seen = 0
        for key, mask in classes.items():
            assert key == tuple(sorted(key))
            assert mask and not seen & mask
            for j in range(inst.m):
                if mask >> j & 1:
                    assert tuple(sorted(set(inst.family[j]) & set(S))) == key
            seen |= mask
        assert seen == (1 << inst.m) - 1


def _masks(index_tuples: dict) -> dict:
    return {key: sum(1 << j for j in idxs) for key, idxs in index_tuples.items()}


@st.composite
def class_cases(draw):
    """(instance, S, pi): sparse ids, repeated sets, possibly no sets; S
    unsorted with repeats; pi sends each class to a drawn element of S."""
    ids = draw(st.lists(st.integers(-50, 10**6), min_size=1, max_size=7, unique=True))
    members = st.lists(st.sampled_from(ids), min_size=1, max_size=3, unique=True)
    family = tuple(draw(st.lists(members, max_size=12)))
    inst = Instance(elements=tuple(Element(id=x, cap=1) for x in ids), family=family, d=3)
    S = draw(st.lists(st.sampled_from(ids), max_size=6))
    classes = rescan_classes(inst, S)
    pi = {E: draw(st.sampled_from(S)) for E in classes if S and (E or draw(st.booleans()))}
    return inst, S, pi


@given(class_cases())
def test_refined_classes_and_stars_match_a_family_rescan(case):
    # The split of each class by hits[x] gives the rescan's classes as masks,
    # in class order, and the OR of masks along pi gives its stars.
    inst, S, pi = case
    rescan = rescan_classes(inst, S)
    classes = equivalence_classes(inst, S)
    assert list(classes.items()) == sorted(_masks(rescan).items())
    assert stars(classes, pi) == _masks(rescan_stars(rescan, pi))


def test_equivalence_classes_reject_an_unknown_element():
    inst = generate_instance(GEN_PARAMS, seed=3)
    with pytest.raises(UnknownElement):
        equivalence_classes(inst, [0, 99])


def test_hits_has_a_bit_per_set_holding_each_element():
    inst = Instance(
        elements=tuple(Element(id=x, cap=1) for x in (3, 40, 900)),
        family=((40, 3), (900,), (3, 40), (3, 40)),
        d=2,
    )
    assert inst.hits == {3: 0b1101, 40: 0b1101, 900: 0b0010}
    for seed in range(8):
        inst = generate_instance(GEN_PARAMS, seed=seed)
        for x, mask in inst.hits.items():
            assert mask == sum(1 << j for j, members in enumerate(inst.family) if x in members)


def test_owned_has_a_bit_per_set_charged_to_each_element():
    asg = Assignment(target={0: 3, 2: 40, 3: 3, 5: 900})
    assert asg.owned == {3: 0b1001, 40: 0b100, 900: 0b100000}
    for seed in range(8):
        inst = generate_instance(GEN_PARAMS, seed=seed)
        asg = Assignment({j: members[seed % len(members)] for j, members in enumerate(inst.family)})
        counts = Counter(asg.target.values())
        assert {x: mask.bit_count() for x, mask in asg.owned.items()} == counts
        union = 0
        for x, mask in asg.owned.items():
            assert not union & mask
            assert all(asg.target[j] == x for j in range(inst.m) if mask >> j & 1)
            union |= mask
        assert union == (1 << inst.m) - 1


def test_stars_requires_total_plurality():
    inst = generate_instance(GEN_PARAMS, seed=7)
    classes = equivalence_classes(inst, [1, 5])
    keys = [k for k in classes if k]
    pi = {k: k[0] for k in keys}
    grouped = stars(classes, pi)
    assert all(mask >> inst.m == 0 for mask in grouped.values())
    with pytest.raises(PartialPlurality):
        stars(classes, {keys[0]: keys[0][0]})


def test_generate_rejects_bad_params():
    with pytest.raises(ValidationError):
        generate_instance({**GEN_PARAMS, "n": 0}, seed=1)
    with pytest.raises(ValidationError):
        generate_instance({**GEN_PARAMS, "cap_range": (3, 1)}, seed=1)
