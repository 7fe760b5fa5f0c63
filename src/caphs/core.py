"""Instance model, validation, parsing, equivalence classes, and seeded generation.

An instance is a universe of elements (each with a capacity, a multiplicity,
and a weight) plus an ordered multi-family of sets of size at most d.  The
family index is the identity of a set occurrence: the same member list may
appear many times and each occurrence must be covered separately.
Instance.hits is the one element-to-set incidence: how many sets of a group
(given as a bitmask of family indices) contain x is (hits[x] & group).bit_count().

Validation happens at the boundary: the parsers check a document's shape, and
every model checks its fields when built, refusing a bool where an integer
belongs.  Each Element and Instance rule lives in one helper, _check_element
or _checked_family, which the model checks call and parse_instance calls
inside its loops, so a parsed document is checked once and its models are
built through _trusted, the one unchecked builder.  The builders whose output
is canonical and valid by construction (reductions._cvc_instance, csp_to_mdk,
csp_to_mdk_covering, and approx's expand_multiplicities, enumerate_tuples and
good_tuple_from_opt) build through it too and skip the re-check.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

from .errors import MalformedInput, PartialPlurality, UnknownElement, ValidationError
from .pcg import Stream

FORMAT_VERSION = 1

# Multiplicity sentinel: an element with mult=None may be bought any number of
# times.  Algorithms clamp it with copy_limit before use.
UNBOUNDED = None


@dataclass(frozen=True)
class Element:
    id: int
    cap: int
    mult: int | None = 1
    weight: int = 1

    def __post_init__(self):
        if not (_is_int(self.id) and _is_int(self.cap) and _is_int(self.weight)
                and (self.mult is None or _is_int(self.mult))):
            raise ValidationError(f"element {self.id!r}: id, cap, mult and weight must be integers")
        _check_element(self.id, self.cap, self.mult, self.weight)


def _check_element(ident: int, cap: int, mult: int | None, weight: int) -> None:
    """An element's value rules, on integer fields: cap and weight at least 0,
    mult at least 1 or None."""
    if cap < 0:
        raise ValidationError(f"element {ident}: negative capacity {cap}")
    if weight < 0:
        raise ValidationError(f"element {ident}: negative weight {weight}")
    if mult is not None and mult < 1:
        raise ValidationError(f"element {ident}: multiplicity {mult} < 1")


def copy_limit(e: Element, k: int) -> int:
    """The most copies of e a size-k solution buys: min(k, mult), or k if unbounded."""
    return k if e.mult is None else min(k, e.mult)


@dataclass(frozen=True)
class Instance:
    elements: tuple[Element, ...]
    family: tuple[tuple[int, ...], ...]
    d: int

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        family = _checked_family([e.id for e in self.elements], self.family, self.d)
        object.__setattr__(self, "family", family)

    @cached_property
    def by_id(self) -> dict[int, Element]:
        return {e.id: e for e in self.elements}

    @cached_property
    def hits(self) -> dict[int, int]:
        """Each element id's bitmask of the family indices of the sets containing it."""
        out = dict.fromkeys(self.by_id, 0)
        for j, members in enumerate(self.family):
            for x in members:
                out[x] |= 1 << j
        return out

    def element(self, x: int) -> Element:
        try:
            return self.by_id[x]
        except KeyError:
            raise UnknownElement(f"no element with id {x}") from None

    @property
    def n(self) -> int:
        return len(self.elements)

    @property
    def m(self) -> int:
        return len(self.family)


def _checked_family(ids: list, family, d, int_members: bool = False) -> tuple[tuple[int, ...], ...]:
    """family with every set sorted, once the instance rules hold: distinct
    element ids, an integer d of at least 1, and sets that are nonempty, repeat
    no id, hold at most d ids and name only the given ones.  int_members says
    that every member is an integer already, so only membership is tested."""
    known = set(ids)
    if len(ids) != len(known):
        raise ValidationError("duplicate element ids")
    if not _is_int(d):
        raise ValidationError(f"d must be an integer, got {d!r}")
    if d < 1:
        raise ValidationError(f"d must be positive, got {d}")
    out = []
    for idx, members in enumerate(family):
        members = tuple(sorted(members))
        if not members:
            raise ValidationError(f"set {idx} is empty")
        if len(set(members)) != len(members):
            raise ValidationError(f"set {idx} repeats an element id")
        if len(members) > d:
            raise ValidationError(f"set {idx} has {len(members)} > d={d} elements")
        if not (known.issuperset(members) and (int_members or all(map(_is_int, members)))):
            x = next(x for x in members if not _is_int(x) or x not in known)
            raise ValidationError(f"set {idx} names unknown element {x}")
        out.append(members)
    return tuple(out)


@dataclass(frozen=True)
class Solution:
    """A multiset of bought element copies (id -> positive copy count)."""

    copies: dict[int, int]

    def __post_init__(self):
        for x, c in self.copies.items():
            if not _is_int(c) or c < 1:
                raise ValidationError(f"copy count for element {x} must be a positive int")

    def size(self) -> int:
        return sum(self.copies.values())

    def weight(self, inst: Instance) -> int:
        return sum(inst.element(x).weight * c for x, c in self.copies.items())


@dataclass(frozen=True)
class Assignment:
    """Covering map: family index -> the element id the set occurrence is charged to."""

    target: dict[int, int]

    @cached_property
    def owned(self) -> dict[int, int]:
        """Each target element id's bitmask of the family indices charged to it."""
        out: dict[int, int] = {}
        for j, x in self.target.items():
            out[x] = out.get(x, 0) | 1 << j
        return out


@dataclass(frozen=True)
class Result:
    """What every solver returns: the solution, an assignment that covers
    every set with it, and its weight."""

    solution: Solution
    assignment: Assignment
    weight: int


def equivalence_classes(inst: Instance, S) -> dict[tuple[int, ...], int]:
    """Group family indices by A ∩ S, as set masks.

    Args:
        inst: the instance.
        S: iterable of element ids; must all exist in inst.

    Returns:
        A dict from each realized class, the sorted tuple A ∩ S, to the mask
        of its family indices, in class order (sorted); the empty tuple
        collects every set disjoint from S.  The masks partition
        range(inst.m): each x of S, ascending, splits every class by hits[x].
    """
    classes = {(): (1 << inst.m) - 1} if inst.m else {}
    for x in sorted(set(S)):
        if x not in inst.by_id:
            raise UnknownElement(f"S mentions unknown element {x}")
        h = inst.hits[x]
        split = {}
        for E, mask in classes.items():
            if inside := mask & h:
                split[E + (x,)] = inside
            if outside := mask & ~h:
                split[E] = outside
        classes = split
    return dict(sorted(classes.items()))


def stars(classes: dict, pi: dict[tuple[int, ...], int]) -> dict[int, int]:
    """OR the class masks along a plurality map: A_s = U {A_E : pi(E) = s}.

    classes maps each class to its set mask, in any order, as
    equivalence_classes returns it.  pi must cover every nonempty realized
    class; it may additionally map the empty class.  Raises PartialPlurality
    when a required class is missing.
    """
    for E in classes:
        if E and E not in pi:
            raise PartialPlurality(f"plurality map misses class {E}")
    out: dict[int, int] = {}
    for E, mask in classes.items():
        if E in pi:
            out[pi[E]] = out.get(pi[E], 0) | mask
    return out


def _subset_count(n: int, d: int) -> int:
    return sum(math.comb(n, j) for j in range(1, d + 1))


def _unrank_subset(rank: int, n: int, d: int) -> tuple[int, ...]:
    """Rank order: size ascending, then lexicographic within a size."""
    for j in range(1, d + 1):
        c = math.comb(n, j)
        if rank < c:
            break
        rank -= c
    combo = []
    x = 0
    for pos in range(j):
        while True:
            block = math.comb(n - 1 - x, j - 1 - pos)
            if rank < block:
                combo.append(x)
                x += 1
                break
            rank -= block
            x += 1
    return tuple(combo)


def generate_instance(params: dict, seed: int) -> Instance:
    """Draw a random instance, deterministically for a fixed (params, seed).

    Args:
        params: dict with keys n, m, d and inclusive integer ranges
            cap_range, weight_range, mult_range (each a (lo, hi) pair).
        seed: RNG seed.

    Returns:
        An Instance with n elements and m sets, each set uniform among the
        nonempty subsets of the universe of size at most d.
    """
    n, m, d = params["n"], params["m"], params["d"]
    if n < 1 or m < 1 or d < 1:
        raise ValidationError("n, m, d must all be at least 1")
    ranges = {}
    for key in ("cap_range", "weight_range", "mult_range"):
        lo, hi = params[key]
        if lo > hi:
            raise ValidationError(f"{key} is empty")
        ranges[key] = (int(lo), int(hi))
    rng = Stream(int(seed))
    elements = []
    for i in range(n):
        cap = rng.integers(ranges["cap_range"][0], ranges["cap_range"][1] + 1)
        weight = rng.integers(ranges["weight_range"][0], ranges["weight_range"][1] + 1)
        mult = rng.integers(ranges["mult_range"][0], ranges["mult_range"][1] + 1)
        elements.append(Element(id=i, cap=cap, mult=mult, weight=weight))
    total = _subset_count(n, min(d, n))
    family = []
    for _ in range(m):
        r = rng.integers(0, total)
        family.append(_unrank_subset(r, n, min(d, n)))
    return Instance(elements=tuple(elements), family=tuple(family), d=d)


def json_text(obj) -> str:
    """Every document's output format: 2-space indent, non-ASCII kept, newline-terminated."""
    return json.dumps(obj, indent=2, ensure_ascii=False) + "\n"


def serialize_instance(inst: Instance) -> str:
    """Instance JSON: format, d, elements (id/cap/mult/weight), family.

    mult null means unbounded.  UTF-8, newline-terminated.
    """
    obj = {
        "format": FORMAT_VERSION,
        "d": inst.d,
        "elements": [
            {"id": e.id, "cap": e.cap, "mult": e.mult, "weight": e.weight}
            for e in inst.elements
        ],
        "family": [list(s) for s in inst.family],
    }
    return json_text(obj)


def solution_document(sol: Solution, asg: Assignment | None = None) -> dict:
    """{"copies": ..., "assignment": ...}, keyed by element id and set index
    as strings in ascending order; the assignment only when asg is given."""
    obj: dict = {"copies": {str(x): c for x, c in sorted(sol.copies.items())}}
    if asg is not None:
        obj["assignment"] = {str(j): x for j, x in sorted(asg.target.items())}
    return obj


def serialize_solution(sol: Solution, asg: Assignment | None = None) -> str:
    """Solution JSON: the solution_document, newline-terminated."""
    return json_text(solution_document(sol, asg))


def parse_solution(text: str) -> tuple[Solution, Assignment | None]:
    obj = _load_object(text, "solution document")
    _expect("copies" in obj and isinstance(obj["copies"], dict), "missing copies object")
    copies = _id_keyed(obj["copies"], "copies key {!r} is not an element id",
                       "copy counts must be integers")
    asg = None
    if obj.get("assignment") is not None:
        _expect(isinstance(obj["assignment"], dict), "assignment must be an object")
        asg = Assignment(_id_keyed(obj["assignment"], "assignment key {!r} is not a set index",
                                   "assignment values must be element ids"))
    return Solution(copies), asg


def _id_keyed(obj: dict, key_error: str, value_error: str) -> dict[int, int]:
    """obj with int keys.  Each key must be an integer in canonical form
    (str(int(key)) == key, so "01" and "1_0" are refused and no two keys name
    one id) and each value a JSON integer; MalformedInput otherwise."""
    out = {}
    for key, v in obj.items():
        try:
            canonical = str(int(key)) == key
        except ValueError:
            canonical = False
        _expect(canonical, key_error, key)
        _expect(_is_int(v), value_error)
        out[int(key)] = v
    return out


def _expect(cond: bool, msg: str, *args):
    """MalformedInput unless cond, with msg formatted with args only then, so
    a check run per item of a document builds no message."""
    if not cond:
        raise MalformedInput(msg.format(*args) if args else msg)


def _load_object(text: str, what: str) -> dict:
    """Decode a JSON document whose top level must be an object.

    Every decoding failure is MalformedInput, including nesting too deep for
    the decoder, integers past the interpreter's digit limit and an object
    that repeats a key.
    """
    try:
        obj = json.loads(text, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:
        raise MalformedInput(f"not valid JSON: {exc}") from None
    _expect(isinstance(obj, dict), f"{what} must be a JSON object")
    return obj


def _unique_keys(pairs: list) -> dict:
    """A decoded JSON object; a key it repeats is MalformedInput, not last-wins."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        raise MalformedInput("a JSON object repeats a key")
    return obj


def _is_int(v) -> bool:
    """An integer that is not a bool: true/false are rejected although bool subclasses int."""
    return isinstance(v, int) and not isinstance(v, bool)


def _trusted(cls, **fields):
    """A frozen dataclass built without __init__ or __post_init__: only for a
    builder whose fields are canonical and valid by construction."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _check_format(value) -> None:
    """Accept only the integer FORMAT_VERSION (true == 1, so the type is checked)."""
    if not (_is_int(value) and value == FORMAT_VERSION):
        raise ValidationError(f"unsupported format {value!r}")


def parse_instance(text: str) -> Instance:
    """Parse the instance JSON format.

    Raises MalformedInput for syntax or structural problems and
    ValidationError when the described instance breaks a model invariant
    (oversized or empty sets, unknown ids, negative capacities, ...).  Each
    rule is checked once, by the helpers the Element and Instance checks
    share, and the models are built through _trusted.  An element's value
    error fires at that element; every shape error of the family fires
    before the instance's own rules are checked.
    """
    obj = _load_object(text, "instance document")
    if "format" in obj:
        _check_format(obj["format"])
    for key in ("d", "elements", "family"):
        _expect(key in obj, f"missing key {key!r}")
    d = obj["d"]
    _expect(_is_int(d), "d must be an integer")
    _expect(isinstance(obj["elements"], list), "elements must be a list")
    _expect(isinstance(obj["family"], list), "family must be a list")
    elements = []
    # Per element and per set the checks raise directly, without a call each
    # to _expect or _is_int: a decoded JSON integer is an int and true or
    # false a bool, so on the document's values type(v) is int is _is_int(v).
    for ent in obj["elements"]:
        if not isinstance(ent, dict):
            raise MalformedInput("each element must be an object")
        if "id" not in ent or "cap" not in ent:
            raise MalformedInput("element needs id and cap")
        ident, cap, mult, weight = ent["id"], ent["cap"], ent.get("mult", UNBOUNDED), ent.get("weight")
        if type(ident) is not int or type(cap) is not int:
            raise MalformedInput("element id and cap must be integers")
        if mult is not None and type(mult) is not int:
            raise MalformedInput("mult must be an integer or null")
        if type(weight) is not int:
            raise MalformedInput("element needs an integer weight")
        _check_element(ident, cap, mult, weight)
        elements.append(_trusted(Element, id=ident, cap=cap, mult=mult, weight=weight))
    for s in obj["family"]:
        if not (isinstance(s, list) and all([type(x) is int for x in s])):
            raise MalformedInput("each family set must be a list of integer ids")
    family = _checked_family([e.id for e in elements], obj["family"], d, int_members=True)
    return _trusted(Instance, elements=tuple(elements), family=family, d=d)
