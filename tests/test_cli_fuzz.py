"""Arbitrary and near-valid JSON into every subcommand: an exit code, never a traceback.

Each run must exit 0, 1 or 2.  Exit 2 prints an {"error": ...} document;
every other exit prints the command's JSON document, or for a certify that
exits 0 its CSV row.
Inputs are valid documents, valid documents with one key or value broken,
documents of another kind, any JSON, and text that is not JSON.  Fraction-valued
options (--epsilon, --alpha, --beta, rho=, bucket_base=) take values past the
float range, just below 1, zero, negative, or with a zero denominator.
Search constants that are valid but extreme (rho near 0, bucket bases near 1,
huge top_t, thresholds and trial counts, threshold 0) must end solve-approx
within a wall-clock bound, on its answer, its budget or its trial cap.
"""

import contextlib
import io
import json
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from caphs.cli import CSV_COLUMNS, main

from _oracles import THREE_REGULAR_EDGES

ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 6) | st.floats(-2, 6) | st.text(max_size=3),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=6), kids, max_size=3),
    max_leaves=6,
)
BAD_KEYS = st.sampled_from(["01", " 1", "1_0", "-0", "x", ""])


@st.composite
def instances(draw):
    n, d = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    sets = st.sets(st.integers(0, n - 1), min_size=1, max_size=d).map(sorted)
    return {
        "format": 1,
        "d": d,
        "elements": [
            {"id": i, "cap": draw(st.integers(0, 3)), "mult": draw(st.none() | st.integers(1, 3)),
             "weight": draw(st.integers(0, 5))}
            for i in range(n)
        ],
        "family": draw(st.lists(sets, min_size=1, max_size=4)),
    }


def id_map(values):
    return st.dictionaries(st.integers(0, 4).map(str), values, max_size=4)


SOLUTIONS = st.fixed_dictionaries(
    {"copies": id_map(st.integers(1, 3))}, optional={"assignment": id_map(st.integers(0, 4))}
)


@st.composite
def csps(draw):
    n = draw(st.integers(1, 2))
    pairs = st.lists(st.lists(st.integers(1, n), min_size=2, max_size=2), max_size=4)
    if draw(st.booleans()):
        k = draw(st.sampled_from(sorted(THREE_REGULAR_EDGES)))
        edges = THREE_REGULAR_EDGES[k]
    else:
        k = draw(st.integers(2, 5))
        edge = st.lists(st.integers(0, k - 1), min_size=2, max_size=2, unique=True)
        edges = draw(st.lists(edge, max_size=8))
    cons = [{"u": u, "v": v, "allowed": draw(pairs)} for u, v in edges]
    return {"format": 1, "k": k, "n": n, "constraints": cons}


@st.composite
def mdks(draw):
    d = draw(st.integers(1, 3))
    row = st.lists(st.integers(0, 3), min_size=d, max_size=d)
    return {"format": 1, "d": d, "k": draw(st.integers(0, 3)), "target": draw(row),
            "vectors": draw(st.lists(row, max_size=4))}


SHAPED = {"instance": instances(), "solution": SOLUTIONS, "csp": csps(), "mdk": mdks()}


@st.composite
def broken(draw, docs):
    """A document with one value replaced by any JSON, one entry dropped, or
    one object key renamed, somewhere down a random path."""
    doc = draw(docs)
    node = doc
    while isinstance(node, (dict, list)) and node:
        key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        child = node[key]
        if isinstance(child, (dict, list)) and child and draw(st.booleans()):
            node = child
            continue
        how = draw(st.sampled_from(["replace", "drop", "rekey"]))
        if how == "replace":
            node[key] = draw(ANY_JSON)
        else:
            del node[key]
            if how == "rekey" and isinstance(node, dict):
                node[draw(BAD_KEYS)] = child
        break
    return doc


def document(kind):
    good = SHAPED[kind]
    others = st.one_of(*SHAPED.values())
    docs = st.one_of(good, good, good, good, broken(good), broken(good), others, ANY_JSON)
    return st.one_of(*[docs.map(json.dumps)] * 7, st.text(max_size=6))


# Values of a fraction-valued option: ordinary ones, past the float range
# either way, just below 1, zero, negative, and a zero denominator.
FRACTIONS = st.sampled_from(
    ["1/2", "5/4", "1e400", "1e-400", "0.99999999999999999999", "0", "-0.5", "-1e400", "1/0"]
)

# argv before the input paths ("K" stands for a drawn --k, each "F" for a
# drawn fraction), and the input kinds.
COMMANDS = [
    (["check"], ("instance", "solution")),
    (["solve-exact", "--k", "K"], ("instance",)),
    (["solve-exact", "--weighted", "--k", "K"], ("instance",)),
    (["solve-approx", "--k", "K"], ("instance",)),
    (["solve-approx", "--epsilon=F", "--k", "K"], ("instance",)),
    (["solve-approx", "--mode", "enumerate", "--budget", "40", "--k", "K"], ("instance",)),
    (["solve-approx", "--mode", "enumerate", "--budget", "40", "--epsilon=F", "--k", "K"], ("instance",)),
    (["solve-approx", "--override-const", "rho=F", "--override-const", "bucket_base=F", "--k", "K"],
     ("instance",)),
    (["certify", "--k", "K"], ("instance",)),
    (["reduce", "csp-mdk"], ("csp",)),
    (["reduce", "csp-mdk-cov"], ("csp",)),
    (["reduce", "csp-mdk-cov", "--alpha=F", "--beta=F"], ("csp",)),
    (["reduce", "mdk-cvc"], ("mdk",)),
    (["reduce", "mdk-wcvc"], ("mdk",)),
]


@st.composite
def runs(draw):
    argv, kinds = draw(st.sampled_from(COMMANDS))
    k = str(draw(st.integers(-1, 3)))

    def fill(a):
        if a == "K":
            return k
        return a.replace("F", draw(FRACTIONS)) if a.endswith("F") else a

    return [fill(a) for a in argv], [draw(document(kind)) for kind in kinds]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=300)
@given(run=runs())
def test_any_document_ends_in_an_exit_code(workdir, run):
    argv, texts = run
    paths = []
    for i, text in enumerate(texts):
        path = workdir / f"in{i}.json"
        path.write_text(text, encoding="utf-8")
        paths.append(str(path))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv + paths)
    out = out.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert set(json.loads(out)) == {"error"}
        # A --k of 0 or more is never refused for its value.
        if "--k" in argv and int(argv[argv.index("--k") + 1]) >= 0:
            assert not json.loads(out)["error"]["message"].startswith("k must")
    elif argv[0] == "certify" and code == 0:
        assert len(out.strip().split(",")) == len(CSV_COLUMNS.split(","))
    else:
        assert isinstance(json.loads(out), dict)


# Valid but extreme values of each --override-const search constant.
EXTREME_CONSTANTS = {
    "rho": ["1e-300", "0.000001", "1/3"],
    "bucket_base": ["1.0001", "1.000000001", "100000000000000000000"],
    "top_t": ["1", "2", "1000000000000"],
    "small_class_threshold": ["0", "1", "1000000000000000"],
    "max_coloring_trials": ["1", "1000000000000"],
}


@st.composite
def extreme_runs(draw):
    """solve-approx argv (k <= 3, budget <= 2000, either mode, some extreme
    constants) and a valid instance document with n <= 6."""
    n, d = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    sets = st.sets(st.integers(0, n - 1), min_size=1, max_size=d).map(sorted)
    doc = {
        "format": 1,
        "d": d,
        "elements": [
            {"id": i, "cap": draw(st.integers(0, 3)), "mult": draw(st.none() | st.integers(1, 3)),
             "weight": draw(st.integers(0, 5))}
            for i in range(n)
        ],
        "family": draw(st.lists(sets, min_size=1, max_size=6)),
    }
    argv = ["solve-approx", "--k", str(draw(st.integers(1, 3))),
            "--budget", str(draw(st.integers(1, 2000))),
            "--mode", draw(st.sampled_from(["guided", "enumerate"]))]
    for key, values in EXTREME_CONSTANTS.items():
        value = draw(st.none() | st.sampled_from(values))
        if value is not None:
            argv += ["--override-const", f"{key}={value}"]
    return argv, json.dumps(doc)


# One coloring allowed: guided mode may stop on the trial cap, not the budget.
ONE_TRIAL = (["solve-approx", "--k", "2", "--budget", "118", "--override-const", "top_t=2",
              "--override-const", "max_coloring_trials=1"],
             json.dumps({"format": 1, "d": 3, "elements": [{"id": 0, "cap": 1, "mult": 2, "weight": 5}],
                         "family": [[0], [0]]}))


@settings(max_examples=150, deadline=None)
@example(run=ONE_TRIAL)
@given(run=extreme_runs())
def test_extreme_search_constants_end_in_bounded_time(workdir, run):
    argv, text = run
    path = workdir / "extreme.json"
    path.write_text(text, encoding="utf-8")
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = main(argv + [str(path)])
    assert time.perf_counter() - start < 2.0, argv
    doc = json.loads(out.getvalue())  # one JSON document
    assert code in (0, 1, 2)
    # Every constant is valid, so only the budget or the trial cap may stop the solve.
    assert code != 2 or doc["error"]["type"] in ("BudgetExceeded", "NoColoringSeparates"), doc
