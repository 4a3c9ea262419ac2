"""Property test: one mutated entry of the demo corpus never takes down a run.

Each draw copies the demo corpus and mutates one entry: an expression nested
deep, an expression raised to a large power, a count set out of range, the
cascade seed set to either kind, a field given a value of the wrong JSON
type, an unknown field added, or a log-deriv denominator given a residual
factor of 1 to 3 coefficients (zero, constant, linear in z, or the entry's
own texts), so that a residual of positive degree reaches the common-root
test.
``cli.run`` must return 0, 1 or 2 and never raise, and a 2 must name the
entry and the field.  The run is ``classify``: the load converts and checks
every field and request, whatever the subcommand, and the caps bound what an
accepted request can cost.
"""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddelab import cli
from ddelab.corpus import demo_corpus_text

DEMO = json.loads(demo_corpus_text())

# values of every JSON type, and a few of the wrong kind of string
_WRONG_TYPES = st.sampled_from([
    None, True, False, 0, -1, 2.5, float("nan"), float("inf"), "", "z", "kind",
    [], ["z"], [1, 2], [[1.0, 0.0]], {}, {"root": "z"}, {"a": []},
])


def _expression_fields(entry):
    """(label, container, key) of every expression text of an entry."""
    out = [(key, entry, key) for key in ("a", "b", "c") if key in entry]
    out += [(f"p[{i}]", entry["p"], i) for i in range(len(entry.get("p", ())))]
    out += [(f"q_factors[{i}].root", item, "root")
            for i, item in enumerate(entry.get("q_factors", ()))]
    return out


def _count_fields(entry):
    """(label, container, key) of every count an entry carries or may carry."""
    cascade = entry.setdefault("cascade", {})
    out = [(f"cascade.{key}", cascade, key) for key in ("steps", "order")]
    for name, keys in (("verify", ("samples", "p")), ("nev", ("radii", "p"))):
        request = entry.get(name)
        if request is not None:
            out += [(f"{name}.{key}", request, key) for key in keys
                    if key in request or key == ("samples" if name == "verify" else "radii")]
    out += [(f"q_factors[{i}].mult", item, "mult")
            for i, item in enumerate(entry.get("q_factors", ()))]
    return out


def _any_fields(entry):
    """(label, container, key) of every field of an entry and of its requests."""
    out = [(key, entry, key) for key in entry]
    for name in ("cascade", "verify", "nev"):
        if isinstance(entry.get(name), dict):
            out += [(f"{name}.{key}", entry[name], key) for key in entry[name]]
    for i, item in enumerate(entry.get("q_factors", ())):
        out += [(f"q_factors[{i}]", entry["q_factors"], i),
                (f"q_factors[{i}].mult", item, "mult")]
    return out + [(f"p[{i}]", entry["p"], i) for i in range(len(entry.get("p", ())))]


@st.composite
def mutated_corpora(draw):
    """A demo corpus with one entry mutated, how errors name that entry, and the
    mutated field as errors name it."""
    corpus = copy.deepcopy(DEMO)
    index = draw(st.integers(0, len(corpus["entries"]) - 1))
    entry = corpus["entries"][index]
    kinds = ["nesting", "power", "count", "seed", "type", "unknown"]
    if entry["class"] == "log-deriv":
        kinds.append("residual")
    kind = draw(st.sampled_from(kinds))
    if kind == "nesting":
        label, where, key = draw(st.sampled_from(_expression_fields(entry)))
        depth = draw(st.integers(0, 250))
        opener = draw(st.sampled_from(["(", "-", "(-", "-("]))
        closer = ")" * (depth * opener.count("("))
        where[key] = opener * depth + where[key] + closer
    elif kind == "power":
        label, where, key = draw(st.sampled_from(_expression_fields(entry)))
        powers = draw(st.lists(
            st.one_of(st.integers(-70, 70), st.integers(-10**40, 10**40)), min_size=1, max_size=3))
        where[key] = f"({where[key]})" + "".join(f"^{n}" for n in powers)
    elif kind == "count":
        label, where, key = draw(st.sampled_from(_count_fields(entry)))
        where[key] = draw(st.one_of(
            st.integers(-3, 12), st.integers(-2**70, 2**70), st.sampled_from([10**6, 10**100])))
    elif kind == "seed":
        # an inverse-square cascade needs a zero seed; log-deriv ones ignore it
        label, where, key = "cascade.seed", entry.setdefault("cascade", {}), "seed"
        where[key] = draw(st.sampled_from(["zero-of-w", "pole-of-w"]))
    elif kind == "residual":
        label, where, key = "q_residual", entry, "q_residual"
        texts = ["0", "1", "2", "z", "2*z+1", "i*z"] + [box[k] for _, box, k in _expression_fields(entry)]
        where[key] = draw(st.lists(st.sampled_from(texts), min_size=1, max_size=3))
    elif kind == "type":
        label, where, key = draw(st.sampled_from(_any_fields(entry)))
        where[key] = draw(_WRONG_TYPES)
    else:
        fields = [("", entry)] + [(f"{name}.", entry[name]) for name in ("cascade", "verify", "nev")
                                  if isinstance(entry.get(name), dict)]
        prefix, where = draw(st.sampled_from(fields))
        key = draw(st.sampled_from(["colour", "sample", "rmin", "kind", "q_residuals", "mult"]))
        if key in where:
            key += "_"
        label = key
        where[key] = draw(st.one_of(_WRONG_TYPES, st.integers()))
    # an entry without a usable id is named by its position
    entry_id = entry.get("id")
    name = repr(entry_id) if isinstance(entry_id, str) and entry_id else str(index)
    return corpus, name, label


def _run(tmp_path, corpus):
    """Exit code and standard error of ``classify`` on a corpus."""
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps(corpus))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.run(["classify", "--corpus", str(path), "--format", "json",
                        "--out", str(path.with_suffix(".out"))])
    return code, err.getvalue()


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(mutated_corpora())
def test_a_mutated_entry_never_takes_down_the_run(tmp_path_factory, mutation):
    corpus, name, label = mutation
    code, err = _run(tmp_path_factory.mktemp("corpus"), corpus)
    assert code in (cli.EXIT_OK, cli.EXIT_ANALYSIS_FAIL, cli.EXIT_USAGE)
    if code == cli.EXIT_USAGE:
        assert err.startswith(f"error: entry {name}: "), err
        # a request field by its own name: r_max below r_min is named at r_min, "r_max = ..."
        assert label.rsplit(".", 1)[-1] in err, (label, err)


@pytest.mark.parametrize("field, value, label", [
    # the id's own error named no entry
    ("id", None, "id"),
    # a list as the class escaped the load as a TypeError
    ("class", ["log-deriv"], "class"),
    # a factor without a root escaped as a KeyError
    ("q_factors", [{"mult": 1}], "q_factors[0]"),
    # the load expanded (w - z)^1000000
    ("q_factors", [{"root": "z", "mult": 10**6}], "q_factors[0].mult"),
    ("q_factors", [{"root": "z", "mult": 40}, {"root": "2*z", "mult": 25}], "q_factors[1].mult"),
    # a residual that made Q zero, or zero at w = 0, was reported without its field
    ("q_residual", ["0"], "q_residual"),
    ("q_residual", ["0", "1"], "q_residual"),
    # a repeated root was named only as 'q_factors', 'q_residual'
    ("q_factors", [{"root": "z"}, {"root": "z"}], "q_factors[1].root"),
    # classify's common-root test runs Euclid on P and the residual, whose cost grows with n
    ("p", ["1"] * 66, "'p'"),
    ("q_residual", ["z", "1"] * 33, "'q_residual'"),
])
def test_mutations_that_once_took_down_the_run(tmp_path, field, value, label):
    corpus = copy.deepcopy(DEMO)
    index, entry = next((i, e) for i, e in enumerate(corpus["entries"]) if e["id"] == "branch-first")
    entry[field] = value
    code, err = _run(tmp_path, corpus)
    name = index if field == "id" else repr("branch-first")
    assert code == cli.EXIT_USAGE and err.startswith(f"error: entry {name}: ") and label in err, err


def test_an_entry_that_is_not_an_object_is_named_by_position(tmp_path):
    corpus = copy.deepcopy(DEMO)
    corpus["entries"][3] = [corpus["entries"][3]["id"]]
    assert _run(tmp_path, corpus) == (cli.EXIT_USAGE, "error: entry 3: must be a JSON object\n")


def test_multiplicities_load_up_to_64_in_all(tmp_path):
    corpus = copy.deepcopy(DEMO)
    entry = next(e for e in corpus["entries"] if e["id"] == "branch-first")
    entry["q_factors"] = [{"root": "z", "mult": 40}, {"root": "2*z", "mult": 24}]
    assert _run(tmp_path, corpus) == (cli.EXIT_OK, "")
