"""Mutated input for every loader of the command line.

Each example starts from a valid input and changes it a little, so that most
examples get past the first check.  Whatever the input, ``cli.main`` returns
0, 1 or 2, lets no exception escape and writes its ``--json`` report, and
``rees.rees_from_json_dict`` returns a structure or raises an
``AlgebraError``.
"""

import json
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

import oracles
from monocat.bimodule import Bimodule
from monocat.cli import main
from monocat.connectivity import connecting_category
from monocat.core import Monoid, adjoin_identity, dump_cayley, validate_semigroup
from monocat.corpus import FAMILIES
from monocat.errors import AlgebraError
from monocat.rees import ReesMatrixSemigroup, rees_from_json_dict, rees_to_json_dict
from monocat.twocat import category_to_json_dict, slot_bimodule

FUZZ = settings(max_examples=40, deadline=None, derandomize=True)

MONOIDS = {
    "t2": Monoid(validate_semigroup(oracles.t2_table()), oracles.T2_ID),
    "z2": Monoid(validate_semigroup(oracles.cyclic_table(2)), 0),
    "lz1": adjoin_identity(validate_semigroup(oracles.lz2_table())),
    "band": adjoin_identity(validate_semigroup(oracles.band22_table())),
}
CAYLEY = {name: dump_cayley(m) for name, m in MONOIDS.items()}
CATEGORIES = {name: category_to_json_dict(connecting_category(m)) for name, m in MONOIDS.items()}


def _bimodule_json(bm: Bimodule) -> dict:
    return {"left_monoid": {"table": bm.left_monoid.table, "identity": bm.left_monoid.identity},
            "right_monoid": {"table": bm.right_monoid.table, "identity": bm.right_monoid.identity},
            "size": bm.size, "left_action": bm.left_action, "right_action": bm.right_action}


# the L bimodule of an envelope, and the R bimodule, over the same middle monoid
BIMODULES = [json.loads(json.dumps(_bimodule_json(slot_bimodule(connecting_category(m), slot))))
             for m in (MONOIDS["t2"], MONOIDS["band"]) for slot in ("L", "R")]
REES = rees_to_json_dict(ReesMatrixSemigroup(MONOIDS["z2"], 2, 3, ((0, 1), (1, 0), (0, 0))))

TOKENS = ["0", "1", "2", "3", "-1", "99", "10000000000", "²", "٣", "1.5", "1e3", "x", " ", "\n",
          "#", "identity", "null", "[", "]", "{", "}", ",", '"', ":", "true", "-"]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.sampled_from([10**12, -10**12])
    | st.floats(-3, 3, allow_nan=False) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=6)


@st.composite
def mutated_text(draw, text: str) -> str:
    """``text`` with one to three spans deleted, replaced or inserted."""
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 4)))
        text = text[:i] + draw(st.sampled_from(["", *TOKENS])) + text[j:]
    return text


def _paths(value, path=()):
    """Every position in a JSON value, as the keys that lead to it."""
    yield path
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _paths(v, (*path, k))
    elif isinstance(value, list):
        for k, v in enumerate(value):
            yield from _paths(v, (*path, k))


@st.composite
def mutated_json(draw, value):
    """``value`` with one to three positions, the whole value included,
    replaced by other JSON values or removed; sometimes the JSON text
    itself is mutated instead."""
    value = json.loads(json.dumps(value))
    if draw(st.integers(0, 4)) == 0:
        return draw(mutated_text(json.dumps(value)))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(value))))
        if not path:
            value = draw(JSON_VALUES)
            continue
        *keys, last = path
        parent = value
        for key in keys:
            parent = parent[key]
        if draw(st.booleans()):
            del parent[last]
        else:
            parent[last] = draw(JSON_VALUES)
    return json.dumps(value)


def _run(args: list[str], files: dict[str, str]):
    """``main`` on ``args`` with each name in ``files`` written to a file."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, text in files.items():
            paths[name] = str(Path(tmp, name))
            Path(paths[name]).write_text(text)
        report = Path(tmp, "report.json")
        code = main(["--quiet", "--json", str(report),
                     *(paths.get(a, a.replace("{tmp}", tmp)) for a in args)])
        status = json.loads(report.read_text())["status"]
    assert code in (0, 1, 2)
    assert {0: "ok", 1: "violation", 2: "error"}[code] == status, (args, files)


@FUZZ
@given(st.sampled_from(list(CAYLEY)).flatmap(lambda name: mutated_text(CAYLEY[name])))
def test_cayley_text(text):
    valid = CAYLEY["t2"]
    category = json.dumps(CATEGORIES["t2"])
    for args in (["validate", "m.cayley"], ["kernel", "m.cayley"],
                 ["category", "build", "m.cayley"], ["rees", "m.cayley"],
                 ["connect", "m.cayley", "v.cayley"], ["connect", "v.cayley", "m.cayley"],
                 ["extract", "c.json", "--monoid", "m.cayley"]):
        _run(args, {"m.cayley": text, "v.cayley": valid, "c.json": category})
    _run(["suite", "{tmp}"], {"m.cayley": text})


@FUZZ
@given(st.sampled_from(list(CATEGORIES)), st.booleans(), st.data())
def test_category_json(name, as_report, data):
    category = CATEGORIES[name]
    if as_report:  # a build report carries the category under results
        category = {"command": "category build", "results": {"category": category}}
    files = {"c.json": data.draw(mutated_json(category)), "v.json": json.dumps(CATEGORIES[name]),
             "m.cayley": CAYLEY[name]}
    for args in (["category", "check", "c.json"], ["extract", "c.json", "--monoid", "m.cayley"],
                 ["compose", "c.json", "v.json"], ["compose", "v.json", "c.json"]):
        _run(args, files)


@FUZZ
@given(st.integers(0, 1).flatmap(
    lambda pair: st.tuples(st.just(pair), st.integers(0, 1), mutated_json(BIMODULES[2 * pair]))))
def test_bimodule_json(case):
    pair, side, text = case
    files = {"x.json": text, "y.json": json.dumps(BIMODULES[2 * pair + 1])}
    _run(["tensor", "x.json", "y.json"] if side else ["tensor", "y.json", "x.json"], files)


PARAMS = st.lists(st.sampled_from(["-2", "-1", "0", "1", "2", "3", "10000000000", "²", "x", "",
                                   "cyclic", "symmetric"]), max_size=5)


@FUZZ
@given(st.sampled_from([*FAMILIES, "standard", "mystery"]), PARAMS)
def test_corpus_parameters(family, params):
    _run(["corpus", "--out", "{tmp}/out", family, "--", *params], {})


@FUZZ
@given(mutated_json(REES))
def test_rees_json(text):
    try:
        payload = json.loads(text)
    except ValueError:
        return
    try:
        rees_from_json_dict(payload)
    except AlgebraError:
        pass
