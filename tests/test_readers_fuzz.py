"""Mutated input documents of every command, run in-process through ``cli.main``.

Each example takes valid inputs of one command, breaks one node of one JSON
document (a wrong type, a boolean, a numeric string, a NaN or infinity, an
integer beyond the float range, a magnitude of 1e300 or 1e-300, an emptied or
doubled list, a dropped or an extra key) and runs the command.  It must exit
0, 2 or 3 without raising, an exit 2 must name a field, a flag, a list
position or a CSV line, and no artifact may hold a NaN.  Sizes stay small (at
most 40 samples, ``max_norm`` at most 12, ``cap --n 16``, no solve above n = 40
in green or bernstein), so the 240 examples take a few seconds.
"""

import contextlib
import copy
import io
import json
import math
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holocap.cli import main


def _circle(count, radius):
    return [[radius * math.cos(2 * math.pi * k / count), radius * math.sin(2 * math.pi * k / count)]
            for k in range(count)]


SEGMENT = {"shape": "segment", "a": [-1, 0], "b": [1, 0]}
DISK = {"shape": "disk", "center": [0.5, 0], "radius": 1.5}
CLOUD = {"shape": "cloud", "points": _circle(12, 1.0)}
SETS = [DISK, SEGMENT, CLOUD,
        {"shape": "union", "parts": [{"shape": "segment", "a": [-2, 0], "b": [-1, 0]},
                                     {"shape": "segment", "a": [1, 0], "b": [2, 0]}]}]
# green and bernstein solve at the default n = 128 unless the set is a cloud of fewer
# points, so their union is one of clouds
SMALL_SETS = SETS[:3] + [{"shape": "union", "parts": [CLOUD, {"shape": "cloud",
                                                              "points": _circle(6, 2.0)}]}]
PRODUCT = {"kind": "product", "factors": [DISK, SEGMENT]}
PREDICATES = [{"kind": "ball", "center": [[0, 0], [0.5, 0]], "radius": 0.7}, PRODUCT,
              {"kind": "linear_image", "matrix": [[[1, 0], [0.5, 0]], [[0, 0], [1, 0]]],
               "of": PRODUCT}]
GEOMETRIC = {"kind": "geometric", "lambda": [1, 0], "max_norm": 12}
SEQUENCES = [GEOMETRIC, {"kind": "geometric", "lambda": [0.5, 0.2], "max_norm": 8, "k": 2},
             {"kind": "constant", "value": [2, -1], "max_norm": 6},
             {"kind": "sqrt_degree", "max_norm": 12},
             {"kind": "table", "max_norm": 6, "declared_C0": 0, "declared_C1": 1, "entries": [
                 {"index": [n], "coefficients": [[0, 0]] * n + [[1, 0.5]]} for n in range(7)]}]
SAMPLES = _circle(40, 0.9)
CONFIGS = [{"window": 4, "i_max": 50, "theta": 0.5, "z2_max": 100.0, "eps_cap": 1e-4,
            "sublinear_tol": 0.05, "mode": "extension"}, {"mode": "uniform", "sublinear_tol": 0.5}]
POLY = {"coefficients": [[1, 0], [0, 0], [-2, 0.5]]}
POINTS_CSV = "re,im\n3,0\n0,2.5\n"

# command: (its JSON inputs, each a list of valid documents; the other arguments)
COMMANDS = {
    "cap": ({"--set": SETS}, ["--n", "16", "--candidates", "64"]),
    "green": ({"--set": SMALL_SETS}, []),
    "bernstein": ({"--poly": [POLY], "--set": SMALL_SETS}, []),
    "gammacap": ({"--set": PREDICATES}, ["--unitaries", "2"]),
    "extend": ({"--seq": SEQUENCES, "--samples": [SAMPLES], "--config": CONFIGS}, []),
    "eval": ({"--cert": [], "--seq": [GEOMETRIC]},   # the certificate is made once, below
             ["--z1", "0.1", "--z2", "0.5", "--tol", "1e-6"]),
}
CSV_INPUTS = {"green": POINTS_CSV, "bernstein": POINTS_CSV}

BAD_VALUES = ["abc", "1", "0.5", "-2e3", "NaN", True, False, None, math.nan, math.inf,
              -math.inf, 10 ** 309, -(10 ** 309), 2 * 10 ** 308, 0, -1, 0.5, 7, {}, [],
              1e300, -1e300, 1e-300]

# an exit-2 message names a field (quoted), a flag, a list position, a CSV line or a
# table index, or the document when it is not of its JSON type
NAMED = re.compile(r"'[A-Za-z_]\w*'|argument --\w+|line \d+|item \d+|table index \["
                   r"|^input error: \w+ must be ")


@pytest.fixture(scope="module")
def certificate():
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: str(Path(tmp) / f"{name}.json") for name in ("seq", "samples", "cert")}
        Path(paths["seq"]).write_text(json.dumps(GEOMETRIC))
        Path(paths["samples"]).write_text(json.dumps(SAMPLES))
        assert main(["extend", "--seq", paths["seq"], "--samples", paths["samples"],
                     "--out", paths["cert"]]) == 0
        return json.loads(Path(paths["cert"]).read_text())


def _paths(doc, path=()):
    """The path of every node of a JSON document, the root's first."""
    yield path
    if isinstance(doc, (dict, list)):
        for key, child in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from _paths(child, path + (key,))


@st.composite
def mutated(draw, doc):
    """``doc`` with one node replaced, emptied or doubled, one key dropped or one added."""
    doc = copy.deepcopy(doc)
    path = draw(st.sampled_from(list(_paths(doc))))
    node = doc
    for key in path:
        node = node[key]
    kinds = ["replace"] + (["drop"] if path and isinstance(path[-1], str) else [])
    if isinstance(node, (dict, list)):
        kinds += ["extra"] if isinstance(node, dict) else ["empty", "double"]
    kind = draw(st.sampled_from(kinds))
    if kind == "extra":
        node["extra"] = draw(st.sampled_from(BAD_VALUES))
        return doc
    if kind == "replace":
        new = draw(st.sampled_from(BAD_VALUES))
    elif kind in ("empty", "double"):
        new = [] if kind == "empty" else node + node
    if not path:
        return new
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if kind == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = new
    return doc


@pytest.mark.parametrize("command", list(COMMANDS))
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_mutated_documents_exit_named(certificate, command, data):
    inputs, extra = COMMANDS[command]
    docs = {flag: data.draw(st.sampled_from(choices or [certificate]), label=flag)
            for flag, choices in inputs.items()}
    target = data.draw(st.sampled_from(sorted(docs)), label="mutated input")
    docs[target] = data.draw(mutated(docs[target]), label="mutated document")
    with tempfile.TemporaryDirectory() as tmp:
        argv = [command, *extra, "--out", str(Path(tmp) / "out.json")]
        for flag, doc in docs.items():
            path = Path(tmp) / f"{flag[2:]}.json"
            path.write_text(json.dumps(doc))
            argv += [flag, str(path)]
        if command in CSV_INPUTS:
            (Path(tmp) / "points.csv").write_text(CSV_INPUTS[command])
            argv += ["--points", str(Path(tmp) / "points.csv")]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2, 3), err.getvalue()
        if code == 2:
            assert NAMED.search(err.getvalue()), err.getvalue()
        for artifact in Path(tmp).glob("out*"):
            assert "NaN" not in artifact.read_text(), artifact.name
