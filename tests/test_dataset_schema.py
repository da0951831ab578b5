"""Property test of the dataset JSON schema through `qreality tomo <file>`.

A valid payload is built for 1 or 2 qubits and then damaged in one way:
a field dropped or retyped, a wrong length, an unknown basis letter, a bad
count, a setting listed twice or left out, huge shot budgets, or a top
level that is not an object.  Every damaged file must exit 1 with exactly
one `error:` line of at most 300 bytes on stderr.  A valid payload with its
settings reordered must exit 0 and write the same bytes as the payload in
its original order.
"""

import contextlib
import io
import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qreality.cli import main
from qreality.tomography import MAX_COUNT

FIELDS = ("n_qubits", "shots_per_setting", "seed", "settings")
MAX_ERROR_BYTES = 300  # a rejected value is echoed cut to 80 characters

# Every JSON type; each damage below filters out what would stay valid.
json_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.floats(),
    st.text(max_size=3),
    st.lists(st.integers(0, 3), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=2),
)
# Booleans, numeric strings and integral floats are what a lax int() check
# lets through, so the last two get branches of their own.
not_int = st.one_of(
    json_values, st.integers(-9, 9).map(str), st.integers(-9, 9).map(float)
).filter(lambda v: type(v) is not int)
not_basis = json_values.filter(lambda v: v not in ("Z", "X", "Y"))
bad_counts = st.one_of(
    st.integers(max_value=-1),
    st.floats(),
    st.booleans(),
    st.integers(MAX_COUNT + 1, 2**80),
)


@st.composite
def valid_payloads(draw):
    n = draw(st.integers(1, 2))
    shots = draw(st.one_of(st.integers(1, 1000), st.integers(1, MAX_COUNT)))
    items = []
    for bases in itertools.product("ZXY", repeat=n):
        total = draw(st.integers(1, shots))
        cuts = sorted(draw(st.lists(st.integers(0, total), min_size=2**n - 1, max_size=2**n - 1)))
        row = [b - a for a, b in zip([0] + cuts, cuts + [total])]
        items.append({"bases": list(bases), "counts": row})
    seed = draw(st.integers(-(2**70), 2**70))
    return {"n_qubits": n, "shots_per_setting": shots, "seed": seed, "settings": items}


def _drop_field(draw, payload):
    del payload[draw(st.sampled_from(FIELDS))]


def _retype(field):
    values = not_int if field != "settings" else json_values.filter(
        lambda v: not isinstance(v, list) or not v
    )

    def damage(draw, payload):
        payload[field] = draw(values)

    damage.__name__ = f"_retype_{field}"
    return damage


def _nonpositive_header(draw, payload):
    payload[draw(st.sampled_from(FIELDS[:2]))] = draw(st.integers(-3, 0))


def _huge_shots(draw, payload):
    payload["shots_per_setting"] = shots = draw(st.integers(MAX_COUNT + 1, 2**80))
    if draw(st.booleans()):
        payload["settings"][0]["counts"][0] = draw(st.integers(MAX_COUNT + 1, shots))


def _wrong_bases_length(draw, payload):
    item = draw(st.sampled_from(payload["settings"]))
    length = draw(st.integers(0, 4).filter(lambda k: k != payload["n_qubits"]))
    item["bases"] = (item["bases"] * 4)[:length]


def _wrong_counts_length(draw, payload):
    item = draw(st.sampled_from(payload["settings"]))
    length = draw(st.integers(0, 6).filter(lambda k: k != 2 ** payload["n_qubits"]))
    item["counts"] = (item["counts"] * 6)[:length]


def _unknown_basis(draw, payload):
    item = draw(st.sampled_from(payload["settings"]))
    item["bases"][draw(st.integers(0, payload["n_qubits"] - 1))] = draw(not_basis)


def _bad_count(draw, payload):
    item = draw(st.sampled_from(payload["settings"]))
    item["counts"][draw(st.integers(0, len(item["counts"]) - 1))] = draw(bad_counts)


def _overfull_row(draw, payload):
    item = draw(st.sampled_from(payload["settings"]))
    item["counts"][0] += payload["shots_per_setting"] - sum(item["counts"]) + 1


def _duplicate_setting(draw, payload):
    items = payload["settings"]
    copy = json.loads(json.dumps(draw(st.sampled_from(items))))
    items.insert(draw(st.integers(0, len(items))), copy)


def _missing_setting(draw, payload):
    del payload["settings"][draw(st.integers(0, len(payload["settings"]) - 1))]


def _item_not_object(draw, payload):
    items = payload["settings"]
    items[draw(st.integers(0, len(items) - 1))] = draw(
        json_values.filter(lambda v: not isinstance(v, dict))
    )


DAMAGES = (
    _drop_field,
    *(_retype(field) for field in FIELDS),
    _nonpositive_header,
    _huge_shots,
    _wrong_bases_length,
    _wrong_counts_length,
    _unknown_basis,
    _bad_count,
    _overfull_row,
    _duplicate_setting,
    _missing_setting,
    _item_not_object,
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("schema")


def run_tomo(directory, payload, text=None):
    """Exit code and stderr of `qreality tomo` on `payload` written as JSON,
    or on the file contents `text` when given."""
    path = directory / "counts.json"
    path.write_text(json.dumps(payload) if text is None else text)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["tomo", str(path), "--out-dir", str(directory / "out")])
    return code, err.getvalue()


@pytest.mark.parametrize("damage", DAMAGES, ids=lambda d: d.__name__.lstrip("_"))
@settings(max_examples=20, deadline=None)
@given(payload=valid_payloads(), data=st.data())
def test_damaged_payload_is_one_error_line(workdir, damage, payload, data):
    damage(data.draw, payload)
    code, err = run_tomo(workdir, payload)
    lines = err.splitlines()
    assert code == 1, (damage.__name__, payload)
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    assert len(err.encode()) <= MAX_ERROR_BYTES, err


@settings(max_examples=25, deadline=None)
@given(
    top=st.one_of(
        st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=3),
        st.lists(st.integers(0, 3), max_size=3),
    )
)
def test_top_level_not_an_object_is_one_error_line(workdir, top):
    code, err = run_tomo(workdir, top)
    assert code == 1
    assert err == "error: top-level JSON value must be an object\n"


@settings(max_examples=25, deadline=None)
@given(payload=valid_payloads(), order=st.randoms(use_true_random=False))
def test_reordered_valid_payload_is_accepted(workdir, payload, order):
    names = ("density_matrix.json", "density_matrix_real.csv", "report.json")
    outputs = []
    for shuffle in (False, True):
        if shuffle:
            order.shuffle(payload["settings"])
        code, err = run_tomo(workdir, payload)
        assert code == 0, err
        assert err == ""
        outputs.append([(workdir / "out" / name).read_bytes() for name in names])
    assert outputs[0] == outputs[1]  # report.json names the same file path both times


def with_long_integer(path, digits):
    """A valid one-qubit dataset file with ``digits`` in place of the value
    at ``path``.  json.dumps cannot write an integer past the 4 300 digits
    that int() converts by default, so the digits replace a placeholder."""
    payload = {
        "n_qubits": 1,
        "shots_per_setting": 10,
        "seed": 7,
        "settings": [{"bases": [b], "counts": [5, 5]} for b in "ZXY"],
    }
    parent = payload
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = "PLACEHOLDER"
    return json.dumps(payload).replace('"PLACEHOLDER"', digits)


@pytest.mark.parametrize(
    "path, where",
    [
        (("seed",), "seed"),
        (("shots_per_setting",), "shots_per_setting"),
        (("settings", 1, "counts", 0), "settings[1].counts[0]"),
    ],
    ids=["seed", "shots", "count"],
)
@pytest.mark.parametrize("sign", ["", "-"], ids=["positive", "negative"])
def test_overlong_integer_names_its_field(workdir, path, where, sign):
    code, err = run_tomo(workdir, None, with_long_integer(path, sign + "9" * 5001))
    assert code == 1
    assert err == f"error: {where}: integer of 5001 digits is too long to convert\n"
    assert len(err.encode()) <= MAX_ERROR_BYTES, err


@pytest.mark.parametrize(
    "path",
    [("comment",), ("settings", 1, "comment")],
    ids=["top-level", "in-setting"],
)
def test_overlong_integer_in_unread_field_is_rejected(workdir, path):
    code, err = run_tomo(workdir, None, with_long_integer(path, "9" * 5001))
    assert code == 1
    assert err == (
        "error: a field the dataset does not use: integer of 5001 digits is too long to convert\n"
    )
