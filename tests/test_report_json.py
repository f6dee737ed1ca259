"""The report writer against ``json.dumps(..., sort_keys=True, indent=2)``."""
import contextlib
import io
import json
import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from grcodes.cli import main  # noqa: E402
from grcodes.verify import json_text  # noqa: E402


def _reference(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2)


def _outcome(encode, payload):
    try:
        return encode(payload)
    except Exception as exc:  # the type and the message must match
        return (type(exc), str(exc))


_leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**63, max_value=2**80)
    | st.integers(min_value=-(2**80), max_value=-(2**63))
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e300, 5e-324])
    | st.text()
    | st.sampled_from(['"', "\\", "\n\t\x00\x1f", "é", " ", "\U0001f600", "</script>"])
)
_str_keys = st.text() | st.sampled_from(["", "a", "é", '"q"', "\\", "\n"])


def _containers(children):
    return (
        st.lists(children, max_size=6)
        | st.lists(children, max_size=6).map(tuple)
        | st.dictionaries(_str_keys, children, max_size=6)
        | st.lists(st.integers() | st.booleans(), max_size=8)  # bools inside int lists
        | st.just([])
        | st.just({})
        | st.just(())
    )


_payloads = st.recursive(_leaves, _containers, max_leaves=40)


@settings(max_examples=300, deadline=None)
@given(_payloads)
def test_writer_equals_json_dumps(payload):
    assert json_text(payload) == _reference(payload)


_keys = st.none() | st.booleans() | st.integers() | st.floats() | st.text()


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(_keys, _leaves, max_size=6))
def test_writer_keys_and_key_errors_equal_json_dumps(payload):
    # mixed key types may fail to sort; then both raise the same error
    assert _outcome(json_text, payload) == _outcome(_reference, payload)


class _Opaque:
    pass


@pytest.mark.parametrize(
    "payload",
    [
        {(1, 2): 3},
        {"a": {frozenset(): 1}},
        {1: "a", "b": 2},
        [object()],
        {"a": [1, {1, 2}]},
        {"a": b"bytes"},
        [1j],
        _Opaque(),
        {"a": [_Opaque()]},
    ],
)
def test_writer_raises_like_json_dumps(payload):
    raised = _outcome(json_text, payload)
    assert isinstance(raised, tuple) and raised == _outcome(_reference, payload)


def test_writer_refuses_circular_payloads_like_json_dumps():
    loop = []
    loop.append(loop)
    table = {}
    table["self"] = [table]
    for payload in (loop, table):
        raised = _outcome(json_text, payload)
        assert raised == (ValueError, "Circular reference detected")
        assert raised == _outcome(_reference, payload)
    shared = [1, 2]
    assert json_text([shared, shared, {"x": shared}]) == _reference([shared, shared, {"x": shared}])


@pytest.mark.parametrize("p, r", [(2, 2), (3, 1)])
def test_sweep_report_is_the_json_dumps_text(p, r):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        status = main(["gauss", "--sweep", "--full", "--p", str(p), "--r", str(r),
                       "--format", "json"])
    assert status == 0
    assert out.getvalue() == _reference(json.loads(out.getvalue())) + "\n"
