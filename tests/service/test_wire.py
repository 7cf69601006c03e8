"""The service encoder: bit-exact float round trips, the catalog apps'
payloads through their stored bytes, non-finite values, and the fixed
result envelope."""

from __future__ import annotations

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.kvstore.partitioned import PartitionedKVStore
from repro.service import FrontDoor, JobRequest, JobStatus, default_catalog
from repro.service.wire import decode, encode, result_body

#: Float64 values a text encoding most easily gets wrong.
EDGE_FLOATS = [-0.0, 0.0, 5e-324, 1.7976931348623157e308, 1e16, 1e-5,
               -1.7976931348623157e308, 2.2250738585072014e-308, 0.1, 1 / 3]


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def assert_identical(decoded, original):
    """Equal structure, and every float equal bit for bit (so -0.0 and
    0.0 differ, as do a float and an int of the same value)."""
    if isinstance(original, float):
        assert isinstance(decoded, float), (decoded, original)
        assert _bits(decoded) == _bits(original), (decoded, original)
    elif isinstance(original, dict):
        assert isinstance(decoded, dict) and decoded.keys() == original.keys()
        for key, value in original.items():
            assert_identical(decoded[key], value)
    elif isinstance(original, (list, tuple)):
        assert isinstance(decoded, list) and len(decoded) == len(original)
        for got, want in zip(decoded, original):
            assert_identical(got, want)
    else:
        assert type(decoded) is type(original) and decoded == original


finite_floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    EDGE_FLOATS
)
leaves = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**63), max_value=2**63 - 1)
    | finite_floats
    | st.text(max_size=8)
)
payloads = st.recursive(
    leaves,
    lambda children: st.lists(children, max_size=6)
    | st.dictionaries(st.text(max_size=6), children, max_size=6),
    max_leaves=40,
)


class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(hnp.arrays(np.float64, hnp.array_shapes(max_dims=2, max_side=12),
                      elements=finite_floats))
    def test_float64_arrays_are_bit_identical(self, array):
        for value in (array.tolist(), array):  # a collect's list, or the array itself
            raw = encode(value)
            back = np.asarray(decode(raw), dtype=np.float64).reshape(array.shape)
            assert back.view(np.uint64).tolist() == array.view(np.uint64).tolist()
            # a stdlib client reads the very same bits
            std = np.asarray(json.loads(raw), dtype=np.float64).reshape(array.shape)
            assert std.view(np.uint64).tolist() == array.view(np.uint64).tolist()

    @settings(max_examples=200, deadline=None)
    @given(payloads)
    def test_nested_payloads_are_bit_identical(self, payload):
        raw = encode(payload)
        assert_identical(decode(raw), payload)
        assert_identical(json.loads(raw), payload)

    def test_edge_floats(self):
        assert_identical(decode(encode(EDGE_FLOATS)), EDGE_FLOATS)
        assert_identical(decode(encode({"x": EDGE_FLOATS})), {"x": EDGE_FLOATS})

    def test_keys_are_sorted_and_output_compact(self):
        assert encode({"b": [1, 2.5], "a": {"d": None, "c": True}}) == (
            b'{"a":{"c":true,"d":null},"b":[1,2.5]}'
        )

    @pytest.mark.parametrize("value", [{1, 2}, {1: "int key"}, 2**64, object()])
    def test_what_json_cannot_hold_is_a_type_error(self, value):
        with pytest.raises(TypeError):
            encode(value)


class TestNonFinite:
    def test_nan_and_infinities_encode_as_null(self):
        """JSON has no NaN or Infinity; they become ``null`` rather
        than the non-standard tokens ``json.dumps`` writes."""
        nan, inf = float("nan"), float("inf")
        assert encode([nan, inf, -inf, 1.0]) == b"[null,null,null,1.0]"
        assert encode(np.array([nan, -inf])) == b"[null,null]"
        assert decode(encode({"x": nan})) == {"x": None}

    def test_bodies_parse_under_strict_json(self):
        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        raw = encode({"r": [float("nan"), float("inf"), 0.5]})
        body = result_body("abc123", False, raw)
        assert json.loads(body, parse_constant=reject)["result"] == {"r": [None, None, 0.5]}


class TestEnvelope:
    def test_fixed_envelope(self):
        assert result_body("0123abcd", True, b'{"x":[1.5]}') == (
            b'{"cached": true, "job_id": "0123abcd", "result": {"x":[1.5]}}'
        )
        assert result_body("f", False, b"null") == (
            b'{"cached": false, "job_id": "f", "result": null}'
        )

    def test_envelope_is_what_sorted_json_dumps_would_frame(self):
        """Same keys, order and separators as ``json.dumps(sort_keys=True)``
        of the whole body: only the payload inside is compact."""
        payload = {"a": [1, 2]}
        ours = result_body("j1", False, encode(payload))
        theirs = json.dumps(
            {"job_id": "j1", "cached": False, "result": payload}, sort_keys=True
        ).encode()
        key = b'"result": '
        assert ours[: ours.index(key)] == theirs[: theirs.index(key)]
        assert json.loads(ours) == json.loads(theirs)


# -- the catalog apps through their stored bytes -------------------------------------
APPS = {
    "pagerank": {"n_vertices": 60, "n_edges": 300, "iterations": 4, "seed": 3},
    "sssp": {"n_vertices": 80, "n_edges": 240, "seed": 4, "source": 2},
    "summa": {"m": 12, "n": 10, "inner": 8, "seed": 5},
    "kmeans": {"n_points": 60, "k": 3, "seed": 2},
}


def recording_catalog(collected):
    """The default catalog, with each ``collect`` return value kept in
    *collected* under its app name."""
    catalog = default_catalog()
    prepare = catalog.prepare

    def recording_prepare(store, request):
        prepared = prepare(store, request)
        collect = prepared.collect

        def keep(store, result):
            collected[request.app] = value = collect(store, result)
            return value

        prepared.collect = keep
        return prepared

    catalog.prepare = recording_prepare
    return catalog


@pytest.mark.parametrize("runtime", ["inline", "threaded", "process"])
def test_catalog_payloads_decode_to_what_collect_returned(runtime):
    collected = {}
    with PartitionedKVStore(n_partitions=3, runtime=runtime) as store:
        with FrontDoor(
            store, catalog=recording_catalog(collected), runtime=runtime,
            max_concurrent=1,
        ) as fd:
            for app, params in APPS.items():
                record = fd.submit(JobRequest(app=app, params=params))
                assert record.wait(120) and record.status is JobStatus.DONE, record.error
                assert_identical(record.payload, collected[app])
                assert_identical(fd.result(record.job_id), collected[app])
                assert record.result_json == encode(collected[app])
    assert set(collected) == set(APPS)
