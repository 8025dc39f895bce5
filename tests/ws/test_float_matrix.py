"""The typed float-matrix SOAP value and the struct that carries one.

``repro:floatMatrix`` ships a list of float rows as base64 doubles and
``repro:struct`` ships a dict holding such a list as typed children.
Both must decode to exactly the value encoded (types and float bits
included), be chosen by exact type only, reject malformed attributes
quickly and in bounded memory, and leave every value that stays on
``repro:json`` byte-identical to the JSON-only codec.
"""

import json
import math
import struct
import time
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data import arff, synthetic
from repro.errors import ServiceError
from repro.ml import evaluation
from repro.ml.classifiers import NaiveBayes
from repro.services.classifier_service import ClassifierService
from repro.services.j48_service import J48Service
from repro.services.math_service import MathService
from repro.ws import soap
from repro.ws.soap import FLOAT_MATRIX_MIN_FLOATS as FLOOR

TYPE = f"{{{soap.XSI_NS}}}type"
GOLDEN = Path(__file__).parent / "golden"


def encoded(value) -> ET.Element:
    """The element *value* encodes to, re-parsed from its wire bytes."""
    root = ET.Element("r")
    soap._encode_value(root, "v", value)
    return ET.fromstring(ET.tostring(root))[0]


def roundtrip(value):
    return soap._decode_value(encoded(value))


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


def same(a, b) -> bool:
    """Equal in value and in type at every level; floats by their bits."""
    if type(a) is not type(b):
        return False
    if type(a) is float:
        return bits(a) == bits(b)
    if type(a) is list:
        return len(a) == len(b) and all(map(same, a, b))
    if type(a) is dict:
        return list(a) == list(b) and all(same(a[k], b[k]) for k in a)
    return a == b


def matrix(present: int, cols: int, missing=()) -> list:
    rows = [[float(r * cols + c) + 0.25 for c in range(cols)]
            for r in range(present)]
    for pos in missing:
        rows.insert(pos, None)
    return rows


# -- the round-trip property --------------------------------------------------

SPECIAL = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0,
                           5e-324, -1.7976931348623157e308])
FLOATS = st.one_of(st.floats(allow_nan=False), SPECIAL)
SCALARS = st.one_of(st.none(), st.booleans(),
                    st.integers(-2 ** 63, 2 ** 63), FLOATS,
                    st.text(max_size=6))
IDENTIFIERS = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,5}", fullmatch=True)
KEYS = st.one_of(IDENTIFIERS, st.text(max_size=4))


@st.composite
def float_matrices(draw):
    """Float-row lists just below, at and just above the floor, with
    ``None`` rows sprinkled in."""
    cols = draw(st.sampled_from([1, 2, 4, 8]))
    present = FLOOR // cols + draw(st.sampled_from([-1, 0, 1]))
    rows = draw(st.lists(st.lists(FLOATS, min_size=cols, max_size=cols),
                         min_size=present, max_size=present))
    for _ in range(draw(st.integers(0, 3))):
        rows.insert(draw(st.integers(0, len(rows))), None)
    return rows


JSON_SHAPED = st.recursive(
    st.one_of(SCALARS, float_matrices()),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(KEYS, inner, max_size=4)),
    max_leaves=6)


@settings(max_examples=150, deadline=None)
@given(value=JSON_SHAPED)
def test_property_decode_returns_the_encoded_value(value):
    assert same(roundtrip(value), value)


@settings(max_examples=60, deadline=None)
@given(rows=float_matrices(), key=KEYS)
def test_property_matrices_and_structs_roundtrip(rows, key):
    wrapped = {key: rows, "n": len(rows), "tag": "x", "f": -0.0}
    assert same(roundtrip(rows), rows)
    assert same(roundtrip(wrapped), wrapped)
    assert same(roundtrip([rows, wrapped]), [rows, wrapped])


# -- which values take the typed element --------------------------------------

class TestPathSelection:
    @pytest.mark.parametrize("cols", [1, 2, 3, 8])
    def test_floor_is_the_boundary(self, cols):
        at = matrix(math.ceil(FLOOR / cols), cols)
        below = matrix(math.ceil(FLOOR / cols) - 1, cols)
        assert encoded(at).get(TYPE) == "repro:floatMatrix"
        assert encoded(below).get(TYPE) == "repro:json"

    def test_missing_rows_do_not_count_toward_the_floor(self):
        rows = matrix(FLOOR // 2 - 1, 2, missing=[0, 5, 9])
        assert encoded(rows).get(TYPE) == "repro:json"
        rows = matrix(FLOOR // 2, 2, missing=[0, 5, 9])
        el = encoded(rows)
        assert el.get(TYPE) == "repro:floatMatrix"
        assert el.get("missing") == "0 5 9"
        assert el.get("rows") == str(FLOOR // 2 + 3)

    @pytest.mark.parametrize("spoil", [
        lambda rows: rows[3].__setitem__(0, 7),              # an int
        lambda rows: rows[3].__setitem__(0, True),           # a bool
        lambda rows: rows[3].__setitem__(0, np.float64(1)),  # subclass
        lambda rows: rows[3].append(1.0),                    # ragged
        lambda rows: rows.__setitem__(3, tuple(rows[3])),    # a tuple row
        lambda rows: rows.__setitem__(3, [[1.0], 2.0]),      # nested
        lambda rows: rows.append("x"),                       # a string
    ])
    def test_inexact_types_stay_json_byte_for_byte(self, spoil):
        rows = matrix(FLOOR, 2)
        spoil(rows)
        el = encoded(rows)
        assert el.get(TYPE) == "repro:json"
        assert el.text == json.dumps(rows)

    def test_all_missing_and_empty_stay_json(self):
        assert encoded([None] * FLOOR).get(TYPE) == "repro:json"
        assert encoded([[]] * FLOOR).get(TYPE) == "repro:json"
        assert encoded([]).get(TYPE) == "repro:json"

    def test_dict_with_identifier_keys_becomes_a_struct(self):
        value = {"labels": ["a", "b"], "distributions": matrix(FLOOR, 2),
                 "errors": [], "scored": 2, "ratio": 0.5, "none": None,
                 "nested": {"k": [1, 2]}}
        el = encoded(value)
        assert el.get(TYPE) == "repro:struct"
        kinds = {child.tag: child.get(TYPE) for child in el}
        assert kinds == {"labels": "repro:json",
                         "distributions": "repro:floatMatrix",
                         "errors": "repro:json", "scored": "xsd:int",
                         "ratio": "xsd:double", "none": None,
                         "nested": "repro:json"}
        assert same(soap._decode_value(el), value)

    @pytest.mark.parametrize("key", ["has space", "", "1st", "é", 3])
    def test_non_identifier_keys_keep_the_dict_on_json(self, key):
        value = {key: matrix(FLOOR, 2), "ok": 1}
        el = encoded(value)
        assert el.get(TYPE) == "repro:json"

    def test_dict_without_a_matrix_stays_json(self):
        value = {"rows": matrix(FLOOR - 1, 1), "deep": {"m": matrix(FLOOR, 1)}}
        assert encoded(value).get(TYPE) == "repro:json"

    def test_special_floats_are_bit_exact(self):
        payload_nan = struct.unpack("<d", struct.pack(
            "<Q", 0x7FF8_DEAD_0000_0001))[0]
        rows = matrix(FLOOR // 2, 2)
        rows[0] = [math.nan, -0.0]
        rows[1] = [math.inf, -math.inf]
        rows[2] = [payload_nan, -math.nan]
        rows[3] = [5e-324, 0.0]
        back = roundtrip(rows)
        for got, want in zip(back, rows):
            assert [bits(x) for x in got] == [bits(x) for x in want]

    def test_bulk_score_result_roundtrips_through_an_envelope(self):
        ds = synthetic.breast_cancer()
        model = NaiveBayes().fit(ds)
        for rows in (None, [0, -1, *range(40), 10 ** 30, 7]):
            out = evaluation.bulk_score(model, ds, rows)
            document = soap.encode_response(
                soap.SoapResponse("NB", "classifyBatch", out))
            assert b"repro:struct" in document
            back = soap.decode_response(document).result
            assert same(back, out)

    def test_multicall_items_use_the_typed_element(self):
        rows = matrix(FLOOR, 1, missing=[2])
        response = soap.SoapResponse("S", soap.MULTICALL_OP, [
            soap.CallOutcome(result=rows), soap.CallOutcome(result=[1.0])])
        document = soap.encode_response(response)
        assert b"repro:floatMatrix" in document
        back = soap.decode_response(document).result
        assert same(back[0].result, rows) and same(back[1].result, [1.0])

    def test_type_dispatch_is_by_exact_local_name(self):
        el = ET.Element("v", {TYPE: "repro:notjson"})
        el.text = "[1, 2]"
        assert soap._decode_value(el) == "[1, 2]"
        el.set(TYPE, "my:bigint")
        el.text = "12"
        assert soap._decode_value(el) == "12"
        el.set(TYPE, "anyprefix:int")
        assert soap._decode_value(el) == 12


# -- malformed typed elements -------------------------------------------------

def valid_element(present: int = 40, cols: int = 2,
                  missing=(3, 7)) -> ET.Element:
    el = encoded(matrix(present, cols, missing))
    assert el.get(TYPE) == "repro:floatMatrix"
    return el


def mutated(**changes) -> ET.Element:
    el = valid_element()
    for name, value in changes.items():
        if name == "text":
            el.text = value(el.text)
        elif value is None:
            el.attrib.pop(name, None)
        else:
            el.set(name, value)
    return el


MALFORMED = {
    "truncated base64": mutated(text=lambda t: t[:-4]),
    "truncated by one char": mutated(text=lambda t: t[:-1]),
    "extra base64": mutated(text=lambda t: t + "AAAAAAAAAAA="),
    "non-base64 text": mutated(text=lambda t: "!!" + t[2:]),
    "non-ascii text": mutated(text=lambda t: "é" + t[1:]),
    "rows one too many": mutated(rows="43"),
    "rows one too few": mutated(rows="41"),
    "cols lie": mutated(cols="3"),
    "cols zero": mutated(cols="0"),
    "negative rows": mutated(rows="-42"),
    "non-numeric cols": mutated(cols="two"),
    "missing rows attr": mutated(rows=None),
    "unsorted missing": mutated(missing="7 3"),
    "duplicated missing": mutated(missing="3 3"),
    "missing out of range": mutated(missing="3 42"),
    "negative missing": mutated(missing="-1 3"),
    "non-numeric missing": mutated(missing="3 x"),
    "dropped missing": mutated(missing=None),
    "huge rows": mutated(rows="999999999999999999"),
    "huge cols": mutated(cols="999999999999999999"),
    "huge rows and cols": mutated(rows="999999999999999999",
                                  cols="999999999999999999", missing=None),
    "beyond int64 rows": mutated(rows="9" * 40),
    "huge all-missing shape": mutated(rows="999999999999999999",
                                      missing="0 1", text=lambda t: ""),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_matrix_is_rejected_quickly_in_bounded_memory(case):
    el = MALFORMED[case]
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(ServiceError):
            soap._decode_value(el)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1.0
    assert peak < 1_000_000, peak


@settings(max_examples=200, deadline=None)
@given(rows=st.text(max_size=8), cols=st.text(max_size=8),
       missing=st.text(max_size=12), text=st.text(max_size=40))
def test_property_arbitrary_attributes_decode_or_raise_service_error(
        rows, cols, missing, text):
    el = ET.Element("v", {TYPE: "repro:floatMatrix", "rows": rows,
                          "cols": cols, "missing": missing})
    el.text = text
    try:
        out = soap._decode_value(el)
    except ServiceError:
        return
    assert type(out) is list and len(out) == int(rows)


def test_struct_with_repeated_member_is_rejected():
    el = ET.Element("v", {TYPE: "repro:struct"})
    for _ in range(2):
        ET.SubElement(el, "a", {TYPE: "xsd:int"}).text = "1"
    with pytest.raises(ServiceError):
        soap._decode_value(el)


# -- envelopes that stay on repro:json ----------------------------------------

#: name -> (service, operation, the result); each table or graph holds
#: fewer floats than the floor, or none at all
GOLDEN_CASES = {
    "tabulate": ("Math", "tabulate",
                 lambda: MathService().tabulate("sinc", -2.5, 1.75, 9)),
    "tabulate_default": ("Math", "tabulate",
                         lambda: MathService().tabulate("log")),
    "getOptions_ZeroR": ("Classifier", "getOptions",
                         lambda: ClassifierService().getOptions("ZeroR")),
    "classifyGraph": ("J48", "classifyGraph",
                      lambda: J48Service().classifyGraph(
                          arff.dumps(synthetic.breast_cancer()), "Class")),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_envelopes_are_byte_identical(name):
    """These results must encode to the envelopes recorded from the
    JSON-only codec (``golden/*.xml``) byte for byte."""
    service, operation, result = GOLDEN_CASES[name]
    document = soap.encode_response(
        soap.SoapResponse(service, operation, result()))
    assert document == (GOLDEN / f"{name}.xml").read_bytes()
