"""Tests for the MongoDB query language implementation."""

import re

import pytest

from repro.docstore import compile_query, matching
from repro.docstore.documents import get_path_multi
from repro.errors import DocstoreError, QuerySyntaxError


def matches(query, doc):
    return compile_query(query).matches(doc)


class TestBareEquality:
    def test_scalar(self):
        assert matches({"a": 1}, {"a": 1})
        assert not matches({"a": 1}, {"a": 2})

    def test_missing_field(self):
        assert not matches({"a": 1}, {"b": 1})

    def test_nested_path(self):
        assert matches({"spec.incar.ENCUT": 520, "state": "done"},
                       {"spec": {"incar": {"ENCUT": 520}}, "state": "done"})

    def test_array_contains_scalar(self):
        # The paper's canonical query shape: elements list membership.
        assert matches({"elements": "Li"}, {"elements": ["Li", "Fe", "O"]})
        assert not matches({"elements": "Na"}, {"elements": ["Li", "Fe", "O"]})

    def test_whole_array_equality(self):
        assert matches({"kpts": [4, 4, 4]}, {"kpts": [4, 4, 4]})
        assert not matches({"kpts": [4, 4]}, {"kpts": [4, 4, 4]})

    def test_subdocument_equality_is_exact(self):
        assert matches({"s": {"a": 1}}, {"s": {"a": 1}})
        assert not matches({"s": {"a": 1}}, {"s": {"a": 1, "b": 2}})

    def test_null_matches_missing_and_null(self):
        assert matches({"a": None}, {"a": None})
        assert matches({"a": None}, {})
        assert not matches({"a": None}, {"a": 1})

    def test_bool_does_not_equal_int(self):
        assert not matches({"a": True}, {"a": 1})
        assert not matches({"a": 1}, {"a": True})

    def test_int_equals_float(self):
        assert matches({"a": 1}, {"a": 1.0})

    def test_regex_as_bare_value(self):
        assert matches({"formula": re.compile(r"^Li")}, {"formula": "LiFePO4"})
        assert not matches({"formula": re.compile(r"^Na")}, {"formula": "LiFePO4"})


class TestComparisons:
    def test_paper_query(self):
        """The exact query from §III-B2 of the paper."""
        query = {"elements": {"$all": ["Li", "O"]}, "nelectrons": {"$lte": 200}}
        assert matches(query, {"elements": ["Li", "Mn", "O"], "nelectrons": 120})
        assert not matches(query, {"elements": ["Li", "Mn", "O"], "nelectrons": 250})
        assert not matches(query, {"elements": ["Na", "O"], "nelectrons": 120})

    def test_gt_lt_range(self):
        q = {"energy": {"$gt": -10, "$lt": 0}}
        assert matches(q, {"energy": -5})
        assert not matches(q, {"energy": -10})
        assert not matches(q, {"energy": 0})

    def test_gte_lte_inclusive(self):
        q = {"n": {"$gte": 3, "$lte": 3}}
        assert matches(q, {"n": 3})
        assert not matches(q, {"n": 2})

    def test_type_bracketing_numbers_vs_strings(self):
        assert not matches({"a": {"$gt": 5}}, {"a": "zebra"})
        assert not matches({"a": {"$lt": "m"}}, {"a": 3})

    def test_range_on_array_fans_out(self):
        assert matches({"scores": {"$gt": 90}}, {"scores": [50, 95]})
        assert not matches({"scores": {"$gt": 90}}, {"scores": [50, 60]})

    def test_missing_field_never_in_range(self):
        assert not matches({"a": {"$gt": 0}}, {})
        assert not matches({"a": {"$lt": 0}}, {})

    def test_eq_operator(self):
        assert matches({"a": {"$eq": 5}}, {"a": 5})

    def test_string_comparison(self):
        assert matches({"name": {"$gte": "b"}}, {"name": "carbon"})


class TestNeNinExists:
    def test_ne_matches_missing(self):
        assert matches({"state": {"$ne": "error"}}, {})
        assert matches({"state": {"$ne": "error"}}, {"state": "done"})
        assert not matches({"state": {"$ne": "error"}}, {"state": "error"})

    def test_ne_null_excludes_missing(self):
        """Mongo semantics: missing fields are null, so {$ne: null} must
        not match documents lacking the field."""
        assert not matches({"mps_id": {"$ne": None}}, {})
        assert not matches({"mps_id": {"$ne": None}}, {"mps_id": None})
        assert matches({"mps_id": {"$ne": None}}, {"mps_id": "mps-1"})

    def test_nin_with_null_excludes_missing(self):
        assert not matches({"a": {"$nin": [None, 3]}}, {})
        assert matches({"a": {"$nin": [None, 3]}}, {"a": 1})
        assert not matches({"a": {"$nin": [None, 3]}}, {"a": 3})

    def test_ne_on_array_requires_no_element_match(self):
        assert not matches({"tags": {"$ne": "x"}}, {"tags": ["x", "y"]})
        assert matches({"tags": {"$ne": "z"}}, {"tags": ["x", "y"]})

    def test_in(self):
        q = {"state": {"$in": ["WAITING", "READY"]}}
        assert matches(q, {"state": "READY"})
        assert not matches(q, {"state": "RUNNING"})
        assert not matches(q, {})

    def test_in_against_array_field(self):
        assert matches({"elements": {"$in": ["Na", "Li"]}}, {"elements": ["Li", "O"]})

    def test_nin(self):
        q = {"state": {"$nin": ["ERROR", "KILLED"]}}
        assert matches(q, {"state": "DONE"})
        assert matches(q, {})
        assert not matches(q, {"state": "ERROR"})

    def test_exists(self):
        assert matches({"bandgap": {"$exists": True}}, {"bandgap": 0.0})
        assert not matches({"bandgap": {"$exists": True}}, {})
        assert matches({"bandgap": {"$exists": False}}, {})
        assert not matches({"bandgap": {"$exists": False}}, {"bandgap": None})

    def test_in_requires_array(self):
        with pytest.raises(QuerySyntaxError):
            compile_query({"a": {"$in": 5}})


class TestLogical:
    def test_and(self):
        q = {"$and": [{"a": {"$gt": 1}}, {"a": {"$lt": 10}}]}
        assert matches(q, {"a": 5})
        assert not matches(q, {"a": 0})

    def test_or(self):
        q = {"$or": [{"state": "READY"}, {"priority": {"$gte": 9}}]}
        assert matches(q, {"state": "READY", "priority": 1})
        assert matches(q, {"state": "WAITING", "priority": 9})
        assert not matches(q, {"state": "WAITING", "priority": 1})

    def test_nor(self):
        q = {"$nor": [{"a": 1}, {"b": 2}]}
        assert matches(q, {"a": 2, "b": 3})
        assert not matches(q, {"a": 1})

    def test_not(self):
        q = {"n": {"$not": {"$gt": 10}}}
        assert matches(q, {"n": 5})
        assert matches(q, {})  # $not matches missing
        assert not matches(q, {"n": 11})

    def test_implicit_and_of_fields(self):
        q = {"a": 1, "b": 2}
        assert matches(q, {"a": 1, "b": 2})
        assert not matches(q, {"a": 1, "b": 3})

    def test_empty_query_matches_all(self):
        assert matches({}, {"anything": 1})
        assert matches({}, {})

    def test_logical_requires_nonempty_list(self):
        with pytest.raises(QuerySyntaxError):
            compile_query({"$and": []})
        with pytest.raises(QuerySyntaxError):
            compile_query({"$or": "nope"})

    def test_nested_logic(self):
        q = {"$or": [
            {"$and": [{"a": 1}, {"b": 1}]},
            {"$and": [{"a": 2}, {"b": 2}]},
        ]}
        assert matches(q, {"a": 1, "b": 1})
        assert matches(q, {"a": 2, "b": 2})
        assert not matches(q, {"a": 1, "b": 2})


class TestPathAccess:
    def test_numeric_component_fans_out_like_get_path_multi(self, monkeypatch):
        """``a.0.b`` is never read by ``dict.get`` alone: every document
        goes through the fan-out, and the answer is equality against the
        values ``get_path_multi`` reaches or their array elements."""
        walks = []

        def counting(doc, path):
            walks.append(doc)
            return get_path_multi(doc, path)

        monkeypatch.setattr(matching, "get_path_multi", counting)
        matcher = compile_query({"a.0.b": 1})
        docs = [
            {"a": [{"b": 1}, {"b": 2}]},
            {"a": [{"b": 2}, {"b": 1}]},
            {"a": {"0": {"b": 1}}},
            {"a": {"0": {"b": [3, 1]}}},
            {"a": [[{"b": 1}]]},
            {"a": [{"b": 2}]},
            {"a": []},
            {"a": {"b": 1}},
            {"b": 1},
        ]
        for doc in docs:
            values = get_path_multi(doc, "a.0.b")
            expected = any(v == 1 or (isinstance(v, list) and 1 in v)
                           for v in values)
            assert matcher.matches(doc) is expected, doc
        assert walks == docs

    def test_dotted_path_through_dicts_and_arrays(self):
        q = {"structure.lattice.a": {"$gt": 4}}
        assert matches(q, {"structure": {"lattice": {"a": 5.0}}})
        assert not matches(q, {"structure": {"lattice": {"a": 3.0}}})
        assert matches(q, {"structure": [{"lattice": {"a": 3}},
                                         {"lattice": {"a": 6}}]})
        assert matches(q, {"structure": {"lattice": {"a": [1, 7]}}})
        assert not matches(q, {"structure": {"lattice": 5}})
        assert not matches(q, {"structure": "cubic"})


class TestArrayOperators:
    def test_all_member_elem_match_over_the_elements(self):
        q = {"a": {"$all": [{"$elemMatch": {"$gt": 5}}, {"$elemMatch": {"$lt": 2}}]}}
        assert matches(q, {"a": [1, 7]})
        assert not matches(q, {"a": [3, 7]})

    def test_all(self):
        q = {"elements": {"$all": ["Li", "O"]}}
        assert matches(q, {"elements": ["Li", "Fe", "O"]})
        assert not matches(q, {"elements": ["Li", "Fe"]})

    def test_all_on_scalar_single_member(self):
        assert matches({"a": {"$all": [5]}}, {"a": 5})

    def test_size(self):
        assert matches({"elements": {"$size": 2}}, {"elements": ["Fe", "O"]})
        assert not matches({"elements": {"$size": 3}}, {"elements": ["Fe", "O"]})
        assert not matches({"elements": {"$size": 2}}, {"elements": "FeO"})

    def test_elem_match_document(self):
        q = {"runs": {"$elemMatch": {"converged": True, "walltime": {"$lt": 5000}}}}
        assert matches(q, {"runs": [{"converged": True, "walltime": 3600}]})
        # Both conditions must hit the SAME element.
        assert not matches(
            q,
            {"runs": [{"converged": True, "walltime": 9000},
                      {"converged": False, "walltime": 100}]},
        )

    def test_elem_match_operators(self):
        q = {"scores": {"$elemMatch": {"$gte": 80, "$lt": 90}}}
        assert matches(q, {"scores": [75, 85]})
        assert not matches(q, {"scores": [75, 95]})

    def test_all_with_elem_match(self):
        q = {"runs": {"$all": [
            {"$elemMatch": {"code": "vasp"}},
            {"$elemMatch": {"code": "aflow"}},
        ]}}
        assert matches(q, {"runs": [{"code": "vasp"}, {"code": "aflow"}]})
        assert not matches(q, {"runs": [{"code": "vasp"}]})

    def test_all_on_nested_arrays_is_bare_equality_planned_or_not(self):
        # {f: {$all: [x]}} is {f: x}: "a" is not an element of [["a"]].
        from repro.docstore import Collection

        coll = Collection("nested")
        coll.create_index("tags")
        coll.insert_many([{"_id": 1, "tags": [["a"]]},
                          {"_id": 2, "tags": ["a", "b"]},
                          {"_id": 3, "tags": [["a", "b"]]}])
        for query in ({"tags": {"$all": ["a"]}}, {"tags": "a"}):
            planned = sorted(d["_id"] for d in coll.find(query))
            natural = sorted(d["_id"] for d in coll.find(query, hint="$natural"))
            assert planned == natural == [2], query
        both = {"tags": {"$all": [["a", "b"]]}}
        assert sorted(d["_id"] for d in coll.find(both)) == [2, 3]

    def test_all_members_may_hit_different_elements(self):
        q = {"a": {"$all": ["x", 1.0, True]}}
        assert matches(q, {"a": ["x", 1, True]})
        assert not matches(q, {"a": ["x", 1]})  # 1 is not True

    def test_not_all_negates_the_whole_conjunction(self):
        q = {"a": {"$not": {"$all": ["x", "y"]}}}
        assert not matches(q, {"a": ["y", "x"]})
        assert matches(q, {"a": ["x"]})
        assert matches(q, {})


class TestEvaluation:
    def test_mod(self):
        assert matches({"n": {"$mod": [4, 0]}}, {"n": 8})
        assert not matches({"n": {"$mod": [4, 0]}}, {"n": 9})

    def test_mod_validation(self):
        with pytest.raises(QuerySyntaxError):
            compile_query({"n": {"$mod": [0, 0]}})
        with pytest.raises(QuerySyntaxError):
            compile_query({"n": {"$mod": [4]}})

    def test_regex_operator(self):
        q = {"formula": {"$regex": "^Li.*O4$"}}
        assert matches(q, {"formula": "LiFePO4"})
        assert not matches(q, {"formula": "NaFePO4"})

    def test_regex_options(self):
        q = {"formula": {"$regex": "^li", "$options": "i"}}
        assert matches(q, {"formula": "LiFePO4"})

    def test_options_without_regex_rejected(self):
        with pytest.raises(QuerySyntaxError):
            compile_query({"a": {"$options": "i"}})

    def test_where_callable(self):
        q = {"$where": lambda d: d.get("a", 0) + d.get("b", 0) > 10}
        assert matches(q, {"a": 6, "b": 6})
        assert not matches(q, {"a": 1, "b": 1})

    def test_type(self):
        assert matches({"a": {"$type": "string"}}, {"a": "x"})
        assert matches({"a": {"$type": "number"}}, {"a": 1.5})
        assert matches({"a": {"$type": "array"}}, {"a": []})
        assert not matches({"a": {"$type": "bool"}}, {"a": 1})
        with pytest.raises(QuerySyntaxError):
            compile_query({"a": {"$type": "flurble"}})


class TestSyntaxErrors:
    def test_empty_path_component_fails_at_compile(self):
        with pytest.raises(DocstoreError):
            compile_query({"a..b": 1})

    def test_unknown_operator(self):
        with pytest.raises(QuerySyntaxError):
            compile_query({"a": {"$frobnicate": 1}})

    def test_unknown_top_level_operator(self):
        with pytest.raises(QuerySyntaxError):
            compile_query({"$xyzzy": []})

    def test_top_level_not_rejected(self):
        with pytest.raises(QuerySyntaxError):
            compile_query({"$not": {"a": 1}})

    def test_non_mapping_query(self):
        with pytest.raises(QuerySyntaxError):
            compile_query([1, 2, 3])
