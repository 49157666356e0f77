"""Tests for repro.text.similarity, including hypothesis property tests."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.text.similarity import (
    EDIT_PREFIX,
    attribute_similarity,
    cosine_tokens,
    dice_coefficient,
    jaccard,
    jaro,
    jaro_winkler,
    levenshtein_distance,
    levenshtein_similarity,
    monge_elkan,
    numeric_similarity,
    overlap_coefficient,
    pair_similarity_profile,
    qgram_similarity,
)

from tests.helpers import reference_levenshtein_distance

short_text = st.text(alphabet="abcdef 0123", min_size=0, max_size=20)
#: Long strings over a few characters: many matches, so the bit vectors carry
#: across the 64-bit word boundary and past ``EDIT_PREFIX``.
long_repetitive_text = st.text(alphabet="ab c", max_size=200)
token_lists = st.lists(st.sampled_from(["sony", "bravia", "black", "micro", "canon", "10"]), max_size=6)


class TestSetSimilarities:
    def test_jaccard_identical(self):
        assert jaccard(["a", "b"], ["a", "b"]) == 1.0

    def test_jaccard_disjoint(self):
        assert jaccard(["a"], ["b"]) == 0.0

    def test_jaccard_both_empty(self):
        assert jaccard([], []) == 1.0

    def test_jaccard_one_empty(self):
        assert jaccard(["a"], []) == 0.0

    def test_overlap_subset_is_one(self):
        assert overlap_coefficient(["a"], ["a", "b", "c"]) == 1.0

    def test_dice_known_value(self):
        assert dice_coefficient(["a", "b"], ["b", "c"]) == pytest.approx(0.5)

    def test_cosine_identical_bags(self):
        assert cosine_tokens(["a", "a", "b"], ["a", "a", "b"]) == pytest.approx(1.0)

    def test_cosine_disjoint(self):
        assert cosine_tokens(["a"], ["b"]) == 0.0

    @given(token_lists, token_lists)
    @settings(max_examples=50, deadline=None)
    def test_jaccard_is_symmetric_and_bounded(self, left, right):
        value = jaccard(left, right)
        assert 0.0 <= value <= 1.0
        assert value == pytest.approx(jaccard(right, left))


class TestEditDistances:
    def test_levenshtein_identical(self):
        assert levenshtein_distance("sony", "sony") == 0

    def test_levenshtein_known_value(self):
        assert levenshtein_distance("kitten", "sitting") == 3

    def test_levenshtein_empty_left(self):
        assert levenshtein_distance("", "abc") == 3

    def test_levenshtein_similarity_bounds(self):
        assert levenshtein_similarity("abc", "abd") == pytest.approx(2 / 3)

    def test_levenshtein_similarity_both_empty(self):
        assert levenshtein_similarity("", "") == 1.0

    @pytest.mark.parametrize(
        "left,right",
        [
            ("", "x"),
            ("x", ""),
            ("x", "x"),
            ("x", "y"),
            ("x", "yxy"),
            ("a" * 63, "a" * 64),
            ("a" * 64, "b" * 64),
            ("a" * 65, "a" * 64 + "b"),
            ("ab" * 64, "ba" * 64),
            ("ab" * 64, "a" * 129),
            ("a" * 129, "a" * 128),
            ("abc" * 43, "abc" * 43),
            ("".join(chr(0x100 + i) for i in range(129)), "".join(chr(0x100 + i) for i in range(1, 130))),
            ("".join(chr(0x100 + i) for i in range(65)), "".join(chr(0x100 + i) for i in reversed(range(65)))),
            ("x" * EDIT_PREFIX, "y" + "x" * EDIT_PREFIX),
        ],
    )
    def test_levenshtein_matches_reference_cases(self, left, right):
        assert levenshtein_distance(left, right) == reference_levenshtein_distance(left, right)
        assert levenshtein_distance(right, left) == reference_levenshtein_distance(left, right)

    @given(st.text(max_size=200), st.text(max_size=200))
    @settings(max_examples=150, deadline=None)
    def test_levenshtein_matches_reference_on_unicode(self, left, right):
        distance = levenshtein_distance(left, right)
        assert distance == reference_levenshtein_distance(left, right)
        assert distance == levenshtein_distance(right, left)

    @given(long_repetitive_text, long_repetitive_text)
    @settings(max_examples=150, deadline=None)
    def test_levenshtein_matches_reference_on_long_repetitive_text(self, left, right):
        assert levenshtein_distance(left, right) == reference_levenshtein_distance(left, right)

    @given(short_text, short_text)
    @settings(max_examples=60, deadline=None)
    def test_levenshtein_is_a_metric_on_samples(self, left, right):
        distance = levenshtein_distance(left, right)
        assert distance == levenshtein_distance(right, left)
        assert distance >= abs(len(left) - len(right))
        assert distance <= max(len(left), len(right))


class TestJaro:
    def test_jaro_identical(self):
        assert jaro("martha", "martha") == 1.0

    def test_jaro_known_value(self):
        assert jaro("martha", "marhta") == pytest.approx(0.944, abs=1e-3)

    def test_jaro_empty(self):
        assert jaro("", "abc") == 0.0

    def test_jaro_winkler_boosts_prefix(self):
        assert jaro_winkler("prefixes", "prefixed") >= jaro("prefixes", "prefixed")

    @given(short_text, short_text)
    @settings(max_examples=50, deadline=None)
    def test_jaro_winkler_bounded(self, left, right):
        assert 0.0 <= jaro_winkler(left, right) <= 1.0 + 1e-9


class TestCompositeSimilarities:
    def test_monge_elkan_identical_tokens(self):
        assert monge_elkan(["sony", "bravia"], ["sony", "bravia"]) == pytest.approx(1.0)

    def test_monge_elkan_empty(self):
        assert monge_elkan([], []) == 1.0
        assert monge_elkan(["a"], []) == 0.0

    def test_qgram_similarity_identical(self):
        assert qgram_similarity("bravia", "bravia") == 1.0

    def test_numeric_similarity_equal_numbers(self):
        assert numeric_similarity("10", "10.0") == 1.0

    def test_numeric_similarity_relative(self):
        assert numeric_similarity("100", "50") == pytest.approx(0.5)

    def test_numeric_similarity_non_numeric_falls_back_to_equality(self):
        assert numeric_similarity("ten", "ten") == 1.0
        assert numeric_similarity("ten", "eleven") == 0.0

    def test_attribute_similarity_missing_values(self):
        assert attribute_similarity("", "") == 1.0
        assert attribute_similarity("sony", "") == 0.0

    def test_attribute_similarity_orders_sensibly(self):
        close = attribute_similarity("sony bravia theater", "sony bravia theater system")
        far = attribute_similarity("sony bravia theater", "canon photo printer")
        assert close > far

    @given(short_text, short_text)
    @settings(max_examples=50, deadline=None)
    def test_attribute_similarity_bounded_and_symmetric(self, left, right):
        value = attribute_similarity(left, right)
        assert 0.0 <= value <= 1.0
        assert value == pytest.approx(attribute_similarity(right, left), abs=1e-9)

    def test_pair_similarity_profile_alignment(self):
        profile = pair_similarity_profile(["a", "b"], ["a", "c"])
        assert len(profile) == 2
        assert profile[0] == 1.0

    def test_pair_similarity_profile_requires_alignment(self):
        with pytest.raises(ValueError):
            pair_similarity_profile(["a"], ["a", "b"])
