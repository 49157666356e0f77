"""Text substrate: tokenisation, similarity, vectorisation and embeddings."""

from repro.text.embeddings import HashedEmbeddings
from repro.text.interning import ValueFeatureCache, ValueFeatures
from repro.text.similarity import (
    EDIT_PREFIX,
    MONGE_ELKAN_TOKENS,
    attribute_similarity,
    cosine_tokens,
    dice_coefficient,
    jaccard,
    jaro,
    jaro_winkler,
    levenshtein_distance,
    levenshtein_similarity,
    memoized_jaro_winkler,
    memoized_levenshtein_similarity,
    monge_elkan,
    numeric_similarity,
    overlap_coefficient,
    pair_similarity_profile,
    parsed_numeric_similarity,
    qgram_similarity,
)
from repro.text.tokenize import qgrams, token_ngrams, tokenize, truncate_tokens, whitespace_tokenize
from repro.text.vectorize import (
    HashingVectorizer,
    TfIdfVectorizer,
    cosine_similarity,
    cosine_similarity_matrix,
    stable_token_hash,
)
from repro.text.vocabulary import Vocabulary

__all__ = [
    "EDIT_PREFIX",
    "MONGE_ELKAN_TOKENS",
    "HashedEmbeddings",
    "HashingVectorizer",
    "TfIdfVectorizer",
    "ValueFeatureCache",
    "ValueFeatures",
    "Vocabulary",
    "attribute_similarity",
    "cosine_similarity",
    "cosine_similarity_matrix",
    "cosine_tokens",
    "dice_coefficient",
    "jaccard",
    "jaro",
    "jaro_winkler",
    "levenshtein_distance",
    "levenshtein_similarity",
    "memoized_jaro_winkler",
    "memoized_levenshtein_similarity",
    "monge_elkan",
    "numeric_similarity",
    "overlap_coefficient",
    "pair_similarity_profile",
    "parsed_numeric_similarity",
    "qgram_similarity",
    "qgrams",
    "stable_token_hash",
    "token_ngrams",
    "tokenize",
    "truncate_tokens",
    "whitespace_tokenize",
]
