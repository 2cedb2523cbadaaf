"""Tests for RQ3: reputation, attestation and redundancy voting."""

import pytest

from repro.core.trust import TrustConfig, TrustManager


def test_initial_score_and_bounds():
    trust = TrustManager("me", TrustConfig(initial_score=0.6))
    assert trust.score_of("unknown") == 0.6
    for _ in range(50):
        trust.record_success("good")
    assert trust.score_of("good") == 1.0
    for _ in range(50):
        trust.record_failure("bad")
    assert trust.score_of("bad") == 0.0


def test_failure_hurts_more_than_success_helps():
    config = TrustConfig()
    assert config.failure_penalty > config.success_reward
    trust = TrustManager("me", config)
    trust.record_success("peer")
    trust.record_failure("peer")
    assert trust.score_of("peer") < config.initial_score


def test_lie_penalty_is_severe():
    trust = TrustManager("me")
    trust.record_lie("liar")
    assert trust.score_of("liar") <= 0.2


def test_trusted_peers_filter():
    trust = TrustManager("me")
    trust.record_success("good")
    trust.record_lie("bad")
    assert "good" in trust.trusted_peers(min_score=0.5)
    assert "bad" not in trust.trusted_peers(min_score=0.5)


def test_event_count_tracks_every_recorded_outcome():
    trust = TrustManager("me")
    assert trust.events == 0
    trust.record_success("a")
    trust.record_failure("a")
    trust.record_lie("b")
    nonce = "n-1"
    assert trust.verify_attestation("c", nonce, TrustManager.attestation_response("c", nonce))
    assert trust.events == 4
    # A failed attestation records the attestation and the lie it implies.
    assert not trust.verify_attestation("d", nonce, "forged")
    assert trust.events == 6


def test_self_score_is_max():
    trust = TrustManager("me")
    assert trust.self_score() == trust.config.max_score


def test_attestation_round_trip():
    config = TrustConfig(require_attestation=True)
    requester = TrustManager("requester", config)
    assert requester.needs_attestation("peer")
    response = TrustManager.attestation_response("peer", nonce="n-1")
    assert requester.verify_attestation("peer", "n-1", response)
    assert not requester.needs_attestation("peer")


def test_attestation_failure_penalises():
    config = TrustConfig(require_attestation=True)
    requester = TrustManager("requester", config)
    assert not requester.verify_attestation("peer", "n-1", "wrong-digest")
    assert requester.score_of("peer") < config.initial_score


def test_vote_majority_wins_and_updates_reputation():
    trust = TrustManager("me")
    winner = trust.vote({"a": 10, "b": 10, "c": 99})
    assert winner == 10
    assert trust.score_of("a") > trust.score_of("c")


def test_vote_no_quorum_returns_none():
    trust = TrustManager("me", TrustConfig(redundancy_quorum=0.6))
    assert trust.vote({"a": 1, "b": 2}) is None


def test_vote_with_custom_comparator():
    trust = TrustManager("me")
    winner = trust.vote(
        {"a": 10.001, "b": 10.002, "c": 50.0},
        comparator=lambda x, y: abs(x - y) < 0.1,
    )
    assert winner == pytest.approx(10.001)


def test_vote_empty_returns_none():
    assert TrustManager("me").vote({}) is None


def test_single_result_vote_accepts():
    trust = TrustManager("me")
    assert trust.vote({"only": "value"}) == "value"


def test_two_way_tie_fails_instead_of_rewarding_arrival_order():
    # A 1-vs-1 disagreement used to be won by whichever result was recorded
    # first; a strict majority of 2 is 2, so it must fail.
    trust = TrustManager("me")
    assert trust.vote({"first": 1, "second": 2}) is None


def test_expected_replicas_raise_the_quorum_over_collected_results():
    # k=3 solicited but only one replica survived: a strict majority of 3
    # is 2, so the lone result must not be accepted unvetted — but the
    # responder is not penalised either: unanimity short of quorum proves
    # nothing against it (its peers may have crashed or been lost in
    # transit, and it may well be the honest one).
    trust = TrustManager("me")
    assert trust.vote({"sole": 666}, expected=3) is None
    assert trust.recorded_scores() == {}
    # ... while 2 agreeing replicas of the 3 solicited are a majority.
    trust = TrustManager("me")
    assert trust.vote({"a": 7, "b": 7}, expected=3) == 7


def test_no_quorum_with_disagreement_still_penalises_everyone():
    trust = TrustManager("me")
    assert trust.vote({"a": 1, "b": 2}) is None
    initial = trust.config.initial_score
    assert trust.score_of("a") < initial and trust.score_of("b") < initial


def test_unanimity_quorum_is_satisfiable():
    trust = TrustManager("me", TrustConfig(redundancy_quorum=1.0))
    assert trust.vote({"a": 5, "b": 5, "c": 5}) == 5
    assert trust.vote({"a": 5, "b": 5, "c": 6}) is None
