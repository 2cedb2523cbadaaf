"""RQ3: trust, integrity and privacy mechanisms.

Three complementary, individually optional mechanisms:

* **Reputation** — every node keeps local scores for its peers, increased on
  correct results and decreased sharply on failures or detected lies.  The
  score rides in beacons (self-reported) but decisions always use the local
  score when one exists.
* **Attestation** — a lightweight challenge/response on first contact: the
  requester sends a nonce, the executor must echo a keyed digest.  Simulated
  faithfully (it costs one round-trip before the first offload to a new peer)
  without real cryptography.
* **Redundant execution** — a task may be sent to ``k`` executors; results
  are accepted only when a majority agree (byte-equal results, or the
  application's own comparator).  This is the integrity backstop against a
  malicious executor fabricating results.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional


@dataclass(frozen=True)
class TrustConfig:
    """Tunable knobs of the trust layer."""

    initial_score: float = 0.6
    success_reward: float = 0.05
    failure_penalty: float = 0.15
    lie_penalty: float = 0.5
    min_score: float = 0.0
    max_score: float = 1.0
    require_attestation: bool = False
    redundancy_quorum: float = 0.5


class TrustManager:
    """Per-node reputation store plus attestation bookkeeping."""

    def __init__(self, owner: str, config: Optional[TrustConfig] = None) -> None:
        self.owner = owner
        self.config = config or TrustConfig()
        self._scores: Dict[str, float] = {}
        self._attested: Dict[str, bool] = {}
        #: Reputation and attestation outcomes recorded so far.
        self.events = 0

    # ------------------------------------------------------------ reputation

    def score_of(self, peer: str) -> float:
        """Current reputation of ``peer`` (initial score when unknown)."""
        return self._scores.get(peer, self.config.initial_score)

    def _clamp(self, value: float) -> float:
        return min(self.config.max_score, max(self.config.min_score, value))

    def record_success(self, peer: str) -> float:
        """Reward a peer for a correct, timely result."""
        new = self._clamp(self.score_of(peer) + self.config.success_reward)
        self._scores[peer] = new
        self.events += 1
        return new

    def record_failure(self, peer: str) -> float:
        """Penalise a peer for a failed or timed-out task."""
        new = self._clamp(self.score_of(peer) - self.config.failure_penalty)
        self._scores[peer] = new
        self.events += 1
        return new

    def record_lie(self, peer: str) -> float:
        """Heavily penalise a peer whose result lost a redundancy vote."""
        new = self._clamp(self.score_of(peer) - self.config.lie_penalty)
        self._scores[peer] = new
        self.events += 1
        return new

    def trusted_peers(self, min_score: float = 0.3) -> List[str]:
        """Peers whose score is at or above ``min_score``."""
        return [peer for peer, score in self._scores.items() if score >= min_score]

    def recorded_scores(self) -> Dict[str, float]:
        """Peers this node has actually observed, with their current scores.

        Unlike :meth:`score_of` this never invents the initial score for
        unknown peers, which is what the honest-vs-malicious reputation-gap
        metric needs: only *evidence-backed* scores should enter the gap.
        """
        return dict(self._scores)

    def self_score(self) -> float:
        """The score this node advertises about itself in beacons.

        Self-reported scores are deliberately optimistic (a node never
        advertises distrust of itself); peers use their own records.
        """
        return self.config.max_score

    # ----------------------------------------------------------- attestation

    @staticmethod
    def attestation_response(node_name: str, nonce: str) -> str:
        """Deterministic keyed digest a genuine node produces for a nonce."""
        return hashlib.sha256(f"airdnd:{node_name}:{nonce}".encode("utf-8")).hexdigest()

    def needs_attestation(self, peer: str) -> bool:
        """Whether an attestation handshake is still required for ``peer``."""
        return self.config.require_attestation and not self._attested.get(peer, False)

    def verify_attestation(self, peer: str, nonce: str, response: str) -> bool:
        """Check a peer's attestation response and record the outcome."""
        expected = self.attestation_response(peer, nonce)
        ok = response == expected
        self._attested[peer] = ok
        self.events += 1
        if not ok:
            self.record_lie(peer)
        return ok

    # ----------------------------------------------------------- redundancy

    def vote(
        self,
        results: Dict[str, Any],
        comparator: Optional[Callable[[Any, Any], bool]] = None,
        expected: Optional[int] = None,
    ) -> Optional[Any]:
        """Strict-majority vote over redundant results.

        ``results`` maps executor name → result value.  Returns the winning
        value, or ``None`` when no value reaches the quorum.  Executors whose
        value lost the vote are penalised as liars; winners are rewarded.

        The quorum is a *strict* majority — more than ``redundancy_quorum``
        of the vote base — computed over ``max(len(results), expected)``.
        Passing ``expected`` (the replica count the requester asked for)
        closes two integrity holes a plurality over the *collected* results
        left open: with one replica lost, a 1-vs-1 disagreement used to be
        won by whichever result arrived first, and a lone surviving replica
        used to be accepted unvetted.  Both now fail the vote instead, so a
        single corrupting executor can never get a fabricated value accepted
        under k ≥ 3 redundancy (benchmark E14's acceptance criterion).
        """
        if not results:
            return None
        comparator = comparator or (lambda a, b: a == b)
        names = list(results)
        # Group executors by agreement classes.
        groups: List[List[str]] = []
        for name in names:
            placed = False
            for group in groups:
                if comparator(results[group[0]], results[name]):
                    group.append(name)
                    placed = True
                    break
            if not placed:
                groups.append([name])
        groups.sort(key=len, reverse=True)
        winner_group = groups[0]
        base = max(len(names), expected or 0)
        quorum_size = min(
            base, math.floor(base * self.config.redundancy_quorum) + 1
        )
        if len(winner_group) < quorum_size:
            # Only penalise when results actually *disagree* (someone must be
            # lying, we just cannot tell who).  A unanimous set that is
            # merely short of quorum — e.g. the sole surviving replica of a
            # k=3 task whose peers were lost in transit — proves nothing
            # against its responders; the task still fails, unvetted.
            if len(groups) > 1:
                for name in names:
                    self.record_failure(name)
            return None
        for name in names:
            if name in winner_group:
                self.record_success(name)
            else:
                self.record_lie(name)
        return results[winner_group[0]]
