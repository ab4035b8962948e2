"""The IRS proxy: the bootstrap phase's aggregation point.

A status query flows::

    browser -> proxy:
        1. Bloom filter (OR of all ledgers): miss => "not revoked",
           zero ledger traffic                       [filter short-circuit]
        2. TTL cache of recent ledger answers        [cache hit]
        3. the hosting ledger                        [ledger query]

The proxy hides viewer identity from ledgers (section 4.2): ledger-side
request logs record the proxy, never the user.  The
:class:`~repro.proxy.anonymity.ObservationLog` captures exactly what a
ledger sees for the E8 privacy experiment.

The proxy also carries the client half of the resilience layer: ledger
queries retry on :class:`LedgerUnavailableError` under a
:class:`~repro.resilience.BackoffPolicy`, a per-ledger circuit breaker
stops hammering a ledger that keeps timing out, and — when
``degraded_reads`` is enabled — an unreachable ledger is answered from
the Bloom verdict with ``degraded=True`` instead of an exception.
Degradation is fail-closed: reaching the ledger-query stage at all
means the filter said "might be revoked", so the degraded answer
reports *revoked*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.errors import LedgerUnavailableError
from repro.core.identifiers import PhotoIdentifier
from repro.ledger.proofs import StatusProof
from repro.ledger.registry import LedgerRegistry
from repro.proxy.anonymity import ObservationLog
from repro.proxy.cache import TtlLruCache
from repro.proxy.filterset import ProxyFilterSet
from repro.resilience import BackoffPolicy, CircuitBreaker

__all__ = ["IrsProxy", "ProxyAnswer", "ProxyStats"]


@dataclass(frozen=True)
class ProxyAnswer:
    """The proxy's answer to a status query.

    ``source`` records how it was produced:

    * ``'filter'`` -- Bloom miss, definitely not revoked, no proof;
    * ``'cache'`` -- recent ledger proof replayed from cache;
    * ``'ledger'`` -- fresh signed proof from the hosting ledger;
    * ``'degraded'`` -- ledger unreachable, answered from the filter
      verdict (fail-closed: reported revoked), no proof.
    """

    identifier: str
    revoked: bool
    source: str
    checked_at: float
    proof: Optional[StatusProof] = None
    degraded: bool = False


@dataclass
class ProxyStats:
    queries: int = 0
    filter_short_circuits: int = 0
    cache_hits: int = 0
    ledger_queries: int = 0
    retries: int = 0
    degraded_answers: int = 0
    breaker_refusals: int = 0

    @property
    def load_reduction_factor(self) -> float:
        """How many times fewer ledger queries than browser queries."""
        if self.ledger_queries == 0:
            return float("inf") if self.queries else 1.0
        return self.queries / self.ledger_queries


class IrsProxy:
    """An anonymizing, caching, filter-fronted revocation proxy.

    Parameters
    ----------
    name:
        Proxy identity as it appears in ledger request logs.
    registry:
        Ledger directory used to route filter hits.
    filterset:
        Merged Bloom filters; optional (no filter => every query goes
        to cache/ledger, the "naive" configuration of section 4.2).
    cache:
        TTL-LRU of ledger answers; optional.
    clock:
        Time source for answer freshness stamps.
    observation_log:
        When provided, every *ledger-bound* request is recorded there
        with this proxy's name as the requester -- modelling what
        ledger operators can observe.
    max_retries / backoff / rng / sleep:
        Ledger-query retry policy.  ``sleep(seconds)`` is how a delay
        is actually spent (a no-op by default, so synchronous tests pay
        nothing); ``rng`` jitters the schedule.
    breaker_threshold:
        Consecutive ledger failures that open the proxy's breaker; None
        (default) disables it.
    degraded_reads:
        When True an unreachable ledger produces a fail-closed degraded
        answer instead of raising :class:`LedgerUnavailableError`.
    obs:
        Optional :class:`~repro.obs.Observability`.  Opens a
        ``proxy.status`` span per query (with a ``proxy.ledger_query``
        child around the actual ledger round trip) and mirrors the
        stats counters into ``proxy_*`` metrics.  None (default)
        disables all instrumentation.
    """

    def __init__(
        self,
        name: str,
        registry: LedgerRegistry,
        filterset: Optional[ProxyFilterSet] = None,
        cache: Optional[TtlLruCache] = None,
        clock: Optional[Callable[[], float]] = None,
        observation_log: Optional[ObservationLog] = None,
        max_retries: int = 0,
        backoff: Optional[BackoffPolicy] = None,
        rng=None,
        sleep: Optional[Callable[[float], None]] = None,
        breaker_threshold: Optional[int] = None,
        breaker_reset_timeout: float = 5.0,
        degraded_reads: bool = False,
        obs=None,
    ):
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        self.name = name
        self._registry = registry
        self.filterset = filterset
        self.cache = cache
        self._clock = clock or (lambda: 0.0)
        self._observations = observation_log
        self.max_retries = int(max_retries)
        self._backoff = backoff or BackoffPolicy()
        self._rng = rng
        self._sleep = sleep or (lambda seconds: None)
        self.breaker: Optional[CircuitBreaker] = None
        if breaker_threshold is not None:
            self.breaker = CircuitBreaker(
                self._clock,
                failure_threshold=breaker_threshold,
                reset_timeout=breaker_reset_timeout,
            )
        self.degraded_reads = degraded_reads
        self.obs = obs
        self.stats = ProxyStats()

    def status(self, identifier: PhotoIdentifier) -> ProxyAnswer:
        """Answer a browser's revocation check."""
        if self.obs is None:
            return self._status_impl(identifier)
        self.obs.counter("proxy_queries_total").inc()
        with self.obs.span(
            "proxy.status", serial=identifier.serial
        ) as span:
            answer = self._status_impl(identifier)
            span.set_tag(
                source=answer.source,
                revoked=answer.revoked,
                degraded=answer.degraded,
            )
            self.obs.counter(
                "proxy_answers_total", source=answer.source
            ).inc()
            self.obs.histogram("proxy_status_latency_seconds").observe(
                self.obs.now() - span.started_at
            )
            return answer

    def _status_impl(self, identifier: PhotoIdentifier) -> ProxyAnswer:
        self.stats.queries += 1
        now = self._clock()
        key = identifier.to_string()

        if self.filterset is not None and not self.filterset.might_be_revoked(
            identifier.to_compact()
        ):
            self.stats.filter_short_circuits += 1
            if self.obs is not None:
                self.obs.counter("proxy_filter_short_circuits_total").inc()
            return ProxyAnswer(
                identifier=key, revoked=False, source="filter", checked_at=now
            )

        if self.cache is not None:
            cached = self.cache.get(key)
            if cached is not None:
                self.stats.cache_hits += 1
                if self.obs is not None:
                    self.obs.counter("proxy_cache_hits_total").inc()
                return ProxyAnswer(
                    identifier=key,
                    revoked=cached.revoked,
                    source="cache",
                    checked_at=cached.checked_at,
                    proof=cached,
                )

        try:
            proof = self._query_with_retries(identifier)
        except LedgerUnavailableError:
            if not self.degraded_reads:
                raise
            # Fail-closed degradation: this query got past the filter,
            # so the record *might* be revoked — report it revoked
            # rather than letting an outage imply "valid".
            self.stats.degraded_answers += 1
            if self.obs is not None:
                self.obs.counter("proxy_degraded_answers_total").inc()
            return ProxyAnswer(
                identifier=key,
                revoked=True,
                source="degraded",
                checked_at=now,
                degraded=True,
            )
        if self.cache is not None:
            self.cache.put(key, proof)
        return ProxyAnswer(
            identifier=key,
            revoked=proof.revoked,
            source="ledger",
            checked_at=proof.checked_at,
            proof=proof,
        )

    def _query_with_retries(self, identifier: PhotoIdentifier) -> StatusProof:
        """One ledger query under the breaker and retry policy."""
        if self.breaker is not None and not self.breaker.allow():
            self.stats.breaker_refusals += 1
            if self.obs is not None:
                self.obs.counter("proxy_breaker_refusals_total").inc()
            raise LedgerUnavailableError(
                f"ledger {identifier.ledger_id!r}: circuit breaker open"
            )
        attempt = 0
        while True:
            try:
                proof = self._query_ledger(identifier)
            except LedgerUnavailableError:
                if self.breaker is not None:
                    self.breaker.record_failure()
                if attempt >= self.max_retries:
                    raise
                self._sleep(self._backoff.delay(attempt, self._rng))
                attempt += 1
                self.stats.retries += 1
                if self.obs is not None:
                    self.obs.counter("proxy_retries_total").inc()
                continue
            if self.breaker is not None:
                self.breaker.record_success()
            return proof

    def _query_ledger(self, identifier: PhotoIdentifier) -> StatusProof:
        self.stats.ledger_queries += 1
        if self._observations is not None:
            self._observations.record(
                requester=self.name,
                ledger_id=identifier.ledger_id,
                identifier=identifier.to_string(),
                time=self._clock(),
            )
        if self.obs is None:
            return self._registry.status(identifier)
        self.obs.counter("proxy_ledger_queries_total").inc()
        # Context-manager span: an unreachable ledger raises through
        # the block, which closes the span tagged status='error'.
        with self.obs.span("proxy.ledger_query", ledger=identifier.ledger_id):
            return self._registry.status(identifier)

    def refresh_filters(self) -> int:
        """Pull filter updates; returns bytes transferred."""
        if self.filterset is None:
            return 0
        return self.filterset.refresh()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"IrsProxy({self.name!r}, stats={self.stats})"
