"""Prefix-prompt history: candidate prefixes with their scores, kept in
ascending score order for the assistant model's in-context consumption.

The search sees the student only through `score(prefix) -> float` and the
assistant model only through `propose(history, l) -> list[str]`; a run
passes `metrics.scorer` of each frozen checkpoint and a `ta.Proposer`:

    h, rounds = collect(propose, score, seed_history(score), k, l, epoch)
    h = carry_over(h, next_score, k)  # the next epoch's starting history

The empty prefix is always seeded in, which guarantees the best entry can
never score below the no-prefix baseline on the selection split.
"""

import bisect
import math
from collections.abc import Callable
from dataclasses import dataclass, replace

from .errors import StallError, ValidationError

# Give up after this many consecutive rounds that add nothing new; turns an
# otherwise unbounded search loop into a total procedure.
STALL_LIMIT = 10


@dataclass(frozen=True)
class Origin:
    """Provenance of a history entry: a seed, or generated at a given
    epoch/round (round -1 marks a run's first proposal, made before
    epoch 0's training)."""

    kind: str  # "seed" | "generated"
    epoch: int | None = None
    round: int | None = None

    def __post_init__(self):
        seed = self.kind == "seed" and self.epoch is None and self.round is None
        generated = self.kind == "generated" and all(type(v) is int for v in (self.epoch, self.round))
        if not (seed or generated):
            raise ValidationError(f"an origin is a seed, or generated at an integer epoch and round; got {self}")

    def to_dict(self) -> dict:
        if self.kind == "seed":
            return {"kind": "seed"}
        return {"kind": "generated", "epoch": self.epoch, "round": self.round}


SEED = Origin(kind="seed")


@dataclass(frozen=True)
class ScoredPrefix:
    prefix: str
    score: float
    origin: Origin = SEED


@dataclass(frozen=True)
class PrefixHistory:
    """Entries in nondecreasing score order, unique by prefix string."""

    entries: tuple[ScoredPrefix, ...] = ()

    def __len__(self) -> int:
        return len(self.entries)

    def prefixes(self) -> set[str]:
        return {e.prefix for e in self.entries}

    def best(self) -> ScoredPrefix:
        if not self.entries:
            raise ValidationError("history is empty")
        return self.entries[-1]

    def find(self, prefix: str) -> ScoredPrefix | None:
        for e in self.entries:
            if e.prefix == prefix:
                return e
        return None

    def to_list(self) -> list[dict]:
        return [
            {"prefix": e.prefix, "score": float(e.score), "origin": e.origin.to_dict()}
            for e in self.entries
        ]


@dataclass(frozen=True)
class RoundStats:
    """Per-round collection stats: how many candidates the assistant model
    produced and how many strictly beat the pre-round best score. A round's
    index is its position in collect's list."""

    generated: int
    exceeded_max: int

    def __post_init__(self):
        if self.exceeded_max > self.generated:
            raise ValidationError("exceeded_max cannot exceed generated")


def insert_sorted(h: PrefixHistory, sp: ScoredPrefix) -> PrefixHistory:
    """Insert keeping nondecreasing score order; ties go after existing
    equals (stable). A prefix already present is kept as-is. A NaN or
    infinite score is rejected: NaN compares false both ways, so bisecting
    it in would break the order."""
    if not math.isfinite(sp.score):
        raise ValidationError(f"non-finite score {sp.score!r} for prefix {sp.prefix!r}")
    if h.find(sp.prefix) is not None:
        return h
    scores = [e.score for e in h.entries]
    pos = bisect.bisect_right(scores, sp.score)
    return PrefixHistory(entries=h.entries[:pos] + (sp,) + h.entries[pos:])


def seed_history(score: Callable[[str], float]) -> PrefixHistory:
    """History seeded with the empty prefix at score(""), the baseline floor."""
    return insert_sorted(PrefixHistory(), ScoredPrefix(prefix="", score=score("")))


def collect(
    propose: Callable[[PrefixHistory, int], list[str]],
    score: Callable[[str], float],
    h0: PrefixHistory,
    k: int,
    l: int,
    epoch: int = 0,
) -> tuple[PrefixHistory, list[RoundStats]]:
    """Grow the history to exactly k entries by repeatedly asking
    `propose(h, l)` for l candidates, scoring each fresh one once with
    `score`, and inserting in order. Candidates already present are
    discarded unscored. Once k entries are held, the rest of the round's
    fresh candidates are still scored and counted, but not inserted.
    """
    if len(h0) < 1:
        raise ValidationError("initial history must be non-empty")
    if k <= len(h0):
        raise ValidationError(f"k={k} must exceed initial history size {len(h0)}")

    h = h0
    rounds: list[RoundStats] = []
    stalled = 0
    while len(h) < k:
        candidates = propose(h, l)
        pre_round_max = h.best().score
        known = h.prefixes()
        fresh = [c for c in dict.fromkeys(candidates) if c not in known]
        exceeded = 0
        for candidate in fresh:
            value = score(candidate)
            if value > pre_round_max:
                exceeded += 1
            if len(h) < k:
                origin = Origin(kind="generated", epoch=epoch, round=len(rounds))
                h = insert_sorted(h, ScoredPrefix(prefix=candidate, score=value, origin=origin))
        rounds.append(RoundStats(generated=len(candidates), exceeded_max=exceeded))
        stalled = stalled + 1 if not fresh else 0
        if stalled >= STALL_LIMIT:
            raise StallError(
                f"{STALL_LIMIT} consecutive rounds added no new prefixes "
                f"(history at {len(h)}/{k})"
            )
    return h, rounds


def carry_over(h: PrefixHistory, score: Callable[[str], float], k: int) -> PrefixHistory:
    """h re-scored with the next checkpoint's `score`, as metric values are
    checkpoint-relative and stale scores would corrupt the sort. A history
    already holding k entries is trimmed to its best half (the empty-prefix
    baseline always survives) to leave room for that epoch's collect."""
    survivors = list(h.entries)
    if len(h) >= k:
        # At most k - 2 carried, so with the baseline collect still has room to run.
        carry = min(k // 2, k - 2)
        # A slice from len - carry, as [-0:] would keep every entry.
        survivors = survivors[len(h) - carry:]
        if all(e.prefix != "" for e in survivors):
            survivors.append(h.find(""))
    carried = PrefixHistory()
    for entry in survivors:
        carried = insert_sorted(carried, replace(entry, score=score(entry.prefix)))
    return carried
