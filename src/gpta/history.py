"""Prefix-prompt history: candidate prefixes with their scores, kept in
ascending score order for the assistant model's in-context consumption.

The search takes the score of a prefix as a function, `score(prefix) ->
float`; the training loop passes one per frozen checkpoint that scores
the validation split's `student.batch_logits` with `evaluate`, as
`score_prefix` does:

    h = seed_history(score)
    h, rounds = collect(ta, mp, score, h, k, l, temperature, epoch)

The empty prefix is always seeded in, which guarantees the best entry can
never score below the no-prefix baseline on the selection split.
"""

import bisect
import logging
import math
from collections.abc import Callable
from dataclasses import dataclass

from . import student as student_mod
from . import ta as ta_mod
from .dataset import Dataset
from .errors import StallError, ValidationError
from .metrics import MetricKind, evaluate

logger = logging.getLogger(__name__)

# Give up after this many consecutive rounds that add nothing new; turns an
# otherwise unbounded search loop into a total procedure.
STALL_LIMIT = 10


@dataclass(frozen=True)
class Origin:
    """Provenance of a history entry: a seed, or generated at a given
    epoch/round (round -1 marks the pre-collection first prefix)."""

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


def score_prefix(
    student: student_mod.StudentParams,
    prefix: str,
    eval_set: Dataset,
    kind: MetricKind,
    hash_seed: int = 0,
    featurizer: student_mod.Featurizer | None = None,
) -> float:
    """Metric of the frozen student over eval_set with `prefix` prepended
    to every input: `batch_logits` builds the examples' logits matrix
    (from `featurizer`'s tables, or new ones over eval_set's texts) and
    `evaluate` scores it."""
    logits = student_mod.batch_logits(student, eval_set, hash_seed, featurizer)(prefix)
    return evaluate(kind, logits, eval_set.labels(), class_count=eval_set.class_count)


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
    ta: ta_mod.TAHandle,
    mp: ta_mod.MetaPrompt,
    score: Callable[[str], float],
    h0: PrefixHistory,
    k: int,
    l: int,
    temperature: float = 1.0,
    epoch: int = 0,
) -> tuple[PrefixHistory, list[RoundStats]]:
    """Grow the history to exactly k entries by repeatedly asking the
    assistant model for l candidates, scoring each fresh one once with
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
        request = ta_mod.render_generation_request(mp, h, l, temperature)
        candidates = ta_mod.generate(ta, request, l, temperature)
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
