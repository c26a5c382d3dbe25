"""Turn the sorted prefix history into tuning data for the assistant model.

A window of w consecutive history entries becomes the user message and the
next (better-scoring) entry's prefix becomes the assistant message, so the
language-modeling objective of the tuning endpoint is pointed directly at
"emit the prefix that beats these". Examples are enriched with the same
system message used at generation time and serialized to a canonical JSONL
wire format that round-trips byte-exactly.
"""

import json
import logging
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import ParseError, ValidationError
from .fileio import jsonl_objects
from .ta import ChatMessage, MetaPrompt, render_history_lines, render_system_content

if TYPE_CHECKING:
    from .history import PrefixHistory

logger = logging.getLogger(__name__)

DEFAULT_FINETUNE_CAP = 50

# Past this many examples, tuning quality falls off; RunConfig warns once
# when finetune_cap exceeds it, and cap() obeys.
FINETUNE_SOFT_LIMIT = 150


@dataclass(frozen=True)
class DialogueGradient:
    """One window of the history plus the next entry's prefix as target.
    A window's index is its position in build_windows' list."""

    window: tuple  # w ScoredPrefix entries, ascending
    target: str


@dataclass(frozen=True)
class FinetuneExample:
    """Exactly three chat messages: system (context), user (rendered
    window), assistant (target prefix)."""

    messages: tuple[ChatMessage, ChatMessage, ChatMessage]

    def __post_init__(self):
        roles = tuple(m.role for m in self.messages)
        if roles != ("system", "user", "assistant"):
            raise ValidationError(f"message roles must be system/user/assistant, got {roles}")


def build_windows(h: "PrefixHistory", w: int) -> list[DialogueGradient]:
    """Slide a window of size w over the ascending history: window i covers
    entries [i, i+w) and targets entry i+w, giving |h| - w gradients."""
    if w < 1:
        raise ValidationError(f"window size must be >= 1, got {w}")
    entries = h.entries
    if len(entries) <= w:
        raise ValidationError(
            f"history of size {len(entries)} is too short for window size {w}"
        )
    return [
        DialogueGradient(window=tuple(entries[i : i + w]), target=entries[i + w].prefix)
        for i in range(len(entries) - w)
    ]


def enrich(gs: list[DialogueGradient], mp: MetaPrompt) -> list[FinetuneExample]:
    """Wrap each gradient in chat messages. The system message is the exact
    generation-time system rendering; the user message is the window's
    PREFIX/SCORE lines; the assistant message is the bare target prefix.

    Windows targeting the empty prefix are dropped: an empty assistant
    message is not a legal chat message.
    """
    system = render_system_content(mp)
    out = []
    for i, g in enumerate(gs):
        if not g.target:
            logger.debug("skipping window %d: empty target prefix", i)
            continue
        out.append(
            FinetuneExample(
                messages=(
                    ChatMessage(role="system", content=system),
                    ChatMessage(role="user", content="\n".join(render_history_lines(g.window))),
                    ChatMessage(role="assistant", content=g.target),
                )
            )
        )
    return out


def cap(examples: list[FinetuneExample], max_n: int = DEFAULT_FINETUNE_CAP) -> list[FinetuneExample]:
    """Keep the last max_n examples: the highest-index windows, whose
    targets carry the highest scores."""
    if max_n < 1:
        raise ValidationError(f"max_n must be >= 1, got {max_n}")
    return examples[-max_n:]


def serialize_jsonl(examples: list[FinetuneExample]) -> bytes:
    """Canonical JSONL: one example per line, fixed key order, minimal
    whitespace, UTF-8, exactly one newline after every line."""
    if not examples:
        raise ValidationError("cannot serialize an empty example list")
    lines = []
    for ex in examples:
        obj = {"messages": [{"role": m.role, "content": m.content} for m in ex.messages]}
        lines.append(json.dumps(obj, ensure_ascii=False, separators=(",", ":")))
    return ("\n".join(lines) + "\n").encode("utf-8")


def parse_jsonl(data: bytes) -> list[FinetuneExample]:
    """Inverse of serialize_jsonl, validating structure line by line."""
    examples = []
    for lineno, obj in jsonl_objects(data.decode("utf-8")):
        msgs = obj.get("messages")
        if not isinstance(msgs, list) or len(msgs) != 3:
            raise ParseError("expected exactly 3 messages", lineno)
        try:
            examples.append(
                FinetuneExample(
                    messages=tuple(
                        ChatMessage(role=m["role"], content=m["content"]) for m in msgs
                    )
                )
            )
        except (KeyError, TypeError, ValidationError) as exc:
            raise ParseError(f"malformed message structure: {exc}", lineno) from exc
    if not examples:
        raise ValidationError("training file contains no examples")
    return examples
