"""The assistant model that proposes prefix prompts and is itself tuned on
dialogue-formatted history windows.

Two backend classes share one interface: RemoteTA, a model behind an
OpenAI-compatible HTTP service, and SimulatedTA, a deterministic model that
samples from a weighted prefix pool; each builds itself from a run config.
The simulated backend exists so the whole training loop can run and be
verified offline; its tuning rule (+1 pool weight per assistant-message
occurrence) is the smallest mechanism that lets dialogue-formatted tuning
provably shift generation toward better prefixes.
"""

import math
import re
from dataclasses import asdict, dataclass, replace
from typing import TYPE_CHECKING, ClassVar, Sequence

from .dataset import TextExample
from .errors import ProtocolError, ValidationError
from .fileio import encodes
from .remote import RemoteClient
from .rng import Stream

if TYPE_CHECKING:
    from .history import PrefixHistory
    from .trainer import RunConfig

# Proposed prefixes are clipped to this many words: short prefixes work at
# least as well in practice and keep both requests and tuning files small.
PREFIX_WORD_CAP = 10

# At most this many history lines are rendered per request; the list is
# ascending, so truncation keeps the best-scoring tail.
HISTORY_RENDER_CAP = 60

LINEAGES = ("continual", "from_base")  # see RemoteTA


@dataclass(frozen=True)
class ChatMessage:
    role: str  # "system" | "user" | "assistant"
    content: str

    def __post_init__(self):
        if self.role not in ("system", "user", "assistant"):
            raise ValidationError(f"invalid chat role {self.role!r}")
        if not self.content:
            raise ValidationError("chat message content must be non-empty")
        if not encodes(self.content):
            raise ValidationError("chat message content must encode as UTF-8")


@dataclass(frozen=True)
class MetaPrompt:
    """Everything the assistant model is conditioned on besides the
    history: its standing instruction, the task's name, summary and label
    meanings, and an optional handful of exemplars."""

    instruction: str
    name: str
    task_summary: str
    label_semantics: tuple[str, ...] = ()
    exemplars: tuple[TextExample, ...] = ()

    def __post_init__(self):
        if not self.task_summary.strip():
            raise ValidationError("task_summary must be non-empty")
        if not self.instruction.strip():
            raise ValidationError("meta-prompt instruction must be non-empty")


@dataclass(frozen=True)
class SimState:
    """State of the simulated backend.

    The pool maps candidate prefixes to sampling weights. Each generate
    call draws its Gumbel keys from a fresh `Stream((rng_seed, calls))` and
    returns a handle whose counter is one higher, so the state is
    trivially serializable and a restored run continues bit-identically.
    """

    pool: list[tuple[str, float]]
    rng_seed: int = 0
    temperature_scale: float = 1.0
    calls: int = 0

    def __post_init__(self):
        if not self.pool:
            raise ValidationError("simulated pool must be non-empty")
        seen = set()
        for prefix, weight in self.pool:
            if prefix in seen:
                raise ValidationError(f"duplicate pool prefix {prefix!r}")
            seen.add(prefix)
            if not math.isfinite(weight):
                raise ValidationError(f"non-finite pool weight for {prefix!r}")
        if self.temperature_scale <= 0:
            raise ValidationError("temperature_scale must be positive")
        if self.rng_seed < 0:
            raise ValidationError(f"rng_seed must be >= 0, got {self.rng_seed}")
        if self.calls < 0:
            raise ValidationError(f"calls must be >= 0, got {self.calls}")


@dataclass(frozen=True)
class SimulatedTA:
    """The offline assistant model. sim holds its weighted prefix pool and
    sampler state; generation counts the fine-tunes applied so far."""

    sim: SimState
    generation: int = 0
    backend: ClassVar[str] = "simulated"

    @classmethod
    def from_config(cls, cfg: "RunConfig") -> "SimulatedTA":
        """The handle over cfg.sim_pool; refuses a k the pool cannot reach."""
        reachable = len({prefix for prefix, _ in cfg.sim_pool} | {""})
        if cfg.k > reachable:
            raise ValidationError(
                f"k={cfg.k} is unreachable: the simulated backend knows only {reachable} "
                "distinct prefixes (those of sim_pool and the empty prefix)"
            )
        return simulated_handle(cfg.sim_pool, rng_seed=cfg.sim_seed, temperature_scale=cfg.sim_temperature_scale)

    def generate(self, request: list[ChatMessage], l: int, temperature: float) -> tuple[list[str], "SimulatedTA"]:
        """Sample l distinct pool prefixes, probability proportional to
        exp(weight / (temperature_scale * temperature)), and return them with
        the handle that draws the next sample. Temperature 0 is the greedy
        limit: top-l by weight in pool order."""
        state = self.sim
        scale = state.temperature_scale * temperature
        if scale == 0.0:  # temperature 0, or a product that underflows to it: the greedy limit
            keys = [w for _, w in state.pool]
        else:
            # Gumbel top-k: exactly successive softmax sampling w/o replacement.
            gumbels = Stream((state.rng_seed, state.calls)).gumbel(len(state.pool))
            keys = [w / scale + g for (_, w), g in zip(state.pool, gumbels)]
        order = sorted(range(len(keys)), key=lambda i: -keys[i])  # stable: ties keep pool order
        prefixes = [state.pool[i][0] for i in order[:l]]
        return prefixes, replace(self, sim=replace(state, calls=state.calls + 1))

    def finetune(self, training_file: bytes, targets: list[str]) -> "SimulatedTA":
        """+1 pool weight per target occurrence; a target not yet in the
        pool joins it at the end."""
        pool = dict(self.sim.pool)
        for target in targets:
            pool[target] = pool.get(target, 0.0) + 1.0
        sim = replace(self.sim, pool=list(pool.items()))
        return replace(self, sim=sim, generation=self.generation + 1)

    def to_dict(self) -> dict:
        return {"backend": self.backend, "generation": self.generation, "sim": asdict(self.sim)}


@dataclass(frozen=True)
class RemoteTA:
    """A model behind an OpenAI-compatible service. model_id is the model
    generating now; lineage picks what each fine-tune starts from:
    "continual" tunes model_id, "from_base" always restarts from
    base_model_id. generation counts the fine-tunes applied so far."""

    client: "RemoteClient"
    model_id: str
    base_model_id: str
    lineage: str = "continual"
    generation: int = 0
    backend: ClassVar[str] = "remote"

    def __post_init__(self):
        if self.lineage not in LINEAGES:
            raise ValidationError(f"unknown lineage {self.lineage!r}")
        if not (self.model_id and self.base_model_id):
            raise ValidationError("model_id and base_model_id must be non-empty")

    @classmethod
    def from_config(cls, cfg: "RunConfig") -> "RemoteTA":
        """A handle on cfg.model_id through a client for cfg.base_url, which
        refuses a URL that is not absolute http or https."""
        if not cfg.base_url:
            raise ValidationError("remote backend requires base_url and model_id")
        client = RemoteClient(
            base_url=cfg.base_url,
            timeout=cfg.request_timeout_s,
            backoff_base=cfg.retry_backoff_s,
            poll_interval=cfg.poll_interval_s,
            finetune_timeout=cfg.finetune_timeout_s,
        )
        return remote_handle(client, cfg.model_id, lineage=cfg.ta_lineage)

    def generate(self, request: list[ChatMessage], l: int, temperature: float) -> tuple[list[str], "RemoteTA"]:
        """One chat completion, parsed into at most l prefixes, and this
        handle; an unparseable completion is retried within the client's
        budget."""
        prefixes = self.client.chat(
            self.model_id, request, temperature, parse=lambda text: parse_prefixes(text, l)
        )
        return prefixes, self

    def finetune(self, training_file: bytes, targets: list[str]) -> "RemoteTA":
        base = self.base_model_id if self.lineage == "from_base" else self.model_id
        tuned = self.client.run_finetune(base, training_file)
        return replace(self, model_id=tuned, generation=self.generation + 1)

    def to_dict(self) -> dict:
        return {"backend": self.backend, "generation": self.generation, "model_id": self.model_id,
                "base_model_id": self.base_model_id, "lineage": self.lineage}


# Both answer from_config, generate (returns the prefixes and the handle to
# ask next), finetune (returns the tuned handle) and to_dict. A saved handle
# is read back by trainer.state_from_json, which sets the to_dict keys,
# typed by the class's annotations, onto a handle built from the config.
# BACKENDS maps a config's ta_backend to its class.
TAHandle = SimulatedTA | RemoteTA
BACKENDS = {cls.backend: cls for cls in (SimulatedTA, RemoteTA)}


def simulated_handle(
    pool: Sequence[tuple[str, float]], rng_seed: int = 0, temperature_scale: float = 1.0
) -> SimulatedTA:
    return SimulatedTA(SimState([(p, float(w)) for p, w in pool], rng_seed, float(temperature_scale)))


def remote_handle(client: RemoteClient, model_id: str, lineage: str = "continual") -> RemoteTA:
    return RemoteTA(client=client, model_id=model_id, base_model_id=model_id, lineage=lineage)


def render_system_content(mp: MetaPrompt) -> str:
    """System-message text shared verbatim between generation requests and
    fine-tune examples, so the tuned model sees the same conditioning at
    train and inference time."""
    parts = [mp.instruction, ""]
    parts.append(f"DATASET: {mp.name}")
    parts.append(mp.task_summary)
    if mp.label_semantics:
        parts.append("LABELS:")
        parts.extend(mp.label_semantics)
    if mp.exemplars:
        parts.append("")
        parts.append("EXEMPLARS:")
        parts.extend(f"{ex.text}→{ex.label}" for ex in mp.exemplars)
    return "\n".join(parts)


def render_history_lines(entries: Sequence) -> list[str]:
    """One line per (prefix, score) pair, in the order given. Scores are
    fixed at 4 decimals so renders are byte-reproducible."""
    return [f"PREFIX: {e.prefix} | SCORE: {e.score:.4f}" for e in entries]


def render_generation_request(mp: MetaPrompt, history: "PrefixHistory", l: int) -> list[ChatMessage]:
    """Build the two-message chat request asking for l new prefixes,
    with the history rendered ascending (best last)."""
    if l < 1:
        raise ValidationError(f"l must be >= 1, got {l}")
    entries = history.entries[-HISTORY_RENDER_CAP:]
    instruction = (
        f"Propose exactly {l} new prefix prompts for the task that would achieve a "
        f"higher score. Write one prefix per line, at most {PREFIX_WORD_CAP} words "
        "each, with no numbering, quotes, or commentary."
    )
    lines = render_history_lines(entries)
    user = "\n".join(lines) + "\n\n" + instruction if lines else instruction
    return [
        ChatMessage(role="system", content=render_system_content(mp)),
        ChatMessage(role="user", content=user),
    ]


_LIST_MARKER = re.compile(r"^\s*(?:[-*•>]+\s*|\(?\d+[.)\]:]?\s+)")
_QUOTE_CHARS = "\"'`“”‘’"


def _clean_line(line: str) -> str:
    line = _LIST_MARKER.sub("", line).strip()
    while len(line) >= 2 and line[0] in _QUOTE_CHARS and line[-1] in _QUOTE_CHARS:
        line = line[1:-1].strip()
    words = line.split()
    return " ".join(words[:PREFIX_WORD_CAP])


def parse_prefixes(completion_text: str, l: int) -> list[str]:
    """Extract up to l unique prefixes from a completion, one per line.
    List markers and surrounding quotes are stripped; each prefix is
    clipped to the word cap. A prefix that does not encode as UTF-8 is
    dropped. Raises if nothing parseable remains."""
    out: list[str] = []
    seen: set[str] = set()
    for raw in completion_text.splitlines():
        prefix = _clean_line(raw)
        if not prefix or prefix in seen or not encodes(prefix):
            continue
        seen.add(prefix)
        out.append(prefix)
        if len(out) == l:
            break
    if not out:
        raise ProtocolError("completion contained no parseable prefixes")
    return out


def generate(
    h: TAHandle, request: list[ChatMessage], l: int, temperature: float = 1.0
) -> tuple[list[str], TAHandle]:
    """Ask the assistant model for l candidate prefixes. Returns them and
    the handle to ask next; h itself is left unchanged."""
    if l < 1:
        raise ValidationError(f"l must be >= 1, got {l}")
    if temperature < 0:
        raise ValidationError(f"temperature must be >= 0, got {temperature}")
    return h.generate(request, l, temperature)


class Proposer:
    """The search's propose(history, l): the l candidates of `handle` for
    history rendered under mp. Each call moves `handle` on to the one
    generate returns, so the caller reads the handle the search left from
    it, and the handle it started from stays unchanged."""

    def __init__(self, handle: TAHandle, mp: MetaPrompt, temperature: float = 1.0):
        self.handle, self.mp, self.temperature = handle, mp, temperature

    def __call__(self, history: "PrefixHistory", l: int) -> list[str]:
        request = render_generation_request(self.mp, history, l)
        prefixes, self.handle = generate(self.handle, request, l, self.temperature)
        return prefixes


def finetune(h: TAHandle, training_file: bytes, targets: list[str]) -> TAHandle:
    """Tune the assistant model on a serialized dialogue file whose
    assistant messages are targets, and return a handle to the tuned model
    (generation + 1); h itself is left unchanged. Refuses empty targets."""
    if not targets:
        raise ValidationError("finetune needs at least one target")
    return h.finetune(training_file, targets)


def softmax_pool_mass(state: SimState, prefixes: Sequence[str]) -> float:
    """Probability mass the pool softmax (at temperature 1) places on the
    given prefixes: the chance a single greedy-free draw emits one of them.
    Exps are libm's `math.exp`, as in the student's softmax."""
    scaled = [w / state.temperature_scale for _, w in state.pool]
    top = max(scaled)
    exps = [math.exp(v - top) for v in scaled]
    wanted = set(prefixes)
    return sum(e for e, (p, _) in zip(exps, state.pool) if p in wanted) / sum(exps)

