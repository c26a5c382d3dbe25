"""The alternating per-epoch training loop: train the student on the
history's best prefix, freeze it, collect a scored prefix history, build
dialogue tuning data, and tune the assistant model, with both models pushed
toward the same validation metric. init_state seeds the history with the
assistant model's first proposal, so epoch 0 takes the same path.

Runs are pure functions of their config when the simulated backend is
used: every random draw is derived from seeds in the config, and run state
serializes losslessly, so checkpoints resume bit-identically.
"""

import csv
import functools
import io
import json
import logging
import operator
from collections.abc import Iterable
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

from . import student as student_mod
from . import ta as ta_mod
from .dataset import EXEMPLAR_CAP, Dataset, load_jsonl, make_exemplars, split
from .dialogue_gradient import DEFAULT_FINETUNE_CAP, FINETUNE_SOFT_LIMIT, build_windows, cap, enrich, serialize_jsonl
from .errors import FinetuneError, TransportError, ValidationError
from .fileio import _fields_from_json, _from_json, decoding, read_text, write_atomic
from .history import Origin, PrefixHistory, RoundStats, ScoredPrefix, carry_over, collect, insert_sorted, seed_history
from .metrics import MetricKind, scorer
from .rng import seed_word

logger = logging.getLogger(__name__)

DEFAULT_INSTRUCTION = (
    "You are helping train a small text classifier by proposing short prefix "
    "prompts that get prepended to every input. Suggest prefixes likely to raise "
    "the validation score. The scored history you see is sorted ascending, so "
    "the last line is the current best."
)

# Fallback candidate pool for the simulated backend so a minimal config is
# runnable out of the box; real experiments should supply their own pool.
DEFAULT_SIM_POOL: tuple[str, ...] = (
    "Think step by step",
    "Focus on the key words",
    "Consider the overall tone",
    "Weigh every word carefully",
    "Look for decisive phrases",
    "Classify by the strongest cue",
    "Read closely before deciding",
    "Attend to the label vocabulary",
    "Mind the topic specific terms",
    "Use the most frequent signal",
    "Compare against each label meaning",
    "Trust the clearest evidence",
)


# Each RunConfig metadata limit but "choices": the test a value must pass, and its sign in messages.
_COMPARISONS = {"min": (operator.ge, ">="), "gt": (operator.gt, ">"), "max": (operator.le, "<=")}

# The EpochRecord fields that metrics.csv and curves.svg report, in order.
REPORTED_SERIES = ("train_loss", "val_best", "val_empty", "improvement_rate")


@dataclass
class RunConfig:
    """Resolved run configuration. Field defaults are the shipped defaults
    and field metadata their limits. Building one runs the JSON loader's
    checks, so lists become tuples, numpy scalars are refused and messages
    name $.<field>; from_dict is the loader for a decoded JSON object."""

    data_path: str
    split_fractions: tuple[float, float, float] = (0.8, 0.1, 0.1)
    split_seed: int = field(default=13, metadata={"min": 0})
    metric: str = field(default="accuracy", metadata={"choices": tuple(k.value for k in MetricKind)})
    epochs: int = field(default=5, metadata={"min": 1})
    # k - 2 < l: the history never holds enough of the 12-prefix default
    # pool for a round of l distinct draws to be all known, so collect
    # cannot stall on the defaults.
    k: int = 9
    w: int = field(default=5, metadata={"min": 1})
    l: int = field(default=8, metadata={"min": 1})
    temperature: float = field(default=1.0, metadata={"min": 0})
    finetune_cap: int = field(default=DEFAULT_FINETUNE_CAP, metadata={"min": 1})
    instruction: str = DEFAULT_INSTRUCTION
    exemplar_count: int = field(default=0, metadata={"min": 0, "max": EXEMPLAR_CAP})
    exemplar_seed: int = field(default=17, metadata={"min": 0})
    task_name: str = ""
    task_summary: str = ""
    label_semantics: tuple[str, ...] = ()
    lr: float = field(default=0.1, metadata={"min": 0})
    dims: int = student_mod.DEFAULT_DIMS
    hash_seed: int = 0  # any integer: hashing masks it to 64 bits
    shuffle_seed: int = field(default=29, metadata={"min": 0})
    ta_backend: str = field(default="simulated", metadata={"choices": tuple(ta_mod.BACKENDS)})
    sim_pool: tuple[tuple[str, float], ...] = tuple((p, 0.0) for p in DEFAULT_SIM_POOL)
    sim_seed: int = field(default=0, metadata={"min": 0})
    sim_temperature_scale: float = field(default=1.0, metadata={"gt": 0})
    base_url: str = "https://api.openai.com"
    model_id: str = "gpt-3.5-turbo"
    request_timeout_s: float = field(default=60.0, metadata={"gt": 0})
    retry_backoff_s: float = field(default=0.5, metadata={"min": 0})
    poll_interval_s: float = field(default=2.0, metadata={"min": 0})
    finetune_timeout_s: float = field(default=600.0, metadata={"min": 0})
    ta_lineage: str = field(default="continual", metadata={"choices": ta_mod.LINEAGES})

    def __post_init__(self):
        for f in fields(self):  # every type, then every limit
            setattr(self, f.name, _from_json(f.name, f.type, getattr(self, f.name)))
        for f in fields(self):
            value = getattr(self, f.name)
            for kind, limit in f.metadata.items():
                if kind == "choices":
                    if value not in limit:
                        raise ValidationError(f"unknown {f.name} {value!r}; expected one of {list(limit)}")
                elif not _COMPARISONS[kind][0](value, limit):
                    raise ValidationError(f"{f.name} must be {_COMPARISONS[kind][1]} {limit}, got {value}")
        if not self.data_path:
            raise ValidationError("$.data_path: expected a non-empty path")
        student_mod._check_dims(self.dims)
        if not self.w < self.k:
            raise ValidationError(f"w < k required, got w={self.w}, k={self.k}")
        build_ta(self)  # the selected backend checks its own fields
        if self.finetune_cap > FINETUNE_SOFT_LIMIT:
            logger.warning("finetune_cap=%d exceeds %d; tuning quality degrades past that many examples",
                           self.finetune_cap, FINETUNE_SOFT_LIMIT)

    def to_dict(self) -> dict:
        return {f.name: _to_json(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_dict(cls, obj: dict) -> "RunConfig":
        """Strict loader: unknown keys are errors, so a misspelled
        hyperparameter cannot silently fall back to a default. A sim_pool
        entry may be a bare prefix, of weight 0; the constructor checks types."""
        if not isinstance(obj, dict):
            raise ValidationError("config must be a JSON object")
        names = {f.name for f in fields(cls)}
        for key in obj:
            if key not in names:
                raise ValidationError(f"unknown config key $.{key}")
        if "data_path" not in obj:
            raise ValidationError("missing required config key $.data_path")
        pool = obj.get("sim_pool")
        if isinstance(pool, list):
            pool = [[v, 0.0] if isinstance(v, str) else v for v in pool]
            for i, v in enumerate(pool):
                if not (isinstance(v, list) and len(v) == 2):
                    raise ValidationError(f"$.sim_pool[{i}]: expected a string or [prefix, weight] pair")
            obj = {**obj, "sim_pool": pool}
        return cls(**obj)


def _to_json(value):
    return [_to_json(v) for v in value] if isinstance(value, tuple) else value


@dataclass(frozen=True)
class BestRecord:
    prefix: str
    score: float
    epoch: int


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    train_prefix: str
    train_loss: float
    val_best: float
    val_empty: float
    improvement_rate: float
    finetune_error: str | None = None


@dataclass(frozen=True)
class RunState:
    """Everything needed to continue a run: one record per completed epoch,
    and the student, assistant model and history the last one left."""

    student: student_mod.StudentParams
    ta: ta_mod.TAHandle
    history: PrefixHistory
    records: tuple[EpochRecord, ...]

    @property
    def epoch(self) -> int:
        """The number of completed epochs, which is the next epoch's index."""
        return len(self.records)

    @property
    def best(self) -> BestRecord | None:
        """The first record with the highest val_best (None before epoch 0),
        at the best prefix of the history that epoch saved: the prefix the
        next epoch trained on, or for the last epoch the history's best."""
        if not self.records:
            return None
        top = max(self.records, key=operator.attrgetter("val_best"))  # the first of equals
        later = self.records[top.epoch + 1:]
        prefix = later[0].train_prefix if later else self.history.best().prefix
        return BestRecord(prefix=prefix, score=top.val_best, epoch=top.epoch)


@dataclass(frozen=True)
class RunReport:
    best: BestRecord
    records: tuple[EpochRecord, ...]

    def to_dict(self) -> dict:
        return {
            "best": asdict(self.best),
            "best_state_file": f"state_epoch{self.best.epoch}.json",
            "epochs": [asdict(r) for r in self.records],
            "improvement_rates": [r.improvement_rate for r in self.records],
        }


@dataclass(frozen=True)
class RunContext:
    """Derived, non-serialized run inputs: datasets, the meta-prompt and
    the token tables that stand in for the train and val splits. Fully
    determined by the config, so resumed runs rebuild it."""

    cfg: RunConfig
    train: Dataset
    val: Dataset
    test: Dataset
    mp: ta_mod.MetaPrompt

    @property
    def kind(self) -> MetricKind:
        return MetricKind(self.cfg.metric)

    # Built on first use, so prepare builds none. Per split, so a candidate
    # prefix token is folded over the val vocabulary only, and a training
    # prefix's over the train vocabulary only.
    @functools.cached_property
    def train_featurizer(self) -> student_mod.Featurizer:
        """The train split's token tables, which train_pass takes."""
        return student_mod.Featurizer(self.cfg.dims, self.cfg.hash_seed, self.train)

    @functools.cached_property
    def val_featurizer(self) -> student_mod.Featurizer:
        """The val split's token tables, which every scorer takes."""
        return student_mod.Featurizer(self.cfg.dims, self.cfg.hash_seed, self.val)


def prepare(cfg: RunConfig) -> RunContext:
    data = load_jsonl(cfg.data_path)
    train, val, test = split(data, cfg.split_fractions, cfg.split_seed)
    semantics = cfg.label_semantics
    if not semantics and data.class_names:
        semantics = tuple(f"{i}: {n}" for i, n in enumerate(data.class_names))
    mp = ta_mod.MetaPrompt(
        instruction=cfg.instruction,
        name=cfg.task_name or Path(cfg.data_path).stem,
        task_summary=cfg.task_summary or f"Classify each input text into one of {data.class_count} classes.",
        label_semantics=semantics,
        exemplars=make_exemplars(train, cfg.exemplar_count, cfg.exemplar_seed),
    )
    return RunContext(cfg=cfg, train=train, val=val, test=test, mp=mp)


def build_ta(cfg: RunConfig) -> ta_mod.TAHandle:
    return ta_mod.BACKENDS[cfg.ta_backend].from_config(cfg)


def init_state(ctx: RunContext) -> RunState:
    """The state before epoch 0: a zero student, and a history of the empty
    prefix plus the assistant model's first proposal (origin round -1). The
    zero student scores every prefix alike, and a tie goes after the
    entries it equals, so that proposal is the best entry epoch 0 trains on."""
    cfg = ctx.cfg
    student = student_mod.init_params(cfg.dims, ctx.train.class_count)
    score = scorer(student_mod.freeze(student), ctx.val_featurizer, ctx.kind)
    history = seed_history(score)
    propose = ta_mod.Proposer(build_ta(cfg), ctx.mp, cfg.temperature)
    s0 = propose(history, 1)[0]
    origin = Origin(kind="generated", epoch=0, round=-1)
    history = insert_sorted(history, ScoredPrefix(prefix=s0, score=score(s0), origin=origin))
    return RunState(student=student, ta=propose.handle, history=history, records=())


def _epoch_shuffle_seed(base: int, epoch: int) -> int:
    return seed_word((base, epoch))


def run_epoch(state: RunState, ctx: RunContext) -> tuple[RunState, bytes | None]:
    """One full epoch: student training on the current best prefix, history
    collection against the frozen checkpoint, dialogue-gradient
    construction, and assistant-model tuning. A tuning failure is recorded
    and skipped; student progress is never thrown away. `state` is left
    unchanged, so the same state always gives the same epoch."""
    cfg = ctx.cfg
    e = state.epoch
    history = state.history
    train_prefix = history.best().prefix

    # (1) student training
    student = student_mod.unfreeze(state.student)
    student, train_loss = student_mod.train_pass(
        student, ctx.train_featurizer, train_prefix, cfg.lr, shuffle_seed=_epoch_shuffle_seed(cfg.shuffle_seed, e)
    )

    # (2) freeze, refresh scores, collect
    student = student_mod.freeze(student)
    score = scorer(student, ctx.val_featurizer, ctx.kind)
    history = carry_over(history, score, cfg.k)
    propose = ta_mod.Proposer(state.ta, ctx.mp, cfg.temperature)
    history, rounds = collect(propose, score, history, cfg.k, cfg.l, epoch=e)
    # The token tables keep the rows the next epoch reads: the history's on val, the next training prefix's on train.
    ctx.val_featurizer.retain(history.prefixes())
    ctx.train_featurizer.retain([history.best().prefix])
    ta_handle = propose.handle  # the assistant model as the search left it

    # (3) dialogue gradients
    windows = build_windows(history, cfg.w)
    examples = cap(enrich(windows, ctx.mp), cfg.finetune_cap)

    # (4) assistant-model tuning
    finetune_error: str | None = None
    gradients: bytes | None = None
    if examples:
        gradients = serialize_jsonl(examples)
        try:
            ta_handle = ta_mod.finetune(ta_handle, gradients)
        except (TransportError, FinetuneError) as exc:
            finetune_error = str(exc)
            logger.warning("epoch %d: fine-tune failed, keeping current model: %s", e, exc)
    else:
        finetune_error = "no tuning examples (all window targets empty)"
        logger.warning("epoch %d: %s", e, finetune_error)

    record = EpochRecord(
        epoch=e,
        train_prefix=train_prefix,
        train_loss=train_loss,
        val_best=history.best().score,
        val_empty=history.find("").score,
        improvement_rate=improvement_rate(rounds),
        finetune_error=finetune_error,
    )
    new_state = RunState(student=student, ta=ta_handle, history=history, records=state.records + (record,))
    return new_state, gradients


def improvement_rate(rounds: list[RoundStats]) -> float:
    """Fraction of generated candidates that strictly beat the best score
    already in the history when they were proposed."""
    if not rounds:
        raise ValidationError("improvement_rate needs at least one round")
    generated = sum(r.generated for r in rounds)
    if generated == 0:
        raise ValidationError("no candidates were generated")
    return sum(r.exceeded_max for r in rounds) / generated


def state_to_json(state: RunState) -> bytes:
    """The state file's bytes: compact JSON in UTF-8 and a newline, the
    student spliced in as params_to_json writes it. The parts are joined as
    bytes, not as one str, which would store every character at the width
    of the widest prefix character, so the write holds about twice the
    file whatever script the prefixes are in."""
    rest = json.dumps({
        "student_frozen": state.student.frozen,
        "ta": state.ta.to_dict(),
        "history": state.history.to_list(),
        "best": None if state.best is None else asdict(state.best),
        "records": [asdict(r) for r in state.records],
    }, ensure_ascii=False, separators=(",", ":"))
    return b"".join((b'{"epoch":%d,"student":' % state.epoch, student_mod.params_to_json(state.student), b",",
                     rest[1:].encode(), b"\n"))


def state_from_json(text: str | bytes, cfg: RunConfig) -> RunState:
    """Inverse of state_to_json. Every part is read by the typed reader,
    the saved assistant fields are set onto build_ta(cfg), and the history
    is rebuilt with insert_sorted. Invalid JSON, a missing, unknown or
    mistyped value, an epoch other than the number of records (numbered
    0, 1, ...), a history that rebuilds otherwise (a repeated prefix or a
    descending score) or without the empty prefix, an assistant generation
    other than the number of records without a finetune_error, a best
    record other than the rebuilt state's (RunState.best), and a state
    saved under another backend or with a student of other dims raise
    ValidationError."""
    ta = build_ta(cfg)
    with decoding("run state"):
        obj = json.loads(text)
        saved = obj["ta"]["backend"]
    if saved != ta.backend:
        raise ValidationError(f"cannot resume: the state was saved under the {saved!r} "
                              f"assistant backend, but the config selects {ta.backend!r}")
    with decoding("run state"):
        unknown = obj.keys() - {"epoch", "student", "student_frozen", "ta", "history", "best", "records"}
        if unknown:
            raise ValidationError(f"$: unknown keys {sorted(unknown)}")
        saved_ta = {key: value for key, value in obj["ta"].items() if key != "backend"}
        ta = replace(ta, **_fields_from_json(type(ta), saved_ta, "ta", ta.to_dict().keys() - {"backend"}))
        entries = _from_json("history", tuple[ScoredPrefix, ...], obj["history"])
        history = functools.reduce(insert_sorted, entries, PrefixHistory())
        best = _from_json("best", BestRecord | None, obj["best"])
        records = _from_json("records", tuple[EpochRecord, ...], obj["records"])
        epoch = _from_json("epoch", int, obj["epoch"])
        frozen = _from_json("student_frozen", bool, obj["student_frozen"])
        if epoch != len(records) or any(r.epoch != i for i, r in enumerate(records)):
            raise ValidationError(f"epoch {epoch} does not follow records of epochs {[r.epoch for r in records]}")
        if history.entries != entries:
            raise ValidationError("$.history: prefixes must be distinct and scores ascending")
        if history.find("") is None:
            raise ValidationError("$.history: the empty prefix is missing")
        tunes = sum(r.finetune_error is None for r in records)
        if ta.generation != tunes:
            raise ValidationError(f"$.ta.generation: {ta.generation}, but the records show {tunes} fine-tunes")
        params = student_mod.params_from_dict(obj["student"])
        state = RunState(student_mod.freeze(params) if frozen else params, ta, history, records)
        if best != state.best:
            raise ValidationError(f"$.best: {best} is not {state.best}, derived from the records and the history")
    if params.dims != cfg.dims:
        raise ValidationError(f"cannot resume: the state's student has dims {params.dims}, the config {cfg.dims}")
    return state


def config_to_json(cfg: RunConfig) -> str:
    return json.dumps(cfg.to_dict(), ensure_ascii=False, indent=2) + "\n"


def write_metrics_csv(records: Iterable[EpochRecord], path: Path) -> None:
    """Write one CSV row per epoch record, atomically."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["epoch", *REPORTED_SERIES])
    for r in records:
        writer.writerow([r.epoch] + [f"{getattr(r, name):.6f}" for name in REPORTED_SERIES])
    write_atomic(path, buf.getvalue())


def run(cfg: RunConfig, out_dir: str | Path, resume_from: str | Path | None = None) -> RunReport:
    """Execute the configured run, checkpointing after every epoch.

    Writes into out_dir: config.json (resolved config), one
    state_epoch{N}.json and gradients_epoch{N}.jsonl per epoch,
    report.json, and metrics.csv. With resume_from, continues from a saved
    state and reproduces exactly what an uninterrupted run would have done.
    Builds its own RunContext with prepare(cfg), so a caller that has
    already prepared loads and splits the data a second time.
    """
    out_dir = Path(out_dir)
    ctx = prepare(cfg)
    if resume_from is not None:
        state = state_from_json(read_text(resume_from), cfg)
        if state.student.class_count != ctx.train.class_count:
            raise ValidationError(f"cannot resume: the state's student has {state.student.class_count} "
                                  f"classes, the data {ctx.train.class_count}")
        if state.epoch > cfg.epochs:
            raise ValidationError(f"cannot resume: the state has {state.epoch} epochs, the config {cfg.epochs}")
        logger.info("resuming from %s at epoch %d", resume_from, state.epoch)
    else:
        state = init_state(ctx)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_atomic(out_dir / "config.json", config_to_json(cfg))

    while state.epoch < cfg.epochs:
        epoch = state.epoch
        state, gradients = run_epoch(state, ctx)
        if gradients is not None:
            write_atomic(out_dir / f"gradients_epoch{epoch}.jsonl", gradients)
        write_atomic(out_dir / f"state_epoch{epoch}.json", state_to_json(state))
        rec = state.records[-1]
        logger.info("epoch %d: train_loss=%.4f val_best=%.4f val_empty=%.4f rate=%.3f",
                    epoch, rec.train_loss, rec.val_best, rec.val_empty, rec.improvement_rate)

    report = RunReport(best=state.best, records=state.records)
    write_atomic(
        out_dir / "report.json", json.dumps(report.to_dict(), ensure_ascii=False, indent=2) + "\n"
    )
    write_metrics_csv(report.records, out_dir / "metrics.csv")
    return report
