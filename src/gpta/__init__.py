"""LLM-assisted training of small text classifiers.

A student classifier learns by gradient descent on prefix-augmented
inputs while an assistant language model searches for better prefixes,
guided by a scored history, and is itself tuned each epoch on
dialogue-formatted slices of that history.
"""

from .dataset import (
    Dataset,
    TextExample,
    load_jsonl,
    make_exemplars,
    split,
    synth_generate,
    write_jsonl,
)
from .dialogue_gradient import (
    DialogueGradient,
    FinetuneExample,
    build_windows,
    cap,
    enrich,
    parse_jsonl,
    serialize_jsonl,
)
from .errors import (
    FinetuneError,
    GptaError,
    ParseError,
    ProtocolError,
    StallError,
    StateError,
    TransportError,
    ValidationError,
)
from .history import (
    Origin,
    PrefixHistory,
    RoundStats,
    ScoredPrefix,
    collect,
    insert_sorted,
    seed_history,
)
from .metrics import MetricKind, evaluate, score_prefix, scorer
from .remote import RemoteClient
from .student import (
    Featurizer,
    Gradient,
    StudentParams,
    featurize,
    fnv1a64,
    forward,
    freeze,
    grad,
    init_params,
    load_checkpoint,
    loss,
    predict,
    save_checkpoint,
    sgd_step,
    train_pass,
    unfreeze,
)
from .ta import (
    ChatMessage,
    MetaPrompt,
    Proposer,
    SimState,
    TAHandle,
    finetune,
    generate,
    parse_prefixes,
    remote_handle,
    render_generation_request,
    simulated_handle,
    softmax_pool_mass,
)
from .trainer import (
    RunConfig,
    RunReport,
    RunState,
    improvement_rate,
    prepare,
    run,
    run_epoch,
)

__version__ = "0.1.0"
