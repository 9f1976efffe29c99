"""Graph-structured agentic retrieval memory engine.

A reasoning-state DAG with an attached multimodal memory bank, graph-aware
token budget allocation, the agent tool-call wire protocol, a deterministic
simulated retrieval environment, the full episode loop, and trainer-side
trajectory segmentation with pruning masks.
"""

from .config import Config, load_config, dump_config
from .energy import (
    BudgetAssignment,
    EnergyParams,
    EnergyReport,
    ItemModality,
    VisualItem,
    allocate_budget,
    normalize_priority,
    recursive_energy,
    select_top_k,
    shape_memory,
)
from .errors import DomainError
from .graph import MemoryGraph, MemoryNode, NodeKind, new_graph
from .protocol import (
    Answer,
    Memorize,
    MemorizeDecision,
    ParsedResponse,
    PromptBundle,
    Retrieve,
    format_timestamp,
    parse_response,
    render_context,
    render_observation,
    serialize_action,
)
from .retrieval import (
    Corpus,
    CorpusItem,
    Modality,
    Observation,
    build_corpus,
    embed,
    load_corpus,
    resolve_keyframes,
    sample_frames,
    save_corpus,
    search,
)
from .runtime import (
    EpisodeConfig,
    ExactMatchJudge,
    RemoteJudge,
    RemotePolicy,
    ScriptedPolicy,
    Trajectory,
    apply_action,
    judge_exact,
    load_trajectory,
    run_episode,
    save_trajectory,
)
from .training import (
    MaskTag,
    ObjectiveInputs,
    PruningMask,
    RolloutGroup,
    TrajectorySegment,
    detect_valuable_retrieval,
    export_training_batch,
    group_advantage,
    masked_objective,
    prepare_group,
    pruning_mask,
    segment_trajectory,
)

__version__ = "0.1.0"
