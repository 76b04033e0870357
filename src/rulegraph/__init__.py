"""Rule-driven task-graph orchestration over pluggable LLM agent roles."""

from .agents import (
    LiveProvider,
    MockProvider,
    PlannerPlan,
    ProviderFailure,
    ProviderRequest,
    ProviderResponse,
    RoleKind,
    parse_structured,
)
from .bench import Sample, ScoreReport, load_dataset, run_benchmark, score_sample
from .engine import (
    AllPathsFailed,
    ConfigError,
    EngineError,
    FusionFailure,
    PlanningFailure,
    RunConfig,
    RunOutcome,
    TraceEvent,
    execute_task,
    write_trace,
)
from .fusion import (
    FinalResult,
    SemanticCluster,
    cluster_candidates,
    fuse_final,
    fuse_subtask,
    resolve_conflict,
)
from .graph import (
    FUSION_ID,
    ROOT_ID,
    NodeKind,
    TaskGraph,
    TaskNode,
    build_graph,
    export_dot,
    predecessor_results,
    ready_nodes,
    remove_node,
    splice_chain,
)
from .membership import MembershipLabel, UnrecognizedLabel, parse_label
from .rules import (
    CandidateResult,
    DomainRule,
    GlobalAssessment,
    GlobalRule,
    RuleSet,
    construct_rules,
    run_global_rule,
    run_rules,
)

__version__ = "0.1.0"
