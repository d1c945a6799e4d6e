"""Exact simulation and verification of circle gathering with limited visibility."""

from .angles import (
    HALF_TURN,
    QUARTER_TURN,
    antipode,
    cw_angle,
    format_angle,
    norm,
    parse_angle,
)
from .analysis import (
    ConfigurationClass,
    LeaderClass,
    LeaderTag,
    Possibility,
    analysis_report,
    classify,
    configuration_class,
    is_safe_neighbor,
)
from .configuration import (
    Configuration,
    Robot,
    Snapshot,
    gap_sequence,
    is_rotationally_symmetric,
    take_snapshot,
    true_leader,
)
from .errors import (
    AmbiguousSymmetric,
    CircleGatherError,
    ContractViolation,
    GenerationExhausted,
    InvariantViolation,
    LimitExceeded,
    MultiplicityPresent,
    ParseError,
    ScheduleError,
    SymmetricConfiguration,
    TooFewRobots,
)
from .oracle import (
    CheckResult,
    GeneratorSpec,
    brute_force_leader,
    check_propositions,
    oracle_classify,
    random_config,
    search_class,
)
from .protocol import Memory, MoveCommand, decide
from .render import RenderSpec, render_svg
from .sim import (
    AsyncRandomPolicy,
    FsyncPolicy,
    RunLimits,
    RunOptions,
    ScriptedPolicy,
    SsyncPolicy,
    Trace,
    TraceRecord,
    run,
)

__version__ = "0.1.0"
