"""Partial graph metrics: floppiness, one-step/full extensions, the
metric-extending game, and glued patchworks, in exact rational arithmetic."""

from .core import (
    Doubleton,
    FloppyReport,
    PartialMetric,
    ValidationReport,
    as_rational,
    doubleton_dist,
    is_floppy,
    lower_envelope,
    minimal_floppy_extension,
    pair,
    shortest_chain,
    shortest_path,
    validate,
)
from .errors import MetricError
from .extension import (
    PROPOSITION,
    THEOREM,
    AdmissibleInterval,
    ChoiceSet,
    ExtensionStep,
    ExtensionTrace,
    StepPropertyReport,
    admissible_interval,
    full_extend,
    one_step_extend,
    verify_step_properties,
)
from .game import (
    PLAYER_I_WINS,
    PLAYER_II_WINS,
    GameTranscript,
    Move,
    SabotagePlan,
    adversary_player_two,
    play,
    replay_sabotage,
    sabotage_witness,
    winning_player_one,
)
from .generators import (
    cantor_tree,
    complete_metric,
    cycle_metric,
    h_graph,
    path_metric,
    random_floppy,
    star_metric,
)
from .glue import (
    CertReport,
    Patchwork,
    floppy_certificate,
    gateway_slack,
    glue,
    glue_hat,
    validate_patchwork,
)
from .serialize import (
    dump_metric,
    load_metric,
    metric_from_doc,
    metric_to_doc,
    patchwork_from_doc,
    patchwork_to_doc,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
