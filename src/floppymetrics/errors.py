"""Domain errors with stable machine-readable codes (mirrored by the CLI); the bottom layer, importing nothing."""


class MetricError(Exception):
    """Base class for all domain errors. ``code`` is stable across versions."""

    code = "METRIC_ERROR"

    def __init__(self, message, **details):
        super().__init__(message)
        self.details = details


class MalformedInputError(MetricError):
    code = "REJECT_MALFORMED"


class UnknownVertexError(MetricError):
    code = "UNKNOWN_VERTEX"


class DisconnectedError(MetricError):
    code = "DISCONNECTED"


class NotGraphMetricError(MetricError):
    code = "NOT_GRAPH_METRIC"


class NotFloppyError(MetricError):
    code = "NOT_FLOPPY"


class AlreadyEdgeError(MetricError):
    code = "ALREADY_EDGE"


class ROutOfRangeError(MetricError):
    code = "R_OUT_OF_RANGE"


class ChoiceSetMissesIntervalError(MetricError):
    code = "CHOICE_SET_MISSES_INTERVAL"


class MissingChoiceSetError(MetricError):
    code = "MISSING_CHOICE_SET"


class EmptyGatewaySetError(MetricError):
    code = "EMPTY_B"


class DepthZeroError(MetricError):
    code = "DEPTH_ZERO"


class GenerationExhaustedError(MetricError):
    code = "GENERATION_EXHAUSTED"
