"""Exception hierarchy shared across the harness.

``ConfigError`` subclasses map to CLI exit code 2 (bad configuration);
everything else is a runtime failure (exit code 1).
"""


class BenchmarkError(Exception):
    """Base class for all harness errors."""


class ConfigError(BenchmarkError):
    """A problem with an experiment configuration."""


class ExperimentSyntaxError(ConfigError):
    """The experiment file is not valid YAML."""


class SchemaError(ConfigError):
    """Structurally invalid configuration (unknown keys, wrong node types)."""


class UnknownNameError(ConfigError):
    """Task or optimizer name not present in the registry."""


class EmptyListError(ConfigError):
    """A grid axis with zero entries."""


class BadParameterError(ConfigError):
    """Out-of-range task parameter (non-positive sizes, epochs, ...)."""


class BadHyperparameterError(ConfigError):
    """Out-of-range optimizer hyperparameter."""


class OutOfRangeError(BenchmarkError):
    """Schedule queried outside [0, total_steps)."""


class ShapeMismatchError(BenchmarkError):
    """Parameter/gradient/buffer shapes disagree."""


class CheckpointError(BenchmarkError):
    """Base class for checkpoint load/save failures."""


class VersionMismatchError(CheckpointError):
    """Checkpoint written by an incompatible format version."""


class CorruptCheckpointError(CheckpointError):
    """Checkpoint integrity trailer does not match its content."""


class RunIdMismatchError(CheckpointError):
    """Checkpoint belongs to a different resolved configuration."""


class DuplicateCellError(BenchmarkError):
    """Two aggregate cells map to the same heatmap coordinate."""


class EmptyGridError(BenchmarkError):
    """Heatmap requested for an empty cell set."""


class MixedTasksError(BenchmarkError):
    """Aggregation input spans metrics with different directions."""
