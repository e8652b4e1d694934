"""Exception types shared across the package."""


class DimensionError(ValueError):
    """Shapes of the involved arrays are incompatible for the operation."""


class ContractError(ValueError):
    """A call violated an operation's precondition (not a shape problem)."""


class StateError(RuntimeError):
    """The object is in the wrong state for the requested operation."""


class ConfigError(ValueError):
    """A configuration value or combination of values is invalid."""


class DataError(ValueError):
    """A dataset cannot supply what was requested."""


class NonFiniteLossError(StateError):
    """Training produced a NaN/Inf loss or gradient and was aborted."""
