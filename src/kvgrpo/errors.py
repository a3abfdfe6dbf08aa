"""Exception types shared across the package."""


class ConfigError(Exception):
    """Invalid configuration: bad field value, unknown key, missing file."""


class ContractError(RuntimeError):
    """A caller violated an operation's precondition."""


class InsufficientHistoryError(ValueError):
    """Not enough generated frames to route from (the routable set is too small)."""


class NumericalError(ArithmeticError):
    """A non-finite value appeared during evaluation or differentiation."""
