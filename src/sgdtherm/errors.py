"""Exception types shared across the package, each a reason `cli.main` exits 2.

`ZeroVector` and `NonFinite` mark a diverged simulation, `InvalidConfig` and
`MissingData` bad input; any other argument outside its domain raises
`InvalidConfig`.  A value that does not exist (an undefined SNR, a closed form
at a vanishing denominator, the stationary estimate of a too-short tail) is
NaN, not an exception.
"""


class ZeroVector(ValueError):
    """A vector that must be normalized has (numerically) zero norm."""


class NonFinite(ArithmeticError):
    """A loss or gradient became NaN/Inf during simulation."""


class InvalidConfig(ValueError):
    """A configuration value or function argument outside its domain."""


class MissingData(RuntimeError):
    """An analysis input (file or series) is absent or insufficient."""
