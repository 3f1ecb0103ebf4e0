"""Exception types shared across the package, one for each way a caller handles an error.

`ZeroVector` and `NonFinite` (a diverged simulation) and `InvalidConfig` and
`MissingData` (bad input) exit 2 in `cli.main`; `TooFewSamples` leaves a run
without a stationary estimate in `cli._run_chains`; `DegeneratePoint` skips
an oracle point in `cli.verify_oracles`.  Any other argument outside its
domain raises `InvalidConfig`.
"""


class ZeroVector(ValueError):
    """A vector that must be normalized has (numerically) zero norm."""


class NonFinite(ArithmeticError):
    """A loss or gradient became NaN/Inf during simulation."""


class TooFewSamples(ValueError):
    """Not enough samples for the requested estimate."""


class DegeneratePoint(ArithmeticError):
    """Closed-form expression evaluated where its denominator vanishes."""


class InvalidConfig(ValueError):
    """A configuration value or function argument outside its domain."""


class MissingData(RuntimeError):
    """An analysis input (file or series) is absent or insufficient."""
