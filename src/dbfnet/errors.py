"""Exception types shared across the library."""


class DbfError(Exception):
    """Base class for all library errors."""


class GridMismatch(DbfError):
    """Operands live on different state grids."""


class AllZero(DbfError):
    """Every cell of a density vanished before normalization."""


class DomainError(DbfError):
    """A scalar parameter is outside its admissible range."""


class WeightMismatch(DbfError):
    """Pool weight count does not match the number of densities."""


class WeightRowInvalid(DbfError):
    """A fusion weight row is negative or does not sum to one."""


class NotSymmetric(DbfError):
    """An undirected-graph construction received a directed edge set."""


class Disconnected(DbfError):
    """The communication graph is not connected."""


class KernelInvalid(DbfError):
    """A transition kernel row does not integrate to one."""


class ErrorBudgetExceeded(DbfError):
    """Communication or modeling error leaves no admissible sampling interval."""


class SingularF(DbfError):
    """The state transition matrix is not invertible."""


class SingularR(DbfError):
    """A measurement noise covariance is not invertible."""


class SingularSum(DbfError):
    """An information-filter intermediate sum is not invertible."""


class SingularPosterior(DbfError):
    """The posterior information matrix is not invertible."""


class ConfigInvalid(DbfError):
    """A run configuration failed validation."""
