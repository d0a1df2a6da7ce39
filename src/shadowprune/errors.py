"""Exception hierarchy shared by all shadowprune modules.

Two branches matter to the CLI: ``DataError`` maps to exit code 2 and
``NumericError`` to exit code 3.
"""


class ShadowPruneError(Exception):
    """Base class for every library-raised error."""


class DataError(ShadowPruneError):
    """Bad, missing, or inconsistent input data."""


class NumericError(ShadowPruneError):
    """Numeric degeneracy or failed convergence."""


class MalformedFile(DataError):
    """Image file with a broken header or truncated payload."""


class UnsupportedFormat(DataError):
    """Image format (or maxval) outside the supported netpbm subset."""


class EmptyImage(DataError):
    """Operation requires at least one pixel."""


class ImageTooSmall(DataError):
    """Image smaller than the requested patch or grid edge."""


class EmptyList(DataError):
    """Operation requires a non-empty sequence."""


class DegenerateHistogram(NumericError):
    """Constant image: every threshold leaves one class empty."""


class InsufficientData(DataError):
    """Too few rows (or too few rows per class) for the operation."""


class ConstantFeature(NumericError):
    """A feature column has zero span, so min-max scaling divides by zero."""


class SingleClassData(DataError):
    """Training data contains only one label."""


class NonConvergence(NumericError):
    """Optimizer hit its iteration cap before reaching tolerance.

    Carries the last iterate so callers can inspect it, and the solver's
    counters (`svm.SolverStats`) as `stats`; the iterate is never
    returned as if training had succeeded.
    """

    def __init__(self, message: str, partial_model=None, stats=None):
        super().__init__(message)
        self.partial_model = partial_model
        self.stats = stats


class IoError(DataError):
    """Filesystem read/write failure."""


class SchemaVersionMismatch(DataError):
    """Model file written by an unknown format version."""


class CorruptModel(DataError):
    """Model file is truncated or fails to parse."""


class MissingImage(DataError):
    """Manifest row points at a file that does not exist."""


class LabelConflict(DataError):
    """A tree's sample points carry contradictory labels."""


class DuplicatePhotoId(DataError):
    """(tree_id, photo_id) appears more than once in a manifest."""


class InvalidLabel(DataError):
    """Label outside the accepted set {0, 1, -1, +1}."""


class InvalidConfig(DataError):
    """Configuration value outside its documented range."""


class DimensionMismatch(DataError):
    """Model and data disagree on the number of features."""
