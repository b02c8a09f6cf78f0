"""Exception taxonomy shared across the package.

Every failure mode that a caller might reasonably want to catch gets its
own class here; generic ValueError/TypeError are reserved for plain
argument misuse.
"""


class ExactRnnError(Exception):
    """Base class for all package-specific errors."""


class NotInImage(ExactRnnError):
    """A number was asked to be decoded but no word encodes to it."""


class UndefinedThreshold(ExactRnnError):
    """Output threshold applied to a value strictly inside (0, 1)."""


class ProtocolViolation(ExactRnnError):
    """Network output broke the spike discipline (stray nonzero before
    the decision step, or validation line misuse)."""


class Timeout(ExactRnnError):
    """A run exceeded its step budget without producing a decision."""


class MachineStuck(ExactRnnError):
    """No transition applies to the current machine configuration."""


class ConsistencyViolation(ExactRnnError):
    """An advice machine gave answers that contradict each other across
    input lengths or advice prefixes."""


class BppViolation(ExactRnnError):
    """A stochastic runner's acceptance probability landed inside the
    forbidden middle band (1/3, 2/3)."""


class DegenerateProbability(ExactRnnError):
    """An estimation procedure requires a coin with 0 < p < 1."""


class CompileError(ExactRnnError):
    """The machine-to-network compiler rejected its input."""


class MalformedInterleaving(ExactRnnError):
    """An interleaved string fails its separator pattern and cannot be
    split back into blocks."""


class MalformedAdvice(ExactRnnError):
    """A block-coded advice string cannot be parsed back into a
    language slice (filler inside the code region, bad half symbol)."""


class Mismatch(ExactRnnError):
    """A decompressor's output disagrees with the stream it is supposed
    to reproduce (raised only by strict checks; reports record it)."""


class BoundViolation(ExactRnnError):
    """A decompressor overran its declared time budget (raised only by
    strict checks; reports record it)."""


class NotASampleLength(ExactRnnError):
    """Prefix-advice decoding was asked about a length that the sample
    sequence never visits."""


class SearchExhausted(ExactRnnError):
    """A bounded search (calibration, precision doubling) ran out of
    budget before establishing its goal."""


class NoConvergence(SearchExhausted):
    """Precision calibration found no working constant below its cap."""


class PrecisionExhausted(SearchExhausted):
    """Interval evaluation could not separate a threshold even at the
    maximum permitted number of bias bits."""


class PreconditionViolated(ExactRnnError):
    """A documented entry condition of a construction does not hold for
    the supplied arguments."""


class BudgetExceeded(ExactRnnError):
    """Exact enumeration would require more branches than permitted."""
