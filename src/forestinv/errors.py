"""Exception types shared across the package, and the one way a refusal
writes a count."""


class ForestInvError(Exception):
    """Base class for all library errors."""


class ParseError(ForestInvError, ValueError):
    """Malformed tree text.  Carries the character offset of the problem."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset

    def __reduce__(self):
        # replays the bare message and the offset, which `__init__` needs
        return type(self), (str(self).removesuffix(f" (offset {self.offset})"), self.offset)


class DomainError(ForestInvError, ValueError):
    """Input outside an operation's domain."""


class ResourceLimitError(ForestInvError, RuntimeError):
    """A brute-force guard was exceeded; oracles never approximate.
    Carries the guard's estimate of the work and the limit it passed,
    the two numbers the message writes."""

    def __init__(self, message, estimate, limit):
        super().__init__(message)
        self.estimate = estimate
        self.limit = limit

    def __reduce__(self):
        # so that it pickles and copies with its numbers, as with its message alone
        return type(self), (str(self), self.estimate, self.limit)


# Where estimates stop, so none from a huge size is a huge int
_PAST_EVERY_LIMIT = 1 << 64


def _count_text(count: int) -> str:
    """A count in digits, or the power of two below it when it is long."""
    if count < 10**12:
        return str(count)
    return f"2^{count.bit_length() - 1} or more"
