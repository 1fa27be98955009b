"""Exception hierarchy shared across the package."""


class DVSError(Exception):
    """Base class for every error raised by this library."""


class NonInvertible(DVSError):
    """Requested the inverse of a residue that has none (zero, or a non-unit mod a composite)."""


class OutOfRange(DVSError):
    """A scalar fell outside its required interval."""


class GenerationTimeout(DVSError):
    """Parameter search exhausted its attempt budget without a prime pair."""


class MessageTooLong(DVSError):
    """Payload does not fit into the group's message space."""


class MalformedEncoding(DVSError):
    """A residue does not carry the expected payload framing."""


class InvalidNonce(DVSError):
    """A signing nonce violated its domain (e.g. zero where Z_q* is required)."""


class InvalidRandomness(DVSError):
    """Simulator randomness violated its domain."""


class DegenerateHash(DVSError):
    """The hash landed on r = 0 (no inverse mod q) for one draw, or for every draw of a space."""


class InvalidSignature(DVSError):
    """Verification failed: hash mismatch or fields out of range."""


class InvalidPVSignature(InvalidSignature):
    """The publicly verifiable signature handed to the designator is invalid."""


class GroupTooLarge(DVSError):
    """Exhaustive enumeration was asked to iterate an infeasible group."""


class SchemeMismatch(DVSError):
    """Two signature multisets of different schemes or different moduli p were compared."""


class Malformed(DVSError):
    """A wire blob or armored file does not parse, or what it holds is no valid group or key."""
