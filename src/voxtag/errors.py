"""Exception hierarchy shared by all voxtag modules."""


class VoxtagError(Exception):
    """Base class for all voxtag errors."""


# --- audio ---
class MalformedHeader(VoxtagError):
    pass


class UnsupportedEncoding(VoxtagError):
    pass


class InvalidF0(VoxtagError):
    pass


# --- dsp ---
class TooShort(VoxtagError):
    pass


class AllUnvoiced(VoxtagError):
    pass


# --- perturb ---
class ZeroSourceMedian(VoxtagError):
    pass


class OutOfRangeFactor(VoxtagError):
    pass


# --- autodiff ---
class ShapeMismatch(VoxtagError):
    pass


class NonScalarLoss(VoxtagError):
    pass


class OutOfRangeStep(VoxtagError):
    pass


class NonFinite(VoxtagError):
    pass


# --- model ---
class EmptyPrefix(VoxtagError):
    pass


class UnknownToken(VoxtagError):
    pass


class DegenerateFrequency(VoxtagError):
    pass


# --- train ---
class DivergedLoss(VoxtagError):
    pass


class SingleClassData(VoxtagError):
    pass


class EmptyList(VoxtagError):
    pass


# --- synthdata / eval ---
class InvalidSpec(VoxtagError):
    pass


class MissingHypothesis(VoxtagError):
    pass


class WrongMode(VoxtagError):
    pass


class LengthMismatch(VoxtagError):
    pass


# --- cli ---
class ConfigInvalid(VoxtagError):
    pass
