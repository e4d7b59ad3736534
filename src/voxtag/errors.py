"""Exception hierarchy shared by all voxtag modules, and their text readers."""

import io


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


class LengthMismatch(VoxtagError):
    pass


# --- cli ---
class ConfigInvalid(VoxtagError):
    pass


def utf8_lines(path):
    """The lines of a UTF-8 text file, as open(path, encoding="utf-8") yields
    them. A byte that does not decode raises MalformedHeader naming the file
    and the line."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        return io.StringIO(data.decode("utf-8"), newline=None)
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise MalformedHeader(f"{path}:{line}: byte {data[exc.start]:#04x} is not UTF-8") from None


def tsv_records(path, n_fields):
    """(line number, fields) of each non-blank line of a tab-separated UTF-8
    file whose first field is an utterance id. Another number of fields, or an
    id seen on an earlier line, raises MalformedHeader naming file and line."""
    first_line = {}
    for lineno, line in enumerate(utf8_lines(path), 1):
        line = line.rstrip("\n")
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != n_fields:
            raise MalformedHeader(f"{path}:{lineno}: {len(fields)} fields, expected {n_fields}")
        uid = fields[0]
        if uid in first_line:
            raise MalformedHeader(f"{path}:{lineno}: duplicate utterance id {uid!r} "
                                  f"(first on line {first_line[uid]})")
        first_line[uid] = lineno
        yield lineno, fields
