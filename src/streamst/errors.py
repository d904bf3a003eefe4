"""Exception types shared across the package, and the readers that refuse a
malformed file with a ConfigError naming the file and the place in it."""

import json
import math
import struct

import numpy as np


class ShapeError(ValueError):
    """Operands have incompatible shapes for the requested operation."""


class ContractError(RuntimeError):
    """A caller violated a documented precondition."""


class ConfigError(ValueError):
    """A configuration value or file is invalid."""


class StreamClosedError(RuntimeError):
    """An encoder stream received frames after its final chunk."""


class InsufficientFramesError(ValueError):
    """An utterance is too short to produce any encoder output."""


class EmptyUtteranceError(ValueError):
    """An utterance has zero frames."""


class TrainingDivergedError(RuntimeError):
    """The training loss became non-finite."""


def typed_field(obj, key: str, kinds: tuple, where: str):
    """obj[key], where obj must be a dict and the value one of kinds; a bool
    counts only where kinds names it.  where names the file and place."""
    value = obj.get(key) if isinstance(obj, dict) else None
    if not isinstance(value, kinds) or (isinstance(value, bool) and bool not in kinds):
        raise ConfigError("%s: %s must be %s, got %r"
                          % (where, key, " or ".join(k.__name__ for k in kinds), value))
    return value


def _utf8(raw, path, offset: int) -> str:
    try:
        return str(raw, "utf-8")
    except UnicodeDecodeError as e:
        raise ConfigError("%s: byte %d is not UTF-8" % (path, offset + e.start)) from None


def read_text(path) -> str:
    """The file's text with universal newlines, as open(path) reads it."""
    with open(path, "rb") as f:
        return _utf8(f.read(), path, 0).replace("\r\n", "\n").replace("\r", "\n")


def parse_json(text: str, where: str):
    """json.loads(text); where names the file, and the line if it is one."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as e:
        raise ConfigError("%s is not valid json: %s" % (where, e)) from None


class BinaryReader:
    """Reads a little-endian file front to back after its magic: struct
    fields, u32-length-prefixed UTF-8 text and <f4 tensors, then end().
    Each read checks that its bytes are there before it builds anything."""

    def __init__(self, path, magic: bytes):
        with open(path, "rb") as f:
            self.blob, self.path, self.off = memoryview(f.read()), path, len(magic)
        if self.blob[:self.off] != magic:
            raise ConfigError("%s does not start with %r (bad magic)" % (path, magic))

    def take(self, n: int):
        start, self.off = self.off, self.off + n
        if self.off > len(self.blob):
            raise ConfigError("%s is truncated: %d bytes wanted at byte %d, %d left"
                              % (self.path, n, start, len(self.blob) - start))
        return self.blob[start:self.off]

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def text(self) -> str:
        raw = self.take(self.unpack("<I")[0])
        return _utf8(raw, self.path, self.off - len(raw))

    def tensor(self, shape: tuple) -> np.ndarray:
        raw = self.take(4 * math.prod(shape))
        return np.frombuffer(raw, dtype="<f4").reshape(shape).astype(np.float32)

    def end(self) -> None:
        if self.off != len(self.blob):
            raise ConfigError("%s has %d trailing bytes" % (self.path, len(self.blob) - self.off))
