"""Exception types shared across the package, and the field check that
reports a malformed file as a ConfigError."""


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
