"""Exception types shared across the package, and the clipped repr of bad input."""

import reprlib


def _clip_int(value: int, level: int) -> str:
    try:
        return reprlib.Repr.repr_int(_CLIP, value, level)
    except ValueError:  # past the interpreter's int-to-text digit limit: show the size
        return f"<int of {value.bit_length()} bits>"


# Fixed limits: a deeply nested or huge entry costs little to show, while a
# short entry reads as repr() shows it.
_CLIP = reprlib.Repr()
_CLIP.maxlevel, _CLIP.maxstring, _CLIP.maxother = 3, 60, 60
_CLIP.repr_int = _clip_int
_CLIP_CHARS = 100


def clipped_repr(value) -> str:
    """The repr of a value read from outside, at most _CLIP_CHARS characters long."""
    text = _CLIP.repr(value)
    return text if len(text) <= _CLIP_CHARS else text[: _CLIP_CHARS - 3] + "..."


class ContractViolation(ValueError):
    """An argument broke a documented precondition."""


class InsufficientMonomials(ContractViolation):
    """A revlex segment longer than the whole degree component was requested."""


class NotARevlexSegment(ContractViolation):
    """The operation requires its input set to be a revlex segment."""


class DegreeTooHigh(ContractViolation):
    """The operation requires degree < n - 2."""


class HypothesisViolated(ContractViolation):
    """The input does not satisfy the hypotheses of the characterization."""


class FormulaInapplicable(ContractViolation):
    """The closed-form Betti table only applies to strongly stable ideals."""


class ProfileMismatch(ContractViolation):
    """The two ideals do not have matching generator counts."""


class AmbientCapExceeded(RuntimeError):
    """The construction starved at its ambient-size cap."""

    def __init__(self, cap: int):
        self.cap = cap
        super().__init__(f"construction still incomplete at ambient size {cap} (cap {cap})")


class CampaignTooLarge(RuntimeError):
    """A campaign's ``n_max``, or a stream's n, passes its ceiling."""


class ConstructionTooLarge(RuntimeError):
    """The construction's greedy scan passed its mask budget."""


class OracleTooLarge(RuntimeError):
    """The oracle's work, as the method that runs measures it, passes its cap."""

    def __init__(self, measure: str, size: int, cap: int):
        self.measure = measure
        self.size = size
        self.cap = cap
        super().__init__(f"{measure} reaches {size}, above the cap {cap}")


class TableTooLarge(RuntimeError):
    """A Betti table, the closed form's or the oracle's quotient, passes its cell cap."""

    def __init__(self, table: str, i_max: int, cap: int):
        self.table = table
        self.i_max = i_max
        self.cap = cap
        super().__init__(f"{table} up to i = {clipped_repr(i_max)} has more than {cap} cells")
