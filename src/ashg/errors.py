"""Exception hierarchy for the ashg package."""


def shown(value) -> str:
    """``repr(value)`` for an error message, or a placeholder when ``repr`` refuses
    (an int past ``sys.get_int_max_str_digits()`` digits, or a list holding one)."""
    try:
        return repr(value)
    except ValueError:
        return f"<{type(value).__name__} too long to show>"


class AshgError(Exception):
    """Base class for all errors raised by this package."""


class GameFormatError(AshgError):
    """A game, partition, or instance file could not be parsed."""


class UnknownPlayer(AshgError):
    def __init__(self, player):
        super().__init__(f"unknown player: {shown(player)}")
        self.player = player


class PlayerNotInCoalition(AshgError):
    def __init__(self, player):
        super().__init__(f"player {shown(player)} is not a member of the coalition")
        self.player = player


class InvalidPartition(AshgError):
    """The given set system is not a partition of the player set."""


class DuplicatePlayer(InvalidPartition):
    def __init__(self, player):
        super().__init__(f"player {shown(player)} appears in more than one coalition")
        self.player = player


class MissingPlayer(InvalidPartition):
    def __init__(self, player):
        super().__init__(f"player {shown(player)} is not covered by any coalition")
        self.player = player


class EmptyCoalition(InvalidPartition):
    def __init__(self):
        super().__init__("coalitions must be nonempty")


class EmptyGame(AshgError):
    def __init__(self):
        super().__init__("a game needs at least one player")


class TooLarge(AshgError):
    """An input was refused because it exceeds a size cap, by default an exhaustive search's."""

    def __init__(self, n, cap, unit="players", kind="exhaustive-search"):
        super().__init__(f"{n} {unit} exceeds the {kind} cap of {cap}")
        self.n = n
        self.cap = cap


class InconsistentTrace(AshgError):
    """A solver trace does not replay to a valid partition of the game."""


class InvalidInstance(AshgError):
    """A source-problem instance violates its invariants; ``triple`` indexes the offending triple."""

    def __init__(self, message, triple=None):
        super().__init__(message)
        self.triple = triple


class NotACover(AshgError):
    """The selected triples are not an exact cover of the universe."""


class NotAnEqualSplit(AshgError):
    """The selected weights do not sum to half the total."""
