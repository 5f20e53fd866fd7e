"""Exception hierarchy for the toolkit.

Three bases mirror the CLI exit-code contract: ConfigError (exit 2),
DataError (exit 3), NumericError (exit 4).
"""


class HTSSError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(HTSSError):
    """Invalid, incomplete, or inconsistent run configuration."""


class DataError(HTSSError):
    """Input data violates a documented precondition or file contract."""


class NumericError(HTSSError):
    """A numeric computation left the finite domain."""


class CyclicRelations(DataError):
    def __init__(self, cycle):
        self.cycle = list(cycle)
        super().__init__("relation hierarchy contains a cycle: " + " -> ".join(self.cycle))


class EmptyResult(DataError):
    def __init__(self):
        super().__init__("atom extraction removed every label")


class UncoveredClass(DataError):
    def __init__(self, dataset_id, class_name):
        self.dataset_id = dataset_id
        self.class_name = class_name
        super().__init__(f"class {class_name!r} of dataset {dataset_id!r} maps to no atom")


class NoStrongParent(DataError):
    def __init__(self, atom_name):
        self.atom_name = atom_name
        super().__init__(f"weak-only atom {atom_name!r} has no pixel-supervised ancestor class")


class ShapeMismatch(DataError):
    def __init__(self, detail):
        super().__init__(f"shape mismatch: {detail}")


class IndexOutOfRange(DataError):
    def __init__(self, detail):
        super().__init__(f"index out of range: {detail}")


class NoSupervisedPixels(DataError):
    def __init__(self):
        super().__init__("no supervised pixels in the given target(s)")


class UnsatisfiableQuota(DataError):
    def __init__(self, detail):
        super().__init__(f"unsatisfiable batch quota: {detail}")


class StaleCache(DataError):
    def __init__(self):
        super().__init__("forward cache is stale: parameters changed since the forward pass")


class FormatError(DataError):
    def __init__(self, path, detail):
        self.path = str(path)
        super().__init__(f"{path}: {detail}")


class NonFiniteInput(NumericError):
    def __init__(self, what):
        super().__init__(f"non-finite values in {what}")


class NonFiniteLoss(NumericError):
    def __init__(self, step):
        self.step = step
        super().__init__(f"loss became non-finite at step {step}")
