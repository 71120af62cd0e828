"""Engine error taxonomy.

Everything here maps to the CLI verdict INCONCLUSIVE (never silently to
PASS/FAIL), except the input-validation errors which exit with code 3.
"""


class EngineError(Exception):
    pass


class BudgetExceeded(EngineError):
    def __init__(self, msg, shell=None, truncation=None, cells=None):
        super().__init__(msg)
        self.shell = shell
        self.truncation = truncation
        self.cells = cells


class NoRecurrence(EngineError):
    pass


class InfiniteLowerSupport(EngineError):
    pass


class Singular(EngineError):
    pass


class ZeroDenominator(EngineError):
    pass


class AllDegenerate(EngineError):
    pass


class ToleranceNotMet(EngineError):
    pass


class NearZeroDenominator(EngineError):
    pass
