"""Name stub: the engine has no count kernel.

perfbench/worker.py records backend() as a fact; ROADMAP item 1 deletes this module.
"""


def backend() -> str:
    return "none"
