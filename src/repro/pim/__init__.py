"""PIM substrate: ISA, functional units, lock-step executor."""

from repro._exports import lazy_exports

_EXPORTS = {
    "PIMExecutor": "executor",
    "PIMStats": "executor",
    "FunctionalUnit": "fu",
    "RegisterFile": "fu",
    "PIM_ADD": "isa",
    "PIM_LOAD": "isa",
    "PIM_MAC": "isa",
    "PIM_MUL": "isa",
    "PIM_STORE": "isa",
    "PIMOp": "isa",
    "PIMOpKind": "isa",
    "CompiledPIMKernel": "program",
    "PIMProgram": "program",
    "PIMProgramError": "program",
    "RegisterHandle": "program",
    "VectorHandle": "program",
    "vector_add_program": "program",
}

__all__ = list(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS)
