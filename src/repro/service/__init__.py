"""Batch-compilation service layer.

Compiles many independent circuits concurrently over a process pool, sharing
immutable per-architecture artifacts through a keyed cache.  ``python -m
repro.service`` runs a small self-contained smoke batch (used by CI).
"""

from .batch import (
    BatchCompiler,
    BatchResult,
    CompilationTask,
    TaskResult,
)
from .cache import ARCHITECTURE_CACHE, ArchitectureCache, ArchitectureSpec

__all__ = [
    "ArchitectureSpec",
    "ArchitectureCache",
    "ARCHITECTURE_CACHE",
    "CompilationTask",
    "TaskResult",
    "BatchResult",
    "BatchCompiler",
]
