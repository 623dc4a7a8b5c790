"""Hardware-operation scheduling: timed lowering of mapped circuits."""

from .schedule import OperationKind, Schedule, ScheduledOperation
from .scheduler import Scheduler
from .validate import validate_schedule

__all__ = ["Scheduler", "Schedule", "ScheduledOperation", "OperationKind",
           "validate_schedule"]
