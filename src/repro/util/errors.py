"""Exception hierarchy for the whole reproduction.

The hierarchy mirrors the failure classes the paper's system cares about:

* ``MpiError`` — errors raised by a simulated MPI library itself
  (the moral equivalent of a nonzero MPI error class).
* ``InvalidHandleError`` / ``IncompatibleHandleError`` — handle-translation
  failures.  ``IncompatibleHandleError`` is the failure mode of MANA's
  *legacy* virtual-id design when pointed at a pointer-handle MPI
  implementation (Open MPI, ExaMPI); the new design never raises it.
* ``UnsupportedFunctionError`` — a call outside an implementation's
  declared subset (Section 5 of the paper).
* ``CheckpointError`` / ``RestartError`` — failures in the MANA
  checkpoint/restart pipeline.
"""


class ReproError(Exception):
    """Base class for every error raised by this package."""


class MpiError(ReproError):
    """An error reported by a simulated MPI implementation.

    ``error_class`` carries a coarse MPI-style error class string, e.g.
    ``"MPI_ERR_COMM"``, ``"MPI_ERR_TYPE"``, ``"MPI_ERR_TRUNCATE"``.
    """

    def __init__(self, message: str, error_class: str = "MPI_ERR_OTHER"):
        super().__init__(message)
        self.error_class = error_class


class MpiAbort(MpiError):
    """Raised by ``MPI_Abort``; tears down the whole simulated job."""

    def __init__(self, errorcode: int = 1, message: str = "MPI_Abort called"):
        super().__init__(message, error_class="MPI_ABORT")
        self.errorcode = errorcode


class InvalidHandleError(MpiError):
    """A handle that does not name any live MPI object."""

    def __init__(self, message: str):
        super().__init__(message, error_class="MPI_ERR_ARG")


class IncompatibleHandleError(ReproError):
    """A virtual-id scheme cannot represent this implementation's handles.

    This is the concrete failure the paper's Section 4.1 describes: 32-bit
    integer virtual ids conflict with implementations whose MPI object
    types are 64-bit pointers.
    """


class UnsupportedFunctionError(MpiError):
    """The MPI implementation does not provide this function (subset impls)."""

    def __init__(self, impl_name: str, func_name: str):
        super().__init__(
            f"{impl_name} does not implement {func_name}",
            error_class="MPI_ERR_UNSUPPORTED_OPERATION",
        )
        self.impl_name = impl_name
        self.func_name = func_name


class TruncationError(MpiError):
    """Receive buffer smaller than the matched message (MPI_ERR_TRUNCATE)."""

    def __init__(self, message: str):
        super().__init__(message, error_class="MPI_ERR_TRUNCATE")


class CheckpointError(ReproError):
    """A failure while quiescing, draining, or writing a checkpoint."""


class CheckpointRoundAborted(CheckpointError):
    """The current checkpoint round was aborted (a rank failed mid-round
    or a stall was detected); the coordinator may retry the round.  Ranks
    catch this inside ``checkpoint_participate`` and re-park."""


class InjectedFault(ReproError):
    """A fault deliberately injected by a :class:`repro.faults.FaultPlan`.

    Distinct from organic failures so recovery traces can label it and
    tests can assert the fault — not some accident — fired."""


class InjectedCrash(InjectedFault):
    """A simulated *process death* at a named store-mutation syscall
    boundary (:class:`repro.faults.CrashPointInjector`).

    Unlike a plain :class:`InjectedFault` — which a live process may
    catch and clean up after — an ``InjectedCrash`` marks its injector
    *dead*: every subsequent shimmed store operation raises too, so
    ``finally`` blocks cannot tidy the store the way a real kill -9
    never would.  Recovery is ``repro fsck``'s job, not the writer's."""


class RestartError(ReproError):
    """A failure while reconstructing MPI objects or upper-half state."""


class IntegrityError(RestartError):
    """A checkpoint image failed its integrity check: truncated file,
    checksum mismatch, or unrecognized header."""


class MissingChunkError(IntegrityError):
    """A chunk an image references is not in the chunk store."""


class ElasticRestartError(RestartError):
    """An N-rank checkpoint cannot be restored onto M ranks.

    Raised when the upper-half state pins the old world size in a way
    the elastic-restore protocol (PROTOCOLS.md §12) cannot remap: live
    sub-communicators, cartesian topologies, or pending nonblocking
    requests whose endpoints would move."""


class JobPreempted(ReproError):
    """Raised inside every rank when a checkpoint was requested with
    mode="exit": the job saved its state and is being torn down (the
    preemptible-job scenario of the paper's introduction)."""

    def __init__(self, generation: int):
        super().__init__(
            f"job preempted after writing checkpoint generation {generation}"
        )
        self.generation = generation
