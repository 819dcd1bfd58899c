"""Shared exception hierarchy for the Laminar reproduction.

The paper (Section 3.2.5) describes tailored server-side error handling:
exceptions carry a type identifier, an error code, the failed parameters and
supplementary details, and are rendered to a standardized JSON envelope for
the client.  Every error raised anywhere in this package derives from
:class:`ReproError` so the server layer can translate uniformly.
"""

from __future__ import annotations

from typing import Any, Mapping


class ReproError(Exception):
    """Base class for all errors raised by this package.

    Parameters
    ----------
    message:
        Human-readable description of the failure.
    params:
        The offending parameters (name -> value), included in the JSON
        envelope so clients can see which input failed.
    details:
        Optional free-form supplementary details.
    """

    #: Machine-readable error code; subclasses override.
    code: int = 500
    #: Short type identifier used in the JSON envelope.
    kind: str = "InternalError"

    def __init__(
        self,
        message: str,
        *,
        params: Mapping[str, Any] | None = None,
        details: str | None = None,
    ) -> None:
        super().__init__(message)
        self.message = message
        self.params = dict(params or {})
        self.details = details

    def to_json(self) -> dict[str, Any]:
        """Render the standardized JSON error envelope (paper §3.2.5)."""
        body: dict[str, Any] = {
            "error": self.kind,
            "code": self.code,
            "message": self.message,
        }
        if self.params:
            body["params"] = {k: repr(v) for k, v in self.params.items()}
        if self.details:
            body["details"] = self.details
        return body


class ValidationError(ReproError):
    """A request or workflow definition failed validation."""

    code = 400
    kind = "ValidationError"


class GraphError(ValidationError):
    """A workflow graph is malformed (bad ports, cycles, disconnections)."""

    kind = "GraphError"


class MappingError(ReproError):
    """An enactment mapping failed or was misconfigured."""

    code = 500
    kind = "MappingError"


class SerializationError(ReproError):
    """Code or data could not be (de)serialized for transport."""

    code = 422
    kind = "SerializationError"


class RegistryError(ReproError):
    """Generic registry-layer failure."""

    code = 500
    kind = "RegistryError"


class NotFoundError(RegistryError):
    """The requested entity does not exist in the registry."""

    code = 404
    kind = "NotFoundError"


class DuplicateError(RegistryError):
    """An entity with the same identity already exists."""

    code = 409
    kind = "DuplicateError"


class IdempotencyError(RegistryError):
    """An idempotency key was replayed with a *different* request.

    Replaying the same key with the same request returns the stored
    response; the same key fronting different content is a client bug
    the server must surface, never silently resolve either way.
    """

    code = 409
    kind = "IdempotencyConflict"


class PreconditionFailedError(RegistryError):
    """A conditional write's ``ifVersion`` did not match the live state."""

    code = 412
    kind = "PreconditionFailed"


class MethodNotAllowedError(ReproError):
    """The path matches a route pattern, but not with this method.

    Carries the ``allowed`` method list so the transport layer can emit
    the HTTP ``Allow`` header alongside the 405 envelope.
    """

    code = 405
    kind = "MethodNotAllowed"

    def __init__(self, message: str, *, allowed: list[str] | None = None, **kwargs: Any) -> None:
        super().__init__(message, **kwargs)
        self.allowed = sorted(allowed or [])


class AuthenticationError(ReproError):
    """Login failed or the caller is not authorized."""

    code = 401
    kind = "AuthenticationError"


class ExecutionError(ReproError):
    """The execution engine failed while running a workflow."""

    code = 500
    kind = "ExecutionError"


class TransportError(ReproError):
    """The client/server transport failed."""

    code = 502
    kind = "TransportError"


class EnvironmentError_(ReproError):
    """The simulated execution environment could not satisfy a dependency."""

    code = 500
    kind = "EnvironmentError"


#: Map from ``kind`` string back to exception class, used when the client
#: rehydrates a JSON error envelope received from the server.
_KIND_TO_CLASS: dict[str, type[ReproError]] = {
    cls.kind: cls
    for cls in (
        ReproError,
        ValidationError,
        GraphError,
        MappingError,
        SerializationError,
        RegistryError,
        NotFoundError,
        DuplicateError,
        IdempotencyError,
        PreconditionFailedError,
        MethodNotAllowedError,
        AuthenticationError,
        ExecutionError,
        TransportError,
        EnvironmentError_,
    )
}


def error_envelope(
    kind: str,
    code: int | None,
    message: str,
    *,
    params: Mapping[str, Any] | None = None,
    details: str | None = None,
) -> dict[str, Any]:
    """Construct the standardized §3.2.5 error envelope as a dict.

    The canonical path is raising a :class:`ReproError` and letting the
    dispatch layer render ``to_json()``; this constructor exists for
    the transport layers that must answer *before* a dispatch context
    exists (malformed request lines, unsupported methods, worker-crash
    envelopes) so they never hand-roll the dict shape.  Key order is
    part of the wire contract (``error``, ``code``, ``message``,
    ``params``, ``details``) — parity tests pin response bytes.
    ``code=None`` omits the field (job errors are not HTTP responses).
    """
    body: dict[str, Any] = {"error": kind}
    if code is not None:
        body["code"] = int(code)
    body["message"] = message
    if params:
        body["params"] = {k: repr(v) for k, v in params.items()}
    if details:
        body["details"] = details
    return body


def error_from_json(body: Mapping[str, Any]) -> ReproError:
    """Rebuild an exception from a JSON error envelope.

    Unknown kinds degrade gracefully to :class:`ReproError`.
    """
    kind = str(body.get("error", "InternalError"))
    cls = _KIND_TO_CLASS.get(kind, ReproError)
    err = cls(
        str(body.get("message", "unknown error")),
        details=body.get("details"),
    )
    err.params = dict(body.get("params", {}))
    return err
