"""Controllers for the background-job routes and repository ingestion.

Two small controllers over :class:`repro.jobs.JobManager`:

* :class:`JobsController` — ``GET /v1/jobs`` (the caller's jobs,
  newest first), ``GET /v1/jobs/{id}``, ``POST /v1/jobs/{id}:cancel``.
  Jobs are **owner-scoped**: these routes carry no ``{user}`` path
  segment, so the principal comes from the token alone, and another
  tenant's job ids answer 404 (existence is not leaked).
* :class:`IngestController` — ``POST /v1/registry/{user}/ingest``
  validates the typed envelope, submits the
  :func:`repro.ingest.pipeline.run_ingest` body and answers **202**
  with the queued job snapshot immediately; all the walking, chunking,
  embedding and batched bulk registration happens on the job worker
  (see :mod:`repro.ingest`).
"""

from __future__ import annotations

from repro.errors import NotFoundError, ValidationError
from repro.ingest.pipeline import run_ingest
from repro.net.transport import Request, Response
from repro.server.controllers import BaseController
from repro.server.schema import INGEST, JOBS, parse


def _job_body(snapshot: dict) -> dict:
    return {"apiVersion": "v1", "job": snapshot}


class JobsController(BaseController):
    """Handlers behind the ``/v1/jobs`` route table."""

    def _owned(self, request: Request, job_id: str) -> dict:
        """The caller's job snapshot, or 404 (never another tenant's)."""
        principal = self.token_principal(request)
        snapshot = self.app.jobs.get(job_id)
        if snapshot is None or snapshot["owner"] != principal.user_name:
            raise NotFoundError(
                f"no job {job_id!r}", params={"jobId": job_id}
            )
        return snapshot

    def list_jobs(self, request: Request, params: dict[str, str]) -> Response:
        principal = self.token_principal(request)
        # retention caps the store, so listings are small: no cursor
        listing = parse(JOBS, request.body, "jobs listing")
        jobs = self.app.jobs.list(
            owner=principal.user_name, state=listing["state"]
        )[: listing["limit"]]
        return Response(
            200,
            {
                "apiVersion": "v1",
                "count": len(jobs),
                "limit": listing["limit"],
                "jobs": jobs,
            },
        )

    def get_job(self, request: Request, params: dict[str, str]) -> Response:
        return Response(200, _job_body(self._owned(request, params["id"])))

    def cancel_job(self, request: Request, params: dict[str, str]) -> Response:
        self._owned(request, params["id"])  # 404 before any state change
        snapshot = self.app.jobs.cancel(params["id"])
        return Response(200, _job_body(snapshot))


class IngestController(BaseController):
    """Handler behind ``POST /v1/registry/{user}/ingest``."""

    def start(self, request: Request, params: dict[str, str]) -> Response:
        user = self.authenticated_user(request, params)
        spec = parse(INGEST, request.body, "ingest request")
        path, archive = spec["path"], spec["archive"]
        if (path is None) == (archive is None):
            raise ValidationError(
                "exactly one of path or archive is required",
                params={"path": path is not None, "archive": archive is not None},
            )
        # echo only wire-safe request facts (never the archive bytes)
        job_params = {
            "user": user.user_name,
            "source": "archive" if archive is not None else path,
            "batchSize": spec["batch_size"],
        }
        snapshot = self.app.jobs.submit(
            "ingest",
            lambda ctx: run_ingest(self.app, user.user_name, spec, ctx),
            owner=user.user_name,
            params=job_params,
        )
        body = _job_body(snapshot)
        body["jobId"] = snapshot["jobId"]
        return Response(202, body)
