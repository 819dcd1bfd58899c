"""Names: raw measurements in, the metrics of ``BENCHMARK.json`` out.

``BENCHMARK.json`` is the schema (name, unit, direction, bound); this
module only computes values, and :func:`benchmark.check_names` refuses a
run whose names differ from the file's in either direction.
"""

from __future__ import annotations

import statistics

from . import stats
from .corpus import CORE_CLASSES
from .harness import SubprocessRun, job_rate
from .trace import JOB_ROOT, Replay, SpanTable, overall_p50

#: samples a median of a core op class needs (the seeded schedules are
#: sized for it)
MIN_P50_SAMPLES = 150


def _ms(samples: list[float]) -> list[float]:
    return [value * 1000.0 for value in samples]


def end_to_end(run: SubprocessRun) -> dict[str, float]:
    """What ``BENCHMARK.json`` bounds: set-up time, and the count that
    repeats exactly for a fixed schedule.  Every other timing is a
    ``client.*`` number: on this host none holds still to within a bound
    (README, *Noise*)."""
    return {
        "setup_s": statistics.median(run.setup_seconds),
        "io_write_mb": run.io_delta["wchar"] / 1e6,
    }


def client_layer(run: SubprocessRun,
                 enforce_samples: bool = True) -> dict[str, float]:
    """Per-layer metrics taken from the subprocess run: the load
    generator's own view (medians, tails, rates) and the process
    counters.  ``client.ops_failed`` is the caller's: it counts the
    in-process runs' failures too."""
    window = run.window
    lat = {cls: _ms(values) for cls, values in window.latencies.items()}
    write = lat.get("write", [])
    values: dict[str, float] = {}
    for cls in CORE_CLASSES:
        samples = lat.get(cls, [])
        if enforce_samples and len(samples) < MIN_P50_SAMPLES:
            raise RuntimeError(
                f"{len(samples)} {cls} samples: its median needs "
                f"{MIN_P50_SAMPLES}")
        values[f"client.{cls}_p50_ms"] = statistics.median(samples)
    values.update({
        "client.ops_attempted": window.attempted,
        "client.ops_per_s": stats.ops_per_second(
            [done for _, _, done in window.samples], window.started,
            window.finished),
        "client.semantic_p95_ms": stats.tail(lat.get("semantic", []), 95),
        "client.text_p95_ms": stats.tail(lat.get("text", []), 95),
        "client.fetch_p95_ms": stats.tail(lat.get("fetch", []), 95),
        "client.write_p90_ms": stats.tail(write, 90),
        "client.write_mean_ms": statistics.fmean(write) if write else 0.0,
        "client.write_max_ms": max(write, default=0.0),
        "client.hybrid_p50_ms": stats.median_or_zero(lat.get("hybrid", [])),
        "client.code_p50_ms": stats.median_or_zero(lat.get("code", [])),
        "client.bulk_p50_ms": stats.median_or_zero(lat.get("bulk", [])),
        # the seeding ingest, except where an ingest is what is measured
        "client.ingest_records_per_s": (
            statistics.median(run.seed_rates) if run.ingest_job is None
            else job_rate(run.ingest_job)),
        "client.ingest_share_at_window_end": run.ingest_share_at_window_end,
        "client.restart_s": statistics.median(run.restart_seconds),
        "client.server_rss_mb": run.rss_mb,
        "client.calib_ms": run.calib_ms,
        "server.http.rtt_floor_ms": run.rtt_floor_ms,
        "registry.dao.io_read_mb": run.io_delta["rchar"] / 1e6,
        "registry.dao.db_mb": run.db_mb,
        "jobs.manager.queue_wait_ms": (
            run.seed_queue_wait_ms if run.ingest_job is None else
            (run.ingest_job["startedAt"] - run.ingest_job["createdAt"]) * 1e3),
    })
    return values


def traced_layers(table: SpanTable, traced: Replay, untraced: Replay,
                  fetch_p50_ms: float) -> dict[str, float]:
    """Per-layer metrics of the in-process traced run."""
    values = {
        f"server.app.dispatch.{cls}_ms": table.dispatch_p50_ms(cls)
        for cls in CORE_CLASSES
    }
    values["server.http.overhead_ms"] = (
        fetch_p50_ms - values["server.app.dispatch.fetch_ms"])
    for metric, span in (
        ("server.api.resolve_us", "server.api.resolve"),
        ("server.schema.parse_us", "server.schema.parse"),
        ("server.schema.render_us", "server.schema.render"),
        ("server.v1.execute_search.self_us", "server.v1.execute_search"),
        ("server.v1_write.execute_write.self_us",
         "server.v1_write.execute_write"),
        ("server.v1_write.build_record.self_us",
         "server.v1_write.build_record"),
        ("search.serving.submit.self_us", "search.serving.submit"),
        ("ml.embedding.embed.self_us", "ml.embedding.embed"),
        ("ml.summarize.self_us", "ml.summarize"),
        ("search.index.rank.self_us", "search.index.rank"),
        ("search.index.mutate.self_us", "search.index.mutate"),
        ("search.fusion.rrf_fuse.self_us", "search.fusion.rrf_fuse"),
        ("registry.service.owned_ids.self_us", "registry.service.owned_ids"),
        ("registry.service.resolve.self_us", "registry.service.resolve"),
        ("registry.service.register.self_us", "registry.service.register"),
        ("registry.dao.get.self_us", "registry.dao.get"),
        ("registry.dao.text_topk.self_us", "registry.dao.text_topk"),
        ("registry.dao.ids_owned.self_us", "registry.dao.ids_owned"),
        ("registry.dao.insert.self_us", "registry.dao.insert"),
        ("registry.dao.journal.self_us", "registry.dao.journal"),
    ):
        values[metric] = table.self_us(span)
    requests = traced.batcher.get("requests", 0)
    values["search.serving.coalesced_share"] = (
        traced.batcher.get("batchedRequests", 0) / requests if requests else 0.0)
    values["search.serving.fallbacks"] = traced.batcher.get("fallbacks", 0)
    values["ml.embedding.calls_per_search"] = table.calls_per_search(
        "ml.embedding.embed")
    values["search.index.scan_kb_per_query"] = traced.scan_kb_per_query
    values["registry.service.compactions"] = traced.compactions
    values["registry.service.attach_index_ms"] = max(
        table.durations_ms("registry.service.attach_index", "reattach"),
        default=0.0)
    values["registry.service.persist_shards_ms"] = max(
        table.durations_ms("registry.service.persist_shards"), default=0.0)

    job = table.longest_job()
    if job is None:
        raise RuntimeError(f"the traced run recorded no {JOB_ROOT} span")
    files, walking = table.job_busy_seconds(job, "ingest.walker")
    _, chunking = table.job_busy_seconds(job, "ingest.chunker")
    values["ingest.walker.files_per_s"] = files / walking
    values["ingest.chunker.chunks_per_s"] = traced.ingest_records / chunking
    values["ingest.pipeline.run_ingest.self_share"] = (
        table.self_seconds[job.span_id] / job.seconds)

    values["trace.overhead_ratio"] = overall_p50(traced) / overall_p50(untraced)
    values["trace.unattributed_share"] = table.unattributed_share()
    return values
