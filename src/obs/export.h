// Trace exporters: flight-recorder events + metric snapshots to files.
//
// Two formats over the same in-memory record:
//  - JSON lines (`.jsonl`): one self-describing object per line, trivially
//    greppable / loadable from pandas (`pd.read_json(path, lines=True)`).
//  - Chrome trace (anything else): the `about:tracing` / Perfetto JSON
//    array format. Each experiment point becomes a "process" (pid), each
//    replication a "thread" (tid), and every flight-recorder event an
//    instant event at its simulated time (seconds mapped to microseconds).
//
// Exporters run strictly after the simulation — they never touch the hot
// path — and write events in merged (replication-index) order, so the same
// run produces a byte-identical file at any worker count.
#pragma once

#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/trace.h"

namespace smartred::obs {

/// Everything recorded for one experiment point: a label (typically the
/// strategy name plus sweep coordinate), the merged event stream, and the
/// metric snapshot of the merged aggregates.
struct PointTrace {
  std::string label;
  std::vector<TraceEvent> events;
  MetricRegistry metrics;
  /// Events lost to full rings while recording this point. Non-zero means
  /// `events` is the truncated tail, not the full history — exporters
  /// surface it so a truncated trace never silently reads as complete.
  std::uint64_t dropped = 0;
};

/// Stable lowercase name of an event kind ("wave_dispatched", ...).
[[nodiscard]] const char* kind_name(EventKind kind);

/// Stable lowercase name of a decision-reason byte ("none", "majority", ...).
[[nodiscard]] const char* reason_name(std::uint8_t reason);

/// Writes `points` as JSON lines: `{"type":"event",...}` per trace event and
/// one `{"type":"metrics",...}` per point.
void write_jsonl(std::ostream& out, std::span<const PointTrace> points);

/// Writes `points` as a Chrome `about:tracing` JSON document.
void write_chrome_trace(std::ostream& out, std::span<const PointTrace> points);

/// One experiment point's metric snapshot, for the Prometheus exporter.
struct MetricsPoint {
  std::string label;
  MetricRegistry metrics;
};

/// Writes `points` in the Prometheus text exposition format (version
/// 0.0.4): each distinct metric name becomes one family with a `# TYPE`
/// header (counter, gauge, or histogram) and one sample per point, the
/// point's label carried in a `point="..."` label. Histograms render their
/// non-empty log buckets as cumulative `_bucket{le="..."}` samples plus
/// the `+Inf` bucket, `_sum`, and `_count`. Scalar families appear in
/// first-seen registry order, then histogram families; samples follow
/// point order. The file is byte-stable for a given run — and, since the
/// registries are snapshots of merged aggregates, bit-identical at any
/// --threads value. Scalar entries whose mapped name would collide with a
/// histogram family's `_bucket`/`_sum`/`_count` children (e.g. the
/// summary's `response_time.count` next to the `response_time` histogram)
/// are skipped — the histogram children carry the same information.
void write_prometheus(std::ostream& out, std::span<const MetricsPoint> points);

/// One experiment point's merged time-series, for the CSV exporter.
struct PointSeries {
  std::string label;
  std::vector<MergedSeries> series;
};

/// Writes `points` as a flat CSV table `point,rep,series,time,value` —
/// one row per sample, in point order, then replication-major merged order
/// within a point. Labels containing commas/quotes/newlines are quoted per
/// RFC 4180; values keep max_digits10 so the file round-trips exactly.
void write_timeseries_csv(std::ostream& out,
                          std::span<const PointSeries> points);

}  // namespace smartred::obs
