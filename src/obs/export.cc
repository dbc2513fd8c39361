#include "obs/export.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <ostream>

#include "redundancy/strategy.h"

namespace smartred::obs {
namespace {

/// Writes a JSON string literal with the minimal escaping our labels can
/// need (quotes, backslashes, control characters).
void write_string(std::ostream& out, const std::string& text) {
  out << '"';
  for (const char c : text) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(c));
          out << buffer;
        } else {
          out << c;
        }
    }
  }
  out << '"';
}

/// The kind-specific meaning of TraceEvent::arg, used as its JSON key.
const char* arg_name(EventKind kind) {
  switch (kind) {
    case EventKind::kWaveDispatched: return "jobs";
    case EventKind::kVoteRecorded: return "value";
    case EventKind::kDecision: return "value";
    case EventKind::kDeadlineFired: return "job";
    case EventKind::kSpeculationLaunched: return "job";
    case EventKind::kNodeQuarantined: return "round";
    case EventKind::kNodeReadmitted: return "round";
    case EventKind::kTaskAborted: return "jobs";
    case EventKind::kDecodeRejected: return "rejects";
    case EventKind::kNodeAssigned: return "job";
    case EventKind::kPolicyChosen: return "policy";
  }
  return "arg";
}

/// Shared body of both formats' per-event payload: the fields after the
/// envelope (task/wave/node plus the kind-specific arg and reason).
void write_event_fields(std::ostream& out, const TraceEvent& event) {
  out << "\"task\":" << event.task << ",\"wave\":" << event.wave
      << ",\"node\":" << event.node << ",\"" << arg_name(event.kind)
      << "\":" << event.arg;
  if (event.reason != 0) {
    out << ",\"reason\":\"" << reason_name(event.reason) << '"';
  }
}

}  // namespace

const char* kind_name(EventKind kind) {
  switch (kind) {
    case EventKind::kWaveDispatched: return "wave_dispatched";
    case EventKind::kVoteRecorded: return "vote_recorded";
    case EventKind::kDecision: return "decision";
    case EventKind::kDeadlineFired: return "deadline_fired";
    case EventKind::kSpeculationLaunched: return "speculation_launched";
    case EventKind::kNodeQuarantined: return "node_quarantined";
    case EventKind::kNodeReadmitted: return "node_readmitted";
    case EventKind::kTaskAborted: return "task_aborted";
    case EventKind::kDecodeRejected: return "decode_rejected";
    case EventKind::kNodeAssigned: return "node_assigned";
    case EventKind::kPolicyChosen: return "policy_chosen";
  }
  return "unknown";
}

const char* reason_name(std::uint8_t reason) {
  return redundancy::to_string(
      static_cast<redundancy::Decision::Reason>(reason));
}

void write_jsonl(std::ostream& out, std::span<const PointTrace> points) {
  const auto previous =
      out.precision(std::numeric_limits<double>::max_digits10);
  for (const PointTrace& point : points) {
    for (const TraceEvent& event : point.events) {
      out << "{\"type\":\"event\",\"point\":";
      write_string(out, point.label);
      out << ",\"rep\":" << event.rep << ",\"time\":" << event.time
          << ",\"kind\":\"" << kind_name(event.kind) << "\",";
      write_event_fields(out, event);
      out << "}\n";
    }
    out << "{\"type\":\"metrics\",\"point\":";
    write_string(out, point.label);
    out << ",\"dropped\":" << point.dropped << ",\"values\":";
    point.metrics.write_json(out);
    out << "}\n";
  }
  out.precision(previous);
}

void write_chrome_trace(std::ostream& out,
                        std::span<const PointTrace> points) {
  const auto previous =
      out.precision(std::numeric_limits<double>::max_digits10);
  out << "{\"traceEvents\":[";
  bool first = true;
  const auto separate = [&] {
    if (!first) out << ',';
    first = false;
    out << '\n';
  };
  for (std::size_t pid = 0; pid < points.size(); ++pid) {
    const PointTrace& point = points[pid];
    separate();
    out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
        << ",\"args\":{\"name\":";
    write_string(out, point.label);
    out << "}}";
    for (const TraceEvent& event : point.events) {
      separate();
      // Simulated seconds map to trace microseconds so about:tracing's
      // time axis reads directly in simulated microseconds.
      out << "{\"name\":\"" << kind_name(event.kind)
          << "\",\"ph\":\"i\",\"s\":\"t\",\"pid\":" << pid
          << ",\"tid\":" << event.rep << ",\"ts\":" << event.time * 1e6
          << ",\"args\":{";
      write_event_fields(out, event);
      out << "}}";
    }
    if (!point.metrics.empty()) {
      separate();
      double last_time = 0.0;
      for (const TraceEvent& event : point.events) {
        if (event.time > last_time) last_time = event.time;
      }
      out << "{\"name\":\"metrics\",\"ph\":\"i\",\"s\":\"p\",\"pid\":" << pid
          << ",\"tid\":0,\"ts\":" << last_time * 1e6 << ",\"args\":";
      point.metrics.write_json(out);
      out << "}";
    }
  }
  out << "\n]}\n";
  out.precision(previous);
}

namespace {

/// Escapes a Prometheus label value (backslash, quote, newline).
void write_label_value(std::ostream& out, const std::string& text) {
  for (const char c : text) {
    switch (c) {
      case '\\': out << "\\\\"; break;
      case '"': out << "\\\""; break;
      case '\n': out << "\\n"; break;
      default: out << c;
    }
  }
}

/// One scalar sample line: `name{point="label"} value`.
void write_sample(std::ostream& out, const std::string& family,
                  const std::string& label, const Metric& metric) {
  out << family << "{point=\"";
  write_label_value(out, label);
  out << "\"} ";
  if (metric.integral) {
    out << static_cast<std::uint64_t>(metric.value);
  } else {
    out << metric.value;
  }
  out << '\n';
}

/// One RFC 4180 CSV field: quoted only when the text needs it.
void write_csv_field(std::ostream& out, const std::string& text) {
  if (text.find_first_of(",\"\n\r") == std::string::npos) {
    out << text;
    return;
  }
  out << '"';
  for (const char c : text) {
    if (c == '"') out << '"';
    out << c;
  }
  out << '"';
}

/// The Prometheus metric name a registry entry maps to: `smartred_` prefix
/// and every charset-violating character (the registry's `.` separators)
/// replaced with `_`.
std::string prometheus_name(const std::string& name) {
  std::string result = "smartred_";
  result.reserve(result.size() + name.size());
  for (const char c : name) {
    const bool valid = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                       (c >= '0' && c <= '9') || c == '_' || c == ':';
    result.push_back(valid ? c : '_');
  }
  return result;
}

}  // namespace

void write_prometheus(std::ostream& out,
                      std::span<const MetricsPoint> points) {
  const auto previous =
      out.precision(std::numeric_limits<double>::max_digits10);

  // Histogram families first (their first-seen order across points), so
  // their implicit `_bucket`/`_sum`/`_count` children can shadow any
  // scalar entry that would collide with them.
  std::vector<std::string> hist_families;
  for (const MetricsPoint& point : points) {
    for (const HistogramMetric& hist : point.metrics.histograms()) {
      const std::string family = prometheus_name(hist.name);
      if (std::find(hist_families.begin(), hist_families.end(), family) ==
          hist_families.end()) {
        hist_families.push_back(family);
      }
    }
  }
  std::vector<std::string> reserved;
  for (const std::string& family : hist_families) {
    reserved.push_back(family + "_bucket");
    reserved.push_back(family + "_sum");
    reserved.push_back(family + "_count");
    reserved.push_back(family);
  }

  // Scalar families in first-seen registry order. The type is taken from
  // the first occurrence (registries are snapshots of one schema, so
  // occurrences agree).
  struct ScalarFamily {
    std::string family;
    std::string source;  ///< the registry name that maps to it
    bool integral;
  };
  std::vector<ScalarFamily> scalars;
  for (const MetricsPoint& point : points) {
    for (const Metric& metric : point.metrics.entries()) {
      const std::string family = prometheus_name(metric.name);
      if (std::find(reserved.begin(), reserved.end(), family) !=
          reserved.end()) {
        continue;
      }
      const bool seen =
          std::any_of(scalars.begin(), scalars.end(),
                      [&](const ScalarFamily& s) { return s.family == family; });
      if (!seen) scalars.push_back({family, metric.name, metric.integral});
    }
  }

  for (const ScalarFamily& scalar : scalars) {
    out << "# TYPE " << scalar.family
        << (scalar.integral ? " counter\n" : " gauge\n");
    for (const MetricsPoint& point : points) {
      for (const Metric& metric : point.metrics.entries()) {
        if (metric.name != scalar.source) continue;
        write_sample(out, scalar.family, point.label, metric);
        break;
      }
    }
  }

  for (const std::string& family : hist_families) {
    out << "# TYPE " << family << " histogram\n";
    for (const MetricsPoint& point : points) {
      for (const HistogramMetric& hist : point.metrics.histograms()) {
        if (prometheus_name(hist.name) != family) continue;
        hist.histogram.for_each_bucket([&](double upper, std::uint64_t count,
                                           std::uint64_t cumulative) {
          static_cast<void>(count);
          out << family << "_bucket{point=\"";
          write_label_value(out, point.label);
          out << "\",le=\"" << upper << "\"} " << cumulative << '\n';
        });
        out << family << "_bucket{point=\"";
        write_label_value(out, point.label);
        out << "\",le=\"+Inf\"} " << hist.histogram.count() << '\n';
        out << family << "_sum{point=\"";
        write_label_value(out, point.label);
        out << "\"} " << hist.sum << '\n';
        out << family << "_count{point=\"";
        write_label_value(out, point.label);
        out << "\"} " << hist.histogram.count() << '\n';
        break;
      }
    }
  }
  out.precision(previous);
}

void write_timeseries_csv(std::ostream& out,
                          std::span<const PointSeries> points) {
  const auto previous =
      out.precision(std::numeric_limits<double>::max_digits10);
  out << "point,rep,series,time,value\n";
  for (const PointSeries& point : points) {
    for (const MergedSeries& series : point.series) {
      for (const TimePoint& sample : series.samples) {
        write_csv_field(out, point.label);
        out << ',' << series.rep << ',';
        write_csv_field(out, series.name);
        out << ',' << sample.time << ',' << sample.value << '\n';
      }
    }
  }
  out.precision(previous);
}

}  // namespace smartred::obs
