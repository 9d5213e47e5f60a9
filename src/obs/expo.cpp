#include "obs/expo.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <set>

#include "obs/sampler.hpp"  // quantile_from_bucket_delta
#include "util/error.hpp"

namespace ph::obs {

namespace {

void append_value(std::string& out, double value) {
  char buf[32];
  if (!std::isfinite(value)) {
    std::snprintf(buf, sizeof(buf), "%s", value > 0 ? "+Inf" : "-Inf");
  } else if (value == std::floor(value) && std::fabs(value) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", value);
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", value);
  }
  out += buf;
}

void append_sample(std::string& out, const std::string& name, double value) {
  out += name;
  out += ' ';
  append_value(out, value);
  out += '\n';
}

void append_histogram(std::string& out, const std::string& name,
                      std::uint64_t count, double sum, double p50, double p95,
                      double p99, const std::vector<double>& bounds,
                      const std::vector<std::uint64_t>& buckets) {
  append_sample(out, name + ".count", static_cast<double>(count));
  append_sample(out, name + ".sum", sum);
  append_sample(out, name + ".p50", p50);
  append_sample(out, name + ".p95", p95);
  append_sample(out, name + ".p99", p99);
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    out += name;
    out += ".bucket{le=\"";
    if (i < bounds.size()) {
      append_value(out, bounds[i]);
    } else {
      out += "+Inf";
    }
    out += "\"} ";
    append_value(out, static_cast<double>(buckets[i]));
    out += '\n';
  }
}

Error parse_fail(std::size_t line_no, const std::string& what) {
  return Error{Errc::protocol_error,
               "exposition line " + std::to_string(line_no) + ": " + what};
}

bool parse_number(const std::string& text, double& out) {
  if (text == "+Inf") {
    out = std::numeric_limits<double>::infinity();
    return true;
  }
  if (text == "-Inf") {
    out = -std::numeric_limits<double>::infinity();
    return true;
  }
  char* end = nullptr;
  out = std::strtod(text.c_str(), &end);
  return end != nullptr && *end == '\0' && !text.empty();
}

}  // namespace

bool valid_metric_name(const std::string& name) {
  if (name.empty()) return false;
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '.' || c == '_';
    if (!ok) return false;
  }
  return true;
}

std::string to_exposition(const Registry& registry) {
  std::string out;
  out.reserve(4096);
  for (const auto& [name, counter] : registry.counters()) {
    out += "# TYPE " + name + " counter\n";
    append_sample(out, name, static_cast<double>(counter->value()));
  }
  for (const auto& [name, gauge] : registry.gauges()) {
    out += "# TYPE " + name + " gauge\n";
    append_sample(out, name, gauge->value());
  }
  for (const auto& [name, hist] : registry.histograms()) {
    out += "# TYPE " + name + " histogram\n";
    append_histogram(out, name, hist->count(), hist->sum(), hist->p50(),
                     hist->p95(), hist->p99(), hist->bounds(),
                     hist->bucket_counts());
  }
  return out;
}

Result<ExpoDoc> parse_exposition(const std::string& text) {
  ExpoDoc doc;
  // TYPE declarations seen so far: name -> "counter"|"gauge"|"histogram".
  std::map<std::string, std::string> types;
  // Scalar readouts (.count, .sum, ...) sampled so far, per histogram.
  std::map<std::string, std::set<std::string>> readouts;
  std::size_t pos = 0;
  std::size_t line_no = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    ++line_no;
    if (line.empty()) continue;
    if (line[0] == '#') {
      // Only "# TYPE <name> <kind>" comments are meaningful.
      static const std::string kType = "# TYPE ";
      if (line.compare(0, kType.size(), kType) != 0) continue;
      const std::size_t space = line.find(' ', kType.size());
      if (space == std::string::npos) {
        return parse_fail(line_no, "malformed TYPE comment");
      }
      const std::string name = line.substr(kType.size(), space - kType.size());
      const std::string kind = line.substr(space + 1);
      if (!valid_metric_name(name)) {
        return parse_fail(line_no, "illegal metric name '" + name + "'");
      }
      if (kind != "counter" && kind != "gauge" && kind != "histogram") {
        return parse_fail(line_no, "unknown TYPE kind '" + kind + "'");
      }
      if (!types.emplace(name, kind).second) {
        return parse_fail(line_no, "duplicate TYPE for '" + name + "'");
      }
      if (kind == "histogram") doc.histograms[name];  // declare
      continue;
    }
    const std::size_t space = line.rfind(' ');
    if (space == std::string::npos || space + 1 >= line.size()) {
      return parse_fail(line_no, "sample line without a value");
    }
    std::string name = line.substr(0, space);
    double value = 0.0;
    if (!parse_number(line.substr(space + 1), value)) {
      return parse_fail(line_no, "unparseable value");
    }
    // Histogram bucket sample: <base>.bucket{le="<bound>"} <count>
    const std::size_t brace = name.find(".bucket{le=\"");
    if (brace != std::string::npos) {
      if (name.size() < 2 || name.compare(name.size() - 2, 2, "\"}") != 0) {
        return parse_fail(line_no, "malformed bucket label");
      }
      const std::string base = name.substr(0, brace);
      const std::string bound_text =
          name.substr(brace + 12, name.size() - brace - 12 - 2);
      auto it = doc.histograms.find(base);
      if (it == doc.histograms.end()) {
        return parse_fail(line_no, "bucket for undeclared histogram '" + base +
                                       "'");
      }
      ExpoDoc::Hist& hist = it->second;
      double bound = 0.0;
      if (!parse_number(bound_text, bound)) {
        return parse_fail(line_no, "unparseable bucket bound");
      }
      const bool overflow = bound == std::numeric_limits<double>::infinity();
      if (!overflow && !std::isfinite(bound)) {
        return parse_fail(line_no, "bucket bound is neither finite nor +Inf");
      }
      // The +Inf overflow bucket closes the stanza: a second one, or a
      // finite bucket after it, would leave more buckets than bounds + 1.
      if (hist.bucket_counts.size() > hist.bounds.size()) {
        return parse_fail(line_no,
                          "bucket after the +Inf bucket of '" + base + "'");
      }
      if (!overflow) hist.bounds.push_back(bound);
      hist.bucket_counts.push_back(
          static_cast<std::uint64_t>(value < 0 ? 0 : value));
      continue;
    }
    // Histogram scalar readouts: <base>.count/.sum/.p50/.p95/.p99.
    const std::size_t dot = name.rfind('.');
    if (dot != std::string::npos) {
      const std::string base = name.substr(0, dot);
      const std::string field = name.substr(dot + 1);
      auto it = doc.histograms.find(base);
      if (it != doc.histograms.end()) {
        ExpoDoc::Hist& hist = it->second;
        if (field == "count") {
          hist.count = static_cast<std::uint64_t>(value < 0 ? 0 : value);
        } else if (field == "sum") {
          hist.sum = value;
        } else if (field == "p50") {
          hist.p50 = value;
        } else if (field == "p95") {
          hist.p95 = value;
        } else if (field == "p99") {
          hist.p99 = value;
        } else {
          return parse_fail(line_no, "unknown histogram field '" + field + "'");
        }
        readouts[base].insert(field);
        continue;
      }
    }
    if (!valid_metric_name(name)) {
      return parse_fail(line_no, "illegal metric name '" + name + "'");
    }
    auto type = types.find(name);
    if (type == types.end()) {
      return parse_fail(line_no, "sample for undeclared metric '" + name + "'");
    }
    if (type->second == "counter") {
      doc.counters[name] = static_cast<std::uint64_t>(value < 0 ? 0 : value);
    } else if (type->second == "gauge") {
      doc.gauges[name] = value;
    } else {
      return parse_fail(line_no, "bare sample for histogram '" + name + "'");
    }
  }
  for (const auto& [name, hist] : doc.histograms) {
    for (const char* field : {"count", "sum", "p50", "p95", "p99"}) {
      if (readouts[name].count(field) == 0) {
        return Error{Errc::protocol_error,
                     "histogram '" + name + "' has no ." + field + " sample"};
      }
    }
    if (hist.bucket_counts.size() != hist.bounds.size() + 1) {
      return Error{Errc::protocol_error,
                   "histogram '" + name + "' has no +Inf bucket"};
    }
  }
  return doc;
}

Result<void> merge_expositions(ExpoDoc& into, const ExpoDoc& from) {
  for (const auto& [name, value] : from.counters) {
    into.counters[name] += value;
  }
  for (const auto& [name, value] : from.gauges) {
    into.gauges[name] += value;
  }
  for (const auto& [name, hist] : from.histograms) {
    auto it = into.histograms.find(name);
    if (it == into.histograms.end()) {
      into.histograms.emplace(name, hist);
      continue;
    }
    ExpoDoc::Hist& dst = it->second;
    if (dst.bounds != hist.bounds ||
        dst.bucket_counts.size() != hist.bucket_counts.size()) {
      return Error{Errc::protocol_error,
                   "histogram '" + name + "' has mismatched buckets"};
    }
    dst.count += hist.count;
    dst.sum += hist.sum;
    for (std::size_t i = 0; i < dst.bucket_counts.size(); ++i) {
      dst.bucket_counts[i] += hist.bucket_counts[i];
    }
  }
  return ok();
}

std::string render_exposition(const ExpoDoc& doc) {
  std::string out;
  out.reserve(4096);
  for (const auto& [name, value] : doc.counters) {
    out += "# TYPE " + name + " counter\n";
    append_sample(out, name, static_cast<double>(value));
  }
  for (const auto& [name, value] : doc.gauges) {
    out += "# TYPE " + name + " gauge\n";
    append_sample(out, name, value);
  }
  for (const auto& [name, hist] : doc.histograms) {
    out += "# TYPE " + name + " histogram\n";
    // Quantiles from the merged buckets: the whole-population distribution,
    // not an average of the inputs' readouts.
    const double p50 = quantile_from_bucket_delta(hist.bounds,
                                                  hist.bucket_counts,
                                                  hist.count, 0.50);
    const double p95 = quantile_from_bucket_delta(hist.bounds,
                                                  hist.bucket_counts,
                                                  hist.count, 0.95);
    const double p99 = quantile_from_bucket_delta(hist.bounds,
                                                  hist.bucket_counts,
                                                  hist.count, 0.99);
    append_histogram(out, name, hist.count, hist.sum, p50, p95, p99,
                     hist.bounds, hist.bucket_counts);
  }
  return out;
}

}  // namespace ph::obs
