// A minimal JSON reader and writer. The reader is recursive descent, just
// enough to validate and inspect the exporters' own output (tests
// round-trip through it; `ph_obs_json_check` and `ph_bench_compare` read
// untrusted files with it). The writer's `append_string`/`append_number`
// are the one JSON text format every obs exporter emits; they are inline
// so a binary that only writes JSON does not link the parser. Not a
// general-purpose JSON library: numbers are parsed as double and nesting
// stops at kMaxDepth.
#pragma once

#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace ph::obs::json {

class Value;
using Object = std::map<std::string, Value>;
using Array = std::vector<Value>;

class Value {
 public:
  enum class Kind { null, boolean, number, string, array, object };

  Kind kind = Kind::null;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::shared_ptr<Array> array;    // shared_ptr keeps Value copyable+cheap
  std::shared_ptr<Object> object;

  bool is_object() const { return kind == Kind::object; }
  bool is_array() const { return kind == Kind::array; }
  bool is_number() const { return kind == Kind::number; }
  bool is_string() const { return kind == Kind::string; }

  /// Object member lookup; nullptr when absent or not an object.
  const Value* get(const std::string& key) const {
    if (kind != Kind::object) return nullptr;
    auto it = object->find(key);
    return it == object->end() ? nullptr : &it->second;
  }
};

/// Deepest nesting of arrays and objects `parse` accepts. The exporters
/// write about 6 levels; the cap keeps a hostile document from
/// exhausting the stack.
inline constexpr int kMaxDepth = 64;

/// Parses `text` into `out`. On failure returns false and, when `error` is
/// non-null, describes what went wrong (with byte offset). A document
/// nested deeper than kMaxDepth fails with "nesting too deep".
bool parse(std::string_view text, Value& out, std::string* error = nullptr);

/// Appends `s` as a JSON string literal: `"` and `\` escaped, \n \r \t
/// by name, other control bytes as \u00XX, everything else verbatim.
inline void append_string(std::string& out, std::string_view s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

/// Appends `value` as a JSON number: integral values below 1e15 without
/// exponent or fraction, others as %.17g (round-trips a double), and
/// non-finite values as `null` (JSON has no inf/nan).
inline void append_number(std::string& out, double value) {
  if (!std::isfinite(value)) {
    out += "null";
    return;
  }
  char buf[32];
  if (value == std::floor(value) && std::fabs(value) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", value);
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", value);
  }
  out += buf;
}

/// Serializes a Value back to JSON text (keys in map order, strings and
/// numbers as append_string/append_number write them).
/// `ph_bench_compare --perturb` uses this to rewrite a report with one
/// metric nudged.
std::string serialize(const Value& value);

}  // namespace ph::obs::json
