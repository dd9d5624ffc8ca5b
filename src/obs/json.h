// Minimal streaming JSON writer shared by the telemetry exporters, and the
// one reader for the flat JSONL records they write.
//
// Emits syntactically valid JSON with no external dependency: the trace
// recorder (JSONL + Chrome trace_event), the metrics sampler and the bench
// `--json` reporter all format through this one class so their output stays
// mutually consistent (escaping, number formatting, nesting).
//
// The repo's JSONL formats (trace, incident bundle, fault plan) are one flat
// object per line with string or scalar values and no nesting; FlatRecord
// scans such a line and gives strict, typed access to its members.
#pragma once

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace vcl::obs {

// Escapes a string for embedding inside JSON double quotes.
std::string json_escape(const std::string& s);

// Formats a double the way JSON expects: integral values print without a
// trailing ".0" garbage tail, non-finite values degrade to null.
std::string json_number(double v);

// Stack-based writer: begin/end calls must pair; commas and key/value
// ordering are handled internally. Misuse (value with no pending key inside
// an object) is a programming error and asserts in debug builds.
class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& os) : os_(os) {}

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  // Keys apply to the next value/container inside an object.
  JsonWriter& key(const std::string& k);

  JsonWriter& value(const std::string& v);
  JsonWriter& value(const char* v);
  JsonWriter& value(double v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(bool v);
  JsonWriter& null();

  // Emits the cell as a number when it parses fully as one, else a string —
  // the bridge from Table's all-string rows to typed JSON.
  JsonWriter& value_auto(const std::string& cell);

  // Emits a preformatted token verbatim (no quoting, no reformatting).
  // For callers whose numbers must round-trip bit-exactly — json_number's
  // %.12g is lossy by design; fault-plan repro files format with %.17g.
  JsonWriter& value_raw(const std::string& token);

 private:
  void comma();

  std::ostream& os_;
  // One frame per open container: whether any element was emitted yet.
  std::vector<bool> wrote_element_;
  bool key_pending_ = false;
};

// One member value of a flat record: a decoded string, or the raw scalar
// token (kept unparsed so integer ids re-parse exactly, without a double
// round-trip).
struct FlatValue {
  bool is_string = false;
  std::string text;
};

class FlatRecord {
 public:
  // Scans one line; false (with `error` set) on malformed syntax.
  bool scan(const std::string& line, std::string* error);

  [[nodiscard]] const std::vector<std::pair<std::string, FlatValue>>&
  members() const {
    return members_;
  }
  [[nodiscard]] const FlatValue* find(std::string_view key) const;

  // Required members: a missing key or a value of the wrong type records
  // the first problem in error() and yields a zero value, so a parser reads
  // every key it needs and checks error() once.
  std::string str(const char* key);
  double num(const char* key);
  std::uint64_t u64(const char* key);  // unsigned decimal integer
  bool flag(const char* key);          // 0 or 1
  // Optional members: absent yields `fallback`; a wrong type is an error.
  double num_or(const char* key, double fallback);
  std::uint64_t u64_or(const char* key, std::uint64_t fallback);

  // Empty while every access succeeded.
  [[nodiscard]] const std::string& error() const { return error_; }

  // Whole-token number conversion (no trailing garbage).
  static bool parse_number(const std::string& token, double& out);

 private:
  const FlatValue* need(const char* key);
  void fail(const char* key, const char* what);

  std::vector<std::pair<std::string, FlatValue>> members_;
  std::string error_;
};

}  // namespace vcl::obs
