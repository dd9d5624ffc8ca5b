#include "obs/json.h"

#include <algorithm>
#include <cassert>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace vcl::obs {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  // %.12g keeps sim-time microsecond resolution while dropping float noise.
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

void JsonWriter::comma() {
  if (key_pending_) return;  // key() already placed the separator
  if (!wrote_element_.empty()) {
    if (wrote_element_.back()) os_ << ',';
    wrote_element_.back() = true;
  }
}

JsonWriter& JsonWriter::begin_object() {
  comma();
  key_pending_ = false;
  os_ << '{';
  wrote_element_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  assert(!wrote_element_.empty());
  wrote_element_.pop_back();
  os_ << '}';
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  comma();
  key_pending_ = false;
  os_ << '[';
  wrote_element_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  assert(!wrote_element_.empty());
  wrote_element_.pop_back();
  os_ << ']';
  return *this;
}

JsonWriter& JsonWriter::key(const std::string& k) {
  assert(!wrote_element_.empty());
  if (wrote_element_.back()) os_ << ',';
  wrote_element_.back() = true;
  os_ << '"' << json_escape(k) << "\":";
  key_pending_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(const std::string& v) {
  comma();
  key_pending_ = false;
  os_ << '"' << json_escape(v) << '"';
  return *this;
}

JsonWriter& JsonWriter::value(const char* v) { return value(std::string(v)); }

JsonWriter& JsonWriter::value(double v) {
  comma();
  key_pending_ = false;
  os_ << json_number(v);
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  comma();
  key_pending_ = false;
  os_ << v;
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  comma();
  key_pending_ = false;
  os_ << (v ? "true" : "false");
  return *this;
}

JsonWriter& JsonWriter::null() {
  comma();
  key_pending_ = false;
  os_ << "null";
  return *this;
}

JsonWriter& JsonWriter::value_auto(const std::string& cell) {
  if (!cell.empty()) {
    char* end = nullptr;
    const double num = std::strtod(cell.c_str(), &end);
    if (end == cell.c_str() + cell.size() && std::isfinite(num)) {
      return value(num);
    }
  }
  return value(cell);
}

JsonWriter& JsonWriter::value_raw(const std::string& token) {
  comma();
  key_pending_ = false;
  os_ << token;
  return *this;
}

// ---- flat JSONL records ----------------------------------------------------

bool FlatRecord::scan(const std::string& line, std::string* error) {
  members_.clear();
  error_.clear();
  const auto fail_scan = [error](const char* what) {
    if (error != nullptr) *error = what;
    return false;
  };
  std::size_t pos = 0;
  const auto skip_ws = [&] {
    while (pos < line.size() &&
           std::isspace(static_cast<unsigned char>(line[pos]))) {
      ++pos;
    }
  };
  const auto eat = [&](char c) {
    skip_ws();
    if (pos < line.size() && line[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  };
  // Decodes the escapes JsonWriter emits; \uXXXX beyond ASCII becomes '?'
  // (recorder names and keys are ASCII literals).
  const auto read_string = [&](std::string& out) {
    if (!eat('"')) return false;
    out.clear();
    while (pos < line.size()) {
      const char c = line[pos++];
      if (c == '"') return true;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos == line.size()) return false;
      const char esc = line[pos++];
      switch (esc) {
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'u': {
          if (pos + 4 > line.size()) return false;
          const unsigned long code =
              std::strtoul(line.substr(pos, 4).c_str(), nullptr, 16);
          out += code < 0x80 ? static_cast<char>(code) : '?';
          pos += 4;
          break;
        }
        default: out += esc; break;  // \" \\ \/
      }
    }
    return false;
  };
  if (!eat('{')) return fail_scan("line does not start with '{'");
  bool first = true;
  while (true) {
    if (eat('}')) break;
    if (!first && !eat(',')) return fail_scan("expected ',' between members");
    first = false;
    std::string key;
    if (!read_string(key) || !eat(':')) return fail_scan("malformed key");
    skip_ws();
    FlatValue value;
    if (pos < line.size() && line[pos] == '"') {
      value.is_string = true;
      if (!read_string(value.text)) {
        return fail_scan("unterminated string value");
      }
    } else {
      const std::size_t start = pos;
      while (pos < line.size() && line[pos] != ',' && line[pos] != '}' &&
             !std::isspace(static_cast<unsigned char>(line[pos]))) {
        ++pos;
      }
      if (pos == start) return fail_scan("malformed value");
      value.text = line.substr(start, pos - start);
    }
    members_.emplace_back(std::move(key), std::move(value));
  }
  skip_ws();
  if (pos != line.size()) return fail_scan("trailing characters after '}'");
  return true;
}

const FlatValue* FlatRecord::find(std::string_view key) const {
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

void FlatRecord::fail(const char* key, const char* what) {
  if (error_.empty()) error_ = std::string("key '") + key + "' " + what;
}

const FlatValue* FlatRecord::need(const char* key) {
  const FlatValue* v = find(key);
  if (v == nullptr) fail(key, "is missing");
  return v;
}

bool FlatRecord::parse_number(const std::string& token, double& out) {
  if (token.empty()) return false;
  char* end = nullptr;
  out = std::strtod(token.c_str(), &end);
  return end == token.c_str() + token.size();
}

std::string FlatRecord::str(const char* key) {
  const FlatValue* v = need(key);
  if (v != nullptr && !v->is_string) fail(key, "is not a string");
  return v != nullptr && v->is_string ? v->text : std::string();
}

double FlatRecord::num(const char* key) {
  return need(key) != nullptr ? num_or(key, 0.0) : 0.0;
}

std::uint64_t FlatRecord::u64(const char* key) {
  return need(key) != nullptr ? u64_or(key, 0) : 0;
}

bool FlatRecord::flag(const char* key) {
  const std::uint64_t v = u64(key);
  if (v > 1) fail(key, "is not a 0/1 flag");
  return v == 1;
}

double FlatRecord::num_or(const char* key, double fallback) {
  const FlatValue* v = find(key);
  if (v == nullptr) return fallback;
  double out = 0.0;
  if (v->is_string || !parse_number(v->text, out)) {
    fail(key, "is not a number");
    return 0.0;
  }
  return out;
}

std::uint64_t FlatRecord::u64_or(const char* key, std::uint64_t fallback) {
  const FlatValue* v = find(key);
  if (v == nullptr) return fallback;
  const std::string& t = v->text;
  const auto digit = [](char c) {
    return std::isdigit(static_cast<unsigned char>(c)) != 0;
  };
  std::uint64_t out = 0;
  bool ok =
      !v->is_string && !t.empty() && std::all_of(t.begin(), t.end(), digit);
  if (ok) {
    errno = 0;
    out = std::strtoull(t.c_str(), nullptr, 10);
    ok = errno == 0;  // out of range
  }
  if (!ok) fail(key, "is not an unsigned integer");
  return ok ? out : 0;
}

}  // namespace vcl::obs
