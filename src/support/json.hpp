#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace adsd::json {

/// Minimal read-only JSON document model: just enough to load and validate
/// the observability artifacts this repo emits (Chrome trace_event files,
/// run reports, metrics snapshots) without an external dependency. Parsing
/// is strict RFC-8259 except that it accepts (and ignores) a UTF-8 BOM and
/// bounds nesting at 512 levels; on malformed or deeper input parse()
/// throws std::runtime_error with a byte offset.
class Value {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Value() = default;

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  /// Typed accessors; throw std::runtime_error on kind mismatch.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const std::vector<Value>& as_array() const;
  const std::map<std::string, Value>& as_object() const;

  /// Object member lookup; throws if not an object or the key is absent.
  const Value& at(std::string_view key) const;

  /// Object member lookup returning nullptr when absent (or not an object).
  const Value* find(std::string_view key) const;

  bool contains(std::string_view key) const { return find(key) != nullptr; }

  static Value make_null() { return Value(); }
  static Value make_bool(bool b);
  static Value make_number(double n);
  static Value make_string(std::string s);
  static Value make_array(std::vector<Value> items);
  static Value make_object(std::map<std::string, Value> members);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Value> array_;
  std::map<std::string, Value> object_;
};

/// Parses one complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected). Throws std::runtime_error on malformed input and on
/// arrays or objects nested more than 512 deep.
Value parse(std::string_view text);

/// Writes `s` as a quoted JSON string: `"` and `\` escaped, \n \r \t by
/// name, every other byte below 0x20 as \u00XX, all else verbatim. The one
/// escaper behind every JSON writer in the repo (the document writer below,
/// the trace exports and the log line serializer).
void write_json_string(std::ostream& out, std::string_view s);

/// write_json_string() appending to a string.
void append_json_string(std::string& out, std::string_view s);

/// Serializes a Value as RFC 8259 JSON. Object keys come out sorted (the
/// document model is a std::map), so output is stable across runs — the
/// property the committed bench/QoR baselines rely on for reviewable diffs.
/// Numbers that hold an exact integer below 2^53 print without a decimal
/// point; everything else uses round-trippable %.17g. Non-finite numbers
/// serialize as null (RFC 8259 has no representation for them).
/// `indent` is the starting indentation depth (one space per level, matching
/// the hand-written artifact writers elsewhere in the repo).
void write(std::ostream& out, const Value& value, int indent = 0);

/// write() into a string.
std::string dump(const Value& value);

}  // namespace adsd::json
