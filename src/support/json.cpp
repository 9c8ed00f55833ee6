#include "support/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace adsd::json {

namespace {

[[noreturn]] void fail(std::size_t pos, const std::string& what) {
  throw std::runtime_error("json: " + what + " at byte " +
                           std::to_string(pos));
}

// parse_value() recurses once per open array or object, so the nesting
// bound is what keeps adversarial input ("[[[[...") off the end of the
// stack. The artifacts this parser reads nest fewer than ten levels.
constexpr std::size_t kMaxDepth = 512;

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {
    // Tolerate a UTF-8 BOM so artifacts round-trip through editors.
    if (text_.substr(0, 3) == "\xef\xbb\xbf") {
      pos_ = 3;
    }
  }

  Value parse_document() {
    Value v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) {
      fail(pos_, "trailing garbage");
    }
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') {
        break;
      }
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) {
      fail(pos_, "unexpected end of input");
    }
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      fail(pos_, std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) == lit) {
      pos_ += lit.size();
      return true;
    }
    return false;
  }

  Value parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{':
      case '[': {
        if (depth_ == kMaxDepth) {
          fail(pos_, "nesting deeper than " + std::to_string(kMaxDepth) +
                         " levels");
        }
        ++depth_;
        Value v = c == '{' ? parse_object() : parse_array();
        --depth_;
        return v;
      }
      case '"':
        return Value::make_string(parse_string());
      case 't':
        if (consume_literal("true")) {
          return Value::make_bool(true);
        }
        fail(pos_, "bad literal");
      case 'f':
        if (consume_literal("false")) {
          return Value::make_bool(false);
        }
        fail(pos_, "bad literal");
      case 'n':
        if (consume_literal("null")) {
          return Value::make_null();
        }
        fail(pos_, "bad literal");
      default:
        return parse_number();
    }
  }

  Value parse_object() {
    expect('{');
    std::map<std::string, Value> members;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Value::make_object(std::move(members));
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      members.insert_or_assign(std::move(key), parse_value());
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return Value::make_object(std::move(members));
    }
  }

  Value parse_array() {
    expect('[');
    std::vector<Value> items;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Value::make_array(std::move(items));
    }
    while (true) {
      items.push_back(parse_value());
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return Value::make_array(std::move(items));
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      const char c = peek();
      ++pos_;
      if (c == '"') {
        return out;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        fail(pos_ - 1, "raw control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      const char esc = peek();
      ++pos_;
      switch (esc) {
        case '"':
        case '\\':
        case '/':
          out.push_back(esc);
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'u':
          append_utf8(out, parse_hex4());
          break;
        default:
          fail(pos_ - 1, "bad escape");
      }
    }
  }

  std::uint32_t parse_hex4() {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = peek();
      ++pos_;
      v <<= 4;
      if (c >= '0' && c <= '9') {
        v |= static_cast<std::uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        v |= static_cast<std::uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        v |= static_cast<std::uint32_t>(c - 'A' + 10);
      } else {
        fail(pos_ - 1, "bad \\u escape");
      }
    }
    return v;
  }

  void append_utf8(std::string& out, std::uint32_t cp) {
    // Surrogate pairs: a high surrogate must be followed by \uDC00-\uDFFF.
    if (cp >= 0xD800 && cp <= 0xDBFF) {
      if (!consume_literal("\\u")) {
        fail(pos_, "lone high surrogate");
      }
      const std::uint32_t lo = parse_hex4();
      if (lo < 0xDC00 || lo > 0xDFFF) {
        fail(pos_, "bad low surrogate");
      }
      cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
    } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
      fail(pos_, "lone low surrogate");
    }
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') {
      ++pos_;
    }
    if (!std::isdigit(static_cast<unsigned char>(peek()))) {
      fail(pos_, "bad number");
    }
    const std::size_t int_start = pos_;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    if (text_[int_start] == '0' && pos_ - int_start > 1) {
      fail(int_start, "leading zero in number");
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (pos_ >= text_.size() ||
          !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        fail(pos_, "bad fraction");
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ >= text_.size() ||
          !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        fail(pos_, "bad exponent");
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    double v = 0.0;
    const auto res =
        std::from_chars(text_.data() + start, text_.data() + pos_, v);
    if (res.ec != std::errc{}) {
      fail(start, "unrepresentable number");
    }
    return Value::make_number(v);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  // arrays and objects open around pos_
};

}  // namespace

bool Value::as_bool() const {
  if (kind_ != Kind::kBool) {
    throw std::runtime_error("json: not a bool");
  }
  return bool_;
}

double Value::as_number() const {
  if (kind_ != Kind::kNumber) {
    throw std::runtime_error("json: not a number");
  }
  return number_;
}

const std::string& Value::as_string() const {
  if (kind_ != Kind::kString) {
    throw std::runtime_error("json: not a string");
  }
  return string_;
}

const std::vector<Value>& Value::as_array() const {
  if (kind_ != Kind::kArray) {
    throw std::runtime_error("json: not an array");
  }
  return array_;
}

const std::map<std::string, Value>& Value::as_object() const {
  if (kind_ != Kind::kObject) {
    throw std::runtime_error("json: not an object");
  }
  return object_;
}

const Value& Value::at(std::string_view key) const {
  const Value* v = find(key);
  if (v == nullptr) {
    throw std::runtime_error("json: missing key '" + std::string(key) + "'");
  }
  return *v;
}

const Value* Value::find(std::string_view key) const {
  if (kind_ != Kind::kObject) {
    return nullptr;
  }
  const auto it = object_.find(std::string(key));
  return it == object_.end() ? nullptr : &it->second;
}

Value Value::make_bool(bool b) {
  Value v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

Value Value::make_number(double n) {
  Value v;
  v.kind_ = Kind::kNumber;
  v.number_ = n;
  return v;
}

Value Value::make_string(std::string s) {
  Value v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(s);
  return v;
}

Value Value::make_array(std::vector<Value> items) {
  Value v;
  v.kind_ = Kind::kArray;
  v.array_ = std::move(items);
  return v;
}

Value Value::make_object(std::map<std::string, Value> members) {
  Value v;
  v.kind_ = Kind::kObject;
  v.object_ = std::move(members);
  return v;
}

Value parse(std::string_view text) {
  return Parser(text).parse_document();
}

void append_json_string(std::string& out, std::string_view s) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void write_json_string(std::ostream& out, std::string_view s) {
  std::string quoted;
  append_json_string(quoted, s);
  out << quoted;
}

namespace {

void write_json_number(std::ostream& out, double v) {
  if (!std::isfinite(v)) {
    out << "null";
    return;
  }
  // Exact integers below 2^53 print without a decimal point, so counters
  // and bit budgets stay readable; everything else round-trips via %.17g.
  if (v == std::floor(v) && std::fabs(v) < 9007199254740992.0) {
    out << static_cast<long long>(v);
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out << buf;
}

void write_indent(std::ostream& out, int depth) {
  for (int i = 0; i < depth; ++i) {
    out << ' ';
  }
}

}  // namespace

void write(std::ostream& out, const Value& value, int indent) {
  switch (value.kind()) {
    case Value::Kind::kNull:
      out << "null";
      return;
    case Value::Kind::kBool:
      out << (value.as_bool() ? "true" : "false");
      return;
    case Value::Kind::kNumber:
      write_json_number(out, value.as_number());
      return;
    case Value::Kind::kString:
      write_json_string(out, value.as_string());
      return;
    case Value::Kind::kArray: {
      const auto& items = value.as_array();
      if (items.empty()) {
        out << "[]";
        return;
      }
      out << "[";
      bool first = true;
      for (const Value& item : items) {
        out << (first ? "\n" : ",\n");
        first = false;
        write_indent(out, indent + 1);
        write(out, item, indent + 1);
      }
      out << "\n";
      write_indent(out, indent);
      out << "]";
      return;
    }
    case Value::Kind::kObject: {
      const auto& members = value.as_object();
      if (members.empty()) {
        out << "{}";
        return;
      }
      out << "{";
      bool first = true;
      for (const auto& [key, member] : members) {
        out << (first ? "\n" : ",\n");
        first = false;
        write_indent(out, indent + 1);
        write_json_string(out, key);
        out << ": ";
        write(out, member, indent + 1);
      }
      out << "\n";
      write_indent(out, indent);
      out << "}";
      return;
    }
  }
}

std::string dump(const Value& value) {
  std::ostringstream out;
  write(out, value, 0);
  out << "\n";
  return out.str();
}

}  // namespace adsd::json
