#include "obs/json.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace coe::obs {

Json Json::boolean(bool b) {
  Json j;
  j.type_ = Type::Bool;
  j.bool_ = b;
  return j;
}

Json Json::number(double v) {
  Json j;
  j.type_ = Type::Number;
  j.num_ = v;
  return j;
}

Json Json::string(std::string s) {
  Json j;
  j.type_ = Type::String;
  j.str_ = std::move(s);
  return j;
}

Json Json::array() {
  Json j;
  j.type_ = Type::Array;
  return j;
}

Json Json::object() {
  Json j;
  j.type_ = Type::Object;
  return j;
}

bool Json::as_bool() const {
  if (type_ != Type::Bool) throw JsonError("json: not a bool");
  return bool_;
}

double Json::as_number() const {
  if (type_ != Type::Number) throw JsonError("json: not a number");
  return num_;
}

const std::string& Json::as_string() const {
  if (type_ != Type::String) throw JsonError("json: not a string");
  return str_;
}

const std::vector<Json>& Json::items() const {
  if (type_ != Type::Array) throw JsonError("json: not an array");
  return arr_;
}

const std::map<std::string, Json>& Json::fields() const {
  if (type_ != Type::Object) throw JsonError("json: not an object");
  return obj_;
}

const Json& Json::at(const std::string& key) const {
  const auto& f = fields();
  const auto it = f.find(key);
  if (it == f.end()) throw JsonError("json: missing key '" + key + "'");
  return it->second;
}

const Json& Json::at(std::size_t i) const {
  const auto& a = items();
  if (i >= a.size()) throw JsonError("json: index out of range");
  return a[i];
}

bool Json::contains(const std::string& key) const {
  return type_ == Type::Object && obj_.count(key) > 0;
}

Json& Json::set(const std::string& key, Json v) {
  if (type_ != Type::Object) throw JsonError("json: set() on non-object");
  obj_[key] = std::move(v);
  return *this;
}

Json& Json::push(Json v) {
  if (type_ != Type::Array) throw JsonError("json: push() on non-array");
  arr_.push_back(std::move(v));
  return *this;
}

std::string Json::escape(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (const char c : raw) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
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
  return out;
}

namespace {

std::string format_number(double v) {
  if (!std::isfinite(v)) throw JsonError("json: non-finite number");
  char buf[32];
  // Round-trippable shortest-ish form; trim a trailing ".000000".
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

// Quoted strings are appended piece by piece: GCC 12 at -O3 reports a false
// -Wrestrict overlap inside `"literal" + std::string&&` (GCC bug 105329).
std::string Json::dump() const {
  switch (type_) {
    case Type::Null: return "null";
    case Type::Bool: return bool_ ? "true" : "false";
    case Type::Number: return format_number(num_);
    case Type::String: {
      std::string out = "\"";
      out += escape(str_);
      out += '"';
      return out;
    }
    case Type::Array: {
      std::string out = "[";
      for (std::size_t i = 0; i < arr_.size(); ++i) {
        if (i) out += ",";
        out += arr_[i].dump();
      }
      return out + "]";
    }
    case Type::Object: {
      std::string out = "{";
      bool first = true;
      for (const auto& [k, v] : obj_) {
        if (!first) out += ",";
        first = false;
        out += '"';
        out += escape(k);
        out += "\":";
        out += v.dump();
      }
      return out + "}";
    }
  }
  return "null";
}

// ------------------------------------------------------------------ parser

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : s_(text) {}

  Json parse_document() {
    Json v = parse_value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw JsonError("json parse error at offset " + std::to_string(pos_) +
                    ": " + what);
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= s_.size()) fail("unexpected end of input");
    return s_[pos_];
  }

  bool consume(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void expect(char c) {
    if (!consume(c)) fail(std::string("expected '") + c + "'");
  }

  bool consume_word(std::string_view w) {
    if (s_.substr(pos_, w.size()) == w) {
      pos_ += w.size();
      return true;
    }
    return false;
  }

  Json parse_value() {
    skip_ws();
    const char c = peek();
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') return Json::string(parse_string());
    if (consume_word("true")) return Json::boolean(true);
    if (consume_word("false")) return Json::boolean(false);
    if (consume_word("null")) return Json();
    if (c == '-' || (c >= '0' && c <= '9')) return parse_number();
    fail("unexpected character");
  }

  Json parse_object() {
    expect('{');
    Json obj = Json::object();
    skip_ws();
    if (consume('}')) return obj;
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj.set(key, parse_value());
      skip_ws();
      if (consume('}')) return obj;
      expect(',');
    }
  }

  Json parse_array() {
    expect('[');
    Json arr = Json::array();
    skip_ws();
    if (consume(']')) return arr;
    for (;;) {
      arr.push(parse_value());
      skip_ws();
      if (consume(']')) return arr;
      expect(',');
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= s_.size()) fail("unterminated string");
      const char c = s_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= s_.size()) fail("dangling escape");
      const char e = s_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > s_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code += static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code += static_cast<unsigned>(h - 'A' + 10);
            else fail("bad hex digit in \\u escape");
          }
          // UTF-8 encode the BMP code point (surrogate pairs are beyond
          // what our emitters produce; keep them as-is bytes).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (consume('-')) {
    }
    while (pos_ < s_.size() &&
           ((s_[pos_] >= '0' && s_[pos_] <= '9') || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E' || s_[pos_] == '+' ||
            s_[pos_] == '-')) {
      ++pos_;
    }
    const std::string tok(s_.substr(start, pos_ - start));
    char* end = nullptr;
    const double v = std::strtod(tok.c_str(), &end);
    if (end != tok.c_str() + tok.size() || !std::isfinite(v)) {
      fail("bad number '" + tok + "'");
    }
    return Json::number(v);
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

}  // namespace

Json Json::parse(std::string_view text) {
  return Parser(text).parse_document();
}

}  // namespace coe::obs
