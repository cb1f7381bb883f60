// Minimal recursive-descent JSON reader shared by the freestanding tools
// (bench_compare, apds_report) — just enough for the flat objects and
// arrays the bench/trace/flight writers emit. Throws std::runtime_error on
// malformed input with a byte offset, so CI logs point at the problem.
//
// Deliberately tool-local (not src/): the library side only ever *writes*
// JSON, and the tools must stay dependency-free beyond common/parse_num.h.
#pragma once

#include <cctype>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace apds::tools {

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  const JsonValue* find(const std::string& key) const {
    if (kind != Kind::kObject) return nullptr;
    const auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing content");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("JSON error at byte " + std::to_string(pos_) +
                             ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  JsonValue value() {
    const char c = peek();
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') {
      JsonValue v;
      v.kind = JsonValue::Kind::kString;
      v.string = string();
      return v;
    }
    if (c == 't' || c == 'f') return keyword(c == 't' ? "true" : "false");
    if (c == 'n') return keyword("null");
    return number();
  }

  JsonValue keyword(const std::string& word) {
    if (text_.compare(pos_, word.size(), word) != 0) fail("bad literal");
    pos_ += word.size();
    JsonValue v;
    if (word == "null") return v;
    v.kind = JsonValue::Kind::kBool;
    v.boolean = word == "true";
    return v;
  }

  JsonValue number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+'))
      ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '-' || text_[pos_] == '+'))
      ++pos_;
    if (pos_ == start) fail("expected a value");
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    std::size_t used = 0;
    try {
      v.number = std::stod(text_.substr(start, pos_ - start), &used);
    } catch (const std::exception&) {
      fail("bad number");
    }
    if (used != pos_ - start) fail("bad number");
    return v;
  }

  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u':
          // The apds writers never emit \u escapes; keep them readable
          // rather than decoding UTF-16 surrogates.
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          out += "\\u" + text_.substr(pos_, 4);
          pos_ += 4;
          break;
        default: fail("bad escape");
      }
    }
  }

  JsonValue array() {
    expect('[');
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(value());
      const char c = peek();
      ++pos_;
      if (c == ']') return v;
      if (c != ',') fail("expected ',' or ']'");
    }
  }

  JsonValue object() {
    expect('{');
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      const std::string key = string();
      expect(':');
      v.object[key] = value();
      const char c = peek();
      ++pos_;
      if (c == '}') return v;
      if (c != ',') fail("expected ',' or '}'");
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

/// Read and parse a whole JSON file. Throws std::runtime_error on I/O or
/// parse failure.
inline JsonValue parse_json_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot read " + path);
  std::stringstream buf;
  buf << is.rdbuf();
  const std::string text = buf.str();
  return JsonParser(text).parse();
}

/// Fetch a required numeric field from an object row.
inline double require_number(const JsonValue& row, const std::string& key) {
  const JsonValue* v = row.find(key);
  if (!v || v->kind != JsonValue::Kind::kNumber)
    throw std::runtime_error("row is missing numeric field \"" + key + "\"");
  return v->number;
}

/// Fetch a required string field from an object row.
inline std::string require_string(const JsonValue& row,
                                  const std::string& key) {
  const JsonValue* v = row.find(key);
  if (!v || v->kind != JsonValue::Kind::kString)
    throw std::runtime_error("row is missing string field \"" + key + "\"");
  return v->string;
}

}  // namespace apds::tools
