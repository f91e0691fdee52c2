#include "report/json.h"

#include <cctype>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace rtb::report {

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (char c : s) {
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
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

std::string JsonNum(double v) {
  // JSON has no inf/nan, so clamp those to null (a report emitting them is
  // a bug the smoke tests will catch).
  if (!std::isfinite(v)) return "null";
  // Shortest representation that still round-trips to the same double:
  // most values (0.03, 12.5, …) print exactly at 15 significant digits;
  // %.17g always round-trips but renders 0.03 as 0.029999999999999999.
  char buf[40];
  for (int precision : {15, 16}) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) return buf;
  }
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void JsonDict::PutStr(const std::string& key, const std::string& value) {
  fields_.emplace_back(key, JsonEscape(value));
}

void JsonDict::PutNum(const std::string& key, double value) {
  fields_.emplace_back(key, JsonNum(value));
}

void JsonDict::PutInt(const std::string& key, uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, value);
  fields_.emplace_back(key, buf);
}

void JsonDict::PutBool(const std::string& key, bool value) {
  fields_.emplace_back(key, value ? "true" : "false");
}

void JsonDict::PutDict(const std::string& key, const JsonDict& value) {
  fields_.emplace_back(key, value.ToString());
}

void JsonDict::PutDictArray(const std::string& key,
                            const std::vector<JsonDict>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    out += values[i].ToString();
  }
  out += "]";
  fields_.emplace_back(key, std::move(out));
}

void JsonDict::PutIntArray(const std::string& key,
                           const std::vector<uint64_t>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(values[i]);
  }
  out += "]";
  fields_.emplace_back(key, std::move(out));
}

bool JsonDict::Has(const std::string& key) const {
  for (const auto& [k, v] : fields_) {
    if (k == key) return true;
  }
  return false;
}

std::string JsonDict::ToString() const {
  std::string out = "{";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonEscape(fields_[i].first) + ": " + fields_[i].second;
  }
  out += "}";
  return out;
}

BenchReport::BenchReport(std::string name) : name_(std::move(name)) {
  meta_.PutStr("bench", name_);
}

JsonDict& BenchReport::AddConfig(const std::string& label) {
  configs_.push_back(std::make_unique<JsonDict>());
  configs_.back()->PutStr("config", label);
  return *configs_.back();
}

std::string BenchReport::ToJson() const {
  std::string out = "{\n";
  const std::string meta = meta_.ToString();
  // Splice the meta fields (sans braces) into the top-level object.
  out += "  " + meta.substr(1, meta.size() - 2) + ",\n";
  out += "  \"configs\": [\n";
  for (size_t i = 0; i < configs_.size(); ++i) {
    out += "    " + configs_[i]->ToString();
    if (i + 1 < configs_.size()) out += ",";
    out += "\n";
  }
  out += "  ]\n}\n";
  return out;
}

bool BenchReport::WriteFile(const std::string& path) const {
  const std::string dest =
      path.empty() ? "BENCH_" + name_ + ".json" : path;
  std::FILE* f = std::fopen(dest.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", dest.c_str());
    return false;
  }
  const std::string doc = ToJson();
  const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
  std::fclose(f);
  std::printf("\nwrote %s\n", dest.c_str());
  return ok;
}

bool JsonValue::boolean() const {
  RTB_CHECK(is_bool());
  return bool_;
}

double JsonValue::number() const {
  RTB_CHECK(is_number());
  return number_;
}

const std::string& JsonValue::str() const {
  RTB_CHECK(is_string());
  return string_;
}

const std::vector<JsonValue>& JsonValue::array() const {
  RTB_CHECK(is_array());
  return array_;
}

const std::vector<JsonValue::Member>& JsonValue::members() const {
  RTB_CHECK(is_object());
  return members_;
}

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (!is_object()) return nullptr;
  for (const Member& m : members_) {
    if (m.first == key) return &m.second;
  }
  return nullptr;
}

/// Recursive-descent parser over a borrowed string. Depth is bounded so a
/// hostile "[[[[..." spec cannot blow the stack.
class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  Result<JsonValue> Parse() {
    JsonValue value;
    RTB_RETURN_IF_ERROR(ParseValue(&value, 0));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON document");
    }
    return value;
  }

 private:
  static constexpr int kMaxDepth = 64;

  Status Error(const std::string& what) const {
    return Status::InvalidArgument("json: " + what + " at offset " +
                                   std::to_string(pos_));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    SkipWhitespace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    switch (text_[pos_]) {
      case '{':
        return ParseObject(out, depth);
      case '[':
        return ParseArray(out, depth);
      case '"':
        out->type_ = JsonValue::Type::kString;
        return ParseString(&out->string_);
      case 't':
      case 'f':
        return ParseKeyword(out);
      case 'n':
        if (text_.compare(pos_, 4, "null") == 0) {
          pos_ += 4;
          out->type_ = JsonValue::Type::kNull;
          return Status::OK();
        }
        return Error("invalid token");
      default:
        return ParseNumber(out);
    }
  }

  Status ParseObject(JsonValue* out, int depth) {
    ++pos_;  // '{'
    out->type_ = JsonValue::Type::kObject;
    SkipWhitespace();
    if (Consume('}')) return Status::OK();
    while (true) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected object key");
      }
      std::string key;
      RTB_RETURN_IF_ERROR(ParseString(&key));
      SkipWhitespace();
      if (!Consume(':')) return Error("expected ':' after object key");
      JsonValue value;
      RTB_RETURN_IF_ERROR(ParseValue(&value, depth + 1));
      out->members_.emplace_back(std::move(key), std::move(value));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume('}')) return Status::OK();
      return Error("expected ',' or '}' in object");
    }
  }

  Status ParseArray(JsonValue* out, int depth) {
    ++pos_;  // '['
    out->type_ = JsonValue::Type::kArray;
    SkipWhitespace();
    if (Consume(']')) return Status::OK();
    while (true) {
      JsonValue value;
      RTB_RETURN_IF_ERROR(ParseValue(&value, depth + 1));
      out->array_.push_back(std::move(value));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume(']')) return Status::OK();
      return Error("expected ',' or ']' in array");
    }
  }

  Status ParseString(std::string* out) {
    ++pos_;  // '"'
    out->clear();
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return Status::OK();
      if (static_cast<unsigned char>(c) < 0x20) {
        return Error("unescaped control character in string");
      }
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      char esc = text_[pos_++];
      switch (esc) {
        case '"':  out->push_back('"');  break;
        case '\\': out->push_back('\\'); break;
        case '/':  out->push_back('/');  break;
        case 'b':  out->push_back('\b'); break;
        case 'f':  out->push_back('\f'); break;
        case 'n':  out->push_back('\n'); break;
        case 'r':  out->push_back('\r'); break;
        case 't':  out->push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_ + i];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Error("invalid \\u escape");
            }
          }
          pos_ += 4;
          // The reports only ever emit \u00XX control escapes; encode the
          // general case as UTF-8 anyway.
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (code >> 6)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xE0 | (code >> 12)));
            out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return Error("invalid escape sequence");
      }
    }
    return Error("unterminated string");
  }

  Status ParseKeyword(JsonValue* out) {
    if (text_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      out->type_ = JsonValue::Type::kBool;
      out->bool_ = true;
      return Status::OK();
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      out->type_ = JsonValue::Type::kBool;
      out->bool_ = false;
      return Status::OK();
    }
    return Error("invalid token");
  }

  Status ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    (void)Consume('-');
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Error("invalid token");
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0' || !std::isfinite(v)) {
      pos_ = start;
      return Error("invalid number");
    }
    out->type_ = JsonValue::Type::kNumber;
    out->number_ = v;
    return Status::OK();
  }

  const std::string& text_;
  size_t pos_ = 0;
};

Result<JsonValue> JsonValue::Parse(const std::string& text) {
  return JsonParser(text).Parse();
}

}  // namespace rtb::report
