#include "obs/json.hpp"

#include <cctype>
#include <charconv>
#include <cstdint>
#include <cstdlib>

namespace ph::obs::json {

namespace {

// Strings hold UTF-8, so a decoded \uXXXX escape is stored as the bytes
// append_string writes back verbatim.
void append_utf8(std::string& out, std::uint32_t code) {
  if (code < 0x80) {
    out += static_cast<char>(code);
    return;
  }
  if (code < 0x800) {
    out += static_cast<char>(0xc0 | (code >> 6));
  } else {
    if (code < 0x10000) {
      out += static_cast<char>(0xe0 | (code >> 12));
    } else {
      out += static_cast<char>(0xf0 | (code >> 18));
      out += static_cast<char>(0x80 | ((code >> 12) & 0x3f));
    }
    out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
  }
  out += static_cast<char>(0x80 | (code & 0x3f));
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  bool parse(Value& out, std::string* error) {
    skip_ws();
    if (!parse_value(out)) {
      if (error != nullptr) {
        *error = message_ + " at offset " + std::to_string(pos_);
      }
      return false;
    }
    skip_ws();
    if (pos_ != text_.size()) {
      if (error != nullptr) {
        *error = "trailing data at offset " + std::to_string(pos_);
      }
      return false;
    }
    return true;
  }

 private:
  bool fail(const char* message) {
    if (message_.empty()) message_ = message;
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool consume_word(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  bool parse_value(Value& out) {
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    const char c = text_[pos_];
    switch (c) {
      case '{':
      case '[': {
        if (depth_ == kMaxDepth) return fail("nesting too deep");
        ++depth_;
        const bool ok = c == '{' ? parse_object(out) : parse_array(out);
        --depth_;
        return ok;
      }
      case '"': {
        out.kind = Value::Kind::string;
        return parse_string(out.string);
      }
      case 't':
        if (!consume_word("true")) return fail("bad literal");
        out.kind = Value::Kind::boolean;
        out.boolean = true;
        return true;
      case 'f':
        if (!consume_word("false")) return fail("bad literal");
        out.kind = Value::Kind::boolean;
        out.boolean = false;
        return true;
      case 'n':
        if (!consume_word("null")) return fail("bad literal");
        out.kind = Value::Kind::null;
        return true;
      default: return parse_number(out);
    }
  }

  bool parse_object(Value& out) {
    ++pos_;  // '{'
    out.kind = Value::Kind::object;
    out.object = std::make_shared<Object>();
    skip_ws();
    if (consume('}')) return true;
    while (true) {
      skip_ws();
      std::string key;
      if (!parse_string(key)) return fail("expected object key");
      skip_ws();
      if (!consume(':')) return fail("expected ':'");
      skip_ws();
      Value value;
      if (!parse_value(value)) return false;
      (*out.object)[std::move(key)] = std::move(value);
      skip_ws();
      if (consume(',')) continue;
      if (consume('}')) return true;
      return fail("expected ',' or '}'");
    }
  }

  bool parse_array(Value& out) {
    ++pos_;  // '['
    out.kind = Value::Kind::array;
    out.array = std::make_shared<Array>();
    skip_ws();
    if (consume(']')) return true;
    while (true) {
      skip_ws();
      Value value;
      if (!parse_value(value)) return false;
      out.array->push_back(std::move(value));
      skip_ws();
      if (consume(',')) continue;
      if (consume(']')) return true;
      return fail("expected ',' or ']'");
    }
  }

  bool parse_string(std::string& out) {
    if (!consume('"')) return fail("expected '\"'");
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) return fail("bad escape");
        const char e = text_[pos_++];
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
            std::uint32_t code = 0;
            if (!parse_hex4(code)) return fail("bad \\u escape");
            if (code >= 0xd800 && code < 0xdc00 && consume_word("\\u")) {
              // A high surrogate pairs with the escaped low one after it.
              std::uint32_t low = 0;
              if (!parse_hex4(low) || low < 0xdc00 || low >= 0xe000) {
                return fail("bad \\u escape");
              }
              code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
            }
            append_utf8(out, code);
            break;
          }
          default: return fail("bad escape");
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return fail("raw control character in string");
      } else {
        out += c;
      }
    }
    return fail("unterminated string");
  }

  bool parse_hex4(std::uint32_t& code) {
    if (pos_ + 4 > text_.size()) return false;
    const char* first = text_.data() + pos_;
    const auto [end, ec] = std::from_chars(first, first + 4, code, 16);
    if (ec != std::errc() || end != first + 4) return false;
    pos_ += 4;
    return true;
  }

  bool parse_number(Value& out) {
    const std::size_t start = pos_;
    if (consume('-')) {}
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return fail("expected value");
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') return fail("bad number");
    out.kind = Value::Kind::number;
    out.number = value;
    return true;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  std::string message_;
};

}  // namespace

bool parse(std::string_view text, Value& out, std::string* error) {
  return Parser(text).parse(out, error);
}

namespace {

void serialize_into(std::string& out, const Value& value) {
  switch (value.kind) {
    case Value::Kind::null: out += "null"; break;
    case Value::Kind::boolean: out += value.boolean ? "true" : "false"; break;
    case Value::Kind::number: append_number(out, value.number); break;
    case Value::Kind::string: append_string(out, value.string); break;
    case Value::Kind::array: {
      out += '[';
      bool first = true;
      for (const Value& item : *value.array) {
        if (!first) out += ',';
        first = false;
        serialize_into(out, item);
      }
      out += ']';
      break;
    }
    case Value::Kind::object: {
      out += '{';
      bool first = true;
      for (const auto& [key, member] : *value.object) {
        if (!first) out += ',';
        first = false;
        append_string(out, key);
        out += ':';
        serialize_into(out, member);
      }
      out += '}';
      break;
    }
  }
}

}  // namespace

std::string serialize(const Value& value) {
  std::string out;
  out.reserve(1024);
  serialize_into(out, value);
  return out;
}

}  // namespace ph::obs::json
