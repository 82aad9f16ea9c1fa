#include "src/util/json.h"

#include <charconv>
#include <cstdlib>

#include "src/util/json_stream.h"
#include "src/util/string_util.h"

namespace daydream {

std::optional<int64_t> JsonValue::AsInt64() const {
  if (kind != Kind::kNumber) {
    return std::nullopt;
  }
  // `raw` holds the verbatim source token; ParseInt64 accepts exactly the
  // integer subset ([+-]?digits) and range-checks, so "1e3", "1.0" and
  // 20-digit overflows all return nullopt instead of a rounded double.
  return ParseInt64(raw);
}

const JsonValue* JsonObject::Find(const std::string& key) const {
  auto it = fields_.find(key);
  return it == fields_.end() ? nullptr : &it->second;
}

std::string JsonObject::GetString(const std::string& key, const std::string& fallback) const {
  const JsonValue* value = Find(key);
  return (value != nullptr && value->kind == JsonValue::Kind::kString) ? value->string : fallback;
}

double JsonObject::GetNumber(const std::string& key, double fallback) const {
  const JsonValue* value = Find(key);
  return (value != nullptr && value->kind == JsonValue::Kind::kNumber) ? value->number : fallback;
}

bool JsonObject::GetBool(const std::string& key, bool fallback) const {
  const JsonValue* value = Find(key);
  return (value != nullptr && value->kind == JsonValue::Kind::kBool) ? value->boolean : fallback;
}

int64_t JsonObject::GetInt64(const std::string& key, int64_t fallback) const {
  const JsonValue* value = Find(key);
  if (value == nullptr) {
    return fallback;
  }
  return value->AsInt64().value_or(fallback);
}

std::optional<JsonObject> ParseJsonObject(std::string_view text, std::string* error) {
  using TokenKind = JsonStreamTokenizer::TokenKind;
  auto fail = [error](std::string message) -> std::optional<JsonObject> {
    if (error != nullptr) {
      *error = std::move(message);
    }
    return std::nullopt;
  };
  JsonStreamTokenizer tokens(text);
  if (tokens.Next().kind != TokenKind::kBeginObject) {
    return fail("expected '{'");
  }
  JsonObject object;
  while (true) {
    const JsonStreamTokenizer::Token* token = &tokens.Next();
    if (token->kind == TokenKind::kEndObject) {
      break;
    }
    if (token->kind != TokenKind::kKey) {
      return fail(token->text);  // the tokenizer's error
    }
    std::string key = token->text;
    if (object.Has(key)) {
      return fail("duplicate key '" + key + "'");
    }
    token = &tokens.Next();
    JsonValue value;
    switch (token->kind) {
      case TokenKind::kString:
        value.kind = JsonValue::Kind::kString;
        value.string = token->text;
        break;
      case TokenKind::kNumber:
        value.kind = JsonValue::Kind::kNumber;
        // from_chars rounds exactly as strtod does, without the locale; it
        // refuses underflows, whose signed zero strtod still gets right.
        if (std::from_chars(token->text.data(), token->text.data() + token->text.size(),
                            value.number)
                .ec != std::errc()) {
          value.number = std::strtod(token->text.c_str(), nullptr);
        }
        value.raw = token->text;
        break;
      case TokenKind::kBool:
        value.kind = JsonValue::Kind::kBool;
        value.boolean = token->boolean;
        break;
      case TokenKind::kNull:
        break;
      case TokenKind::kBeginObject:
      case TokenKind::kBeginArray:
        return fail("nested containers are not part of the flat request protocol");
      default:
        return fail(token->text);  // the tokenizer's error
    }
    object.Set(std::move(key), std::move(value));
  }
  if (tokens.Next().kind != TokenKind::kEnd) {
    return fail("trailing characters after the object");
  }
  return object;
}

}  // namespace daydream
