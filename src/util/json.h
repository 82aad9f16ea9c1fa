// Flat JSON objects: the serve protocol (docs/serve.md) and CUPTI records.
//
// Every `daydream serve` request and every CUPTI activity record is one *flat*
// JSON object — string / number / boolean / null values only, no nested
// containers; responses, which we only ever *write*, are free to nest. The
// parser is a short loop over JsonStreamTokenizer (src/util/json_stream.h),
// so the grammar and limits are the tokenizer's: standard JSON numbers of at
// most 64 bytes, strings of at most 1 MiB. Anything outside that — nesting,
// duplicate keys, trailing garbage, bad escapes, unterminated strings — is a
// parse error with a message naming the offending construct, never a crash
// or a silently-misread request.
#ifndef SRC_UTIL_JSON_H_
#define SRC_UTIL_JSON_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>

namespace daydream {

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  // The untouched source token for numbers, so an echoed field (e.g. a
  // request id of 7) round-trips as "7", not "7.000000".
  std::string raw;

  // Exact integer decode from the preserved source token. `number` is a
  // double, which silently rounds int64 values past 2^53 — precisely the
  // range of nanosecond timestamps and CUPTI correlation ids the importers
  // carry. Returns nullopt unless the token is a plain decimal integer
  // (no fraction, no exponent) that fits int64.
  std::optional<int64_t> AsInt64() const;
};

class JsonObject {
 public:
  bool Has(const std::string& key) const { return fields_.count(key) != 0; }
  const JsonValue* Find(const std::string& key) const;

  // Typed getters with fallbacks; a present-but-differently-typed field
  // returns the fallback (callers that must distinguish use Find).
  std::string GetString(const std::string& key, const std::string& fallback = "") const;
  double GetNumber(const std::string& key, double fallback = 0.0) const;
  bool GetBool(const std::string& key, bool fallback = false) const;
  // Exact int64 getter (see JsonValue::AsInt64): the fallback also covers
  // present-but-fractional ("1.5") and out-of-range tokens.
  int64_t GetInt64(const std::string& key, int64_t fallback = 0) const;

  const std::map<std::string, JsonValue>& fields() const { return fields_; }

  void Set(std::string key, JsonValue value) { fields_[std::move(key)] = std::move(value); }

 private:
  std::map<std::string, JsonValue> fields_;
};

// Parses one flat JSON object. Returns nullopt and sets *error (when given)
// on anything outside the subset described above.
std::optional<JsonObject> ParseJsonObject(std::string_view text, std::string* error = nullptr);

}  // namespace daydream

#endif  // SRC_UTIL_JSON_H_
