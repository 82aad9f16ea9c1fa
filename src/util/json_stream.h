// Streaming JSON tokenizer: the one JSON lexer of the project.
//
// Chrome trace files are multi-megabyte *nested* documents (an array of event
// objects, each with an `args` object) that must not be materialized whole;
// CUPTI record lines and serve requests are flat objects, parsed by
// ParseJsonObject (src/util/json.h) as a loop over these tokens. A stream is
// pulled one token at a time through a fixed read buffer (kReadBufferBytes,
// refilled with sgetn); an in-memory document is lexed in place from the
// caller's string_view, with no copy and no read buffer. The only other state
// is the current token's text plus a depth stack, both hard-capped by Limits,
// so peak resident memory is bounded no matter how large the input is. The
// token's text storage is reused from token to token, so a steady stream of
// tokens allocates nothing.
//
// Grammar checking is strict (commas, colons, nesting, one top-level value,
// no trailing garbage, standard JSON numbers with finite values); anything
// malformed — truncated input, bad escapes, absurd nesting depth, oversized
// strings — surfaces as a kError token with a message and the byte offset,
// never a crash. Number tokens keep their raw text so callers can decode
// int64-exact values (nanosecond timestamps, correlation ids past 2^53)
// without a lossy double round trip.
#ifndef SRC_UTIL_JSON_STREAM_H_
#define SRC_UTIL_JSON_STREAM_H_

#include <cstdint>
#include <istream>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace daydream {

class JsonStreamTokenizer {
 public:
  enum class TokenKind {
    kBeginObject,
    kEndObject,
    kBeginArray,
    kEndArray,
    kKey,     // object member key; the member's value tokens follow
    kString,  // decoded string value
    kNumber,  // raw source token in `text` (validated as a JSON number)
    kBool,
    kNull,
    kEnd,    // whole document consumed cleanly
    kError,  // sticky; `text` holds the message, offset() the position
  };

  struct Token {
    TokenKind kind = TokenKind::kEnd;
    std::string text;
    bool boolean = false;
  };

  // Caps on the transient per-token state. Exceeding one is a parse error,
  // not an allocation: hostile input cannot make the tokenizer grow.
  struct Limits {
    size_t max_string_bytes = 1 << 20;  // one decoded string/key
    size_t max_number_bytes = 64;       // one number token
    size_t max_depth = 32;              // nested containers
  };

  explicit JsonStreamTokenizer(std::istream& in);
  JsonStreamTokenizer(std::istream& in, Limits limits);
  // Lexes `text` in place, with the default limits; the caller keeps it
  // alive while tokens are read.
  explicit JsonStreamTokenizer(std::string_view text);

  // Advances to and returns the next token. After kEnd or kError every
  // further call returns the same token. The returned token (and its text)
  // stays valid until the next call.
  const Token& Next();
  const Token& token() const { return token_; }

  // Bytes of the document consumed so far (error positions). The read buffer
  // may hold bytes past this point; they do not count until lexed.
  uint64_t offset() const { return buffer_offset_ + pos_; }

  // High-water mark of the per-token state (token text + depth stack), the
  // quantity the bounded-memory tests assert on. The fixed read buffer is
  // not counted: its size never depends on the input.
  size_t max_buffered_bytes() const { return max_buffered_; }

  // Size of a stream's read buffer. A short read from the stream is not an
  // end of input; only a read that returns nothing is.
  static constexpr size_t kReadBufferBytes = 64 << 10;

 private:
  enum class Context : uint8_t { kObject, kArray };
  enum class State : uint8_t {
    kValueStart,   // a value must start here
    kObjectFirst,  // just after '{': first key or '}'
    kArrayFirst,   // just after '[': first value or ']'
    kAfterValue,   // a value closed: separator, container close, or kEnd
  };

  const Token& Fail(const std::string& message);
  // Publishes token_ as `kind`; the caller has already set token_.text.
  const Token& Emit(TokenKind kind, bool boolean = false);
  const Token& EmitKey();  // after the key's opening quote was consumed

  // Makes at least one unread byte available; false at end of input.
  bool Fill() { return pos_ < end_ || Refill(); }
  bool Refill();
  int GetChar();   // -1 on EOF
  int PeekChar();  // does not consume
  void SkipSpace();
  int GetNonSpace();  // SkipSpace, then GetChar
  // Lex into token_.text, reusing its storage.
  bool LexString();  // after the opening quote was consumed
  bool LexNumber(char first);
  bool LexWord(std::string_view word, int first);
  void NoteBuffered(size_t bytes);

  std::istream* in_;  // null for an in-memory document
  const Limits limits_;
  Token token_;
  std::vector<Context> stack_;  // innermost last; empty once the value closed
  State state_ = State::kValueStart;
  size_t max_buffered_ = 0;
  std::unique_ptr<char[]> read_buffer_;  // kReadBufferBytes, streams only
  const char* buf_;  // unread bytes are [pos_, end_)
  size_t pos_ = 0;
  size_t end_ = 0;
  uint64_t buffer_offset_ = 0;  // document offset of buf_[0]
};

// Exact Chrome-timestamp decode: microseconds written as a plain decimal
// ("1.500", "-3.25", "1234") to integer nanoseconds, by integer arithmetic on
// the digits — no double in the path, so values far past 2^53 ns stay exact.
// More than three fractional digits are accepted only when the extras are
// zeros (sub-nanosecond precision cannot be represented). Returns nullopt on
// exponents, garbage, or int64 overflow.
std::optional<int64_t> ParseDecimalUsToNs(std::string_view token);

}  // namespace daydream

#endif  // SRC_UTIL_JSON_STREAM_H_
