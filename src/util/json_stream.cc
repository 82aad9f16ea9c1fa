#include "src/util/json_stream.h"

#include <cmath>
#include <cstdlib>
#include <limits>

namespace daydream {

namespace {

bool IsSpace(char c) { return c == ' ' || c == '\t' || c == '\n' || c == '\r'; }

bool IsNumberChar(char c) {
  return (c >= '0' && c <= '9') || c == '.' || c == '-' || c == '+' || c == 'e' || c == 'E';
}

// True for a standard JSON number, -?(0|[1-9]D*)(.D+)?([eE][+-]?D+)?, with a
// finite value. Without an exponent, a token of at most 308 characters is
// below 10^308 < DBL_MAX, so only exponents and longer tokens need strtod.
bool IsJsonNumber(const std::string& text) {
  size_t i = 0;
  auto digits = [&] {
    const size_t from = i;
    while (i < text.size() && text[i] >= '0' && text[i] <= '9') {
      ++i;
    }
    return i > from;
  };
  if (i < text.size() && text[i] == '-') {
    ++i;
  }
  if (i < text.size() && text[i] == '0') {
    ++i;
  } else if (!digits()) {
    return false;
  }
  if (i < text.size() && text[i] == '.') {
    ++i;
    if (!digits()) {
      return false;
    }
  }
  const bool exponent = i < text.size() && (text[i] == 'e' || text[i] == 'E');
  if (exponent) {
    ++i;
    if (i < text.size() && (text[i] == '+' || text[i] == '-')) {
      ++i;
    }
    if (!digits()) {
      return false;
    }
  }
  if (i != text.size()) {
    return false;
  }
  return (!exponent && text.size() <= 308) || std::isfinite(std::strtod(text.c_str(), nullptr));
}

}  // namespace

JsonStreamTokenizer::JsonStreamTokenizer(std::istream& in) : JsonStreamTokenizer(in, Limits()) {}

JsonStreamTokenizer::JsonStreamTokenizer(std::istream& in, Limits limits)
    : in_(&in),
      limits_(limits),
      read_buffer_(new char[kReadBufferBytes]),
      buf_(read_buffer_.get()) {}

JsonStreamTokenizer::JsonStreamTokenizer(std::string_view text)
    : in_(nullptr), limits_(), buf_(text.data()), end_(text.size()) {}

bool JsonStreamTokenizer::Refill() {
  if (in_ == nullptr) {
    return false;  // an in-memory document is all in buf_ already
  }
  std::streambuf* sb = in_->rdbuf();
  const std::streamsize got =
      sb != nullptr ? sb->sgetn(read_buffer_.get(), static_cast<std::streamsize>(kReadBufferBytes))
                    : 0;
  buffer_offset_ += end_;
  pos_ = 0;
  end_ = got > 0 ? static_cast<size_t>(got) : 0;
  return end_ > 0;
}

int JsonStreamTokenizer::GetChar() {
  if (!Fill()) {
    return -1;
  }
  return static_cast<unsigned char>(buf_[pos_++]);
}

int JsonStreamTokenizer::PeekChar() {
  return Fill() ? static_cast<unsigned char>(buf_[pos_]) : -1;
}

void JsonStreamTokenizer::SkipSpace() {
  while (Fill() && IsSpace(buf_[pos_])) {
    ++pos_;
  }
}

int JsonStreamTokenizer::GetNonSpace() {
  while (Fill()) {
    const char c = buf_[pos_++];
    if (!IsSpace(c)) {
      return static_cast<unsigned char>(c);
    }
  }
  return -1;
}

void JsonStreamTokenizer::NoteBuffered(size_t bytes) {
  const size_t total = bytes + stack_.size();
  if (total > max_buffered_) {
    max_buffered_ = total;
  }
}

const JsonStreamTokenizer::Token& JsonStreamTokenizer::Fail(const std::string& message) {
  token_.kind = TokenKind::kError;
  token_.text = message;
  token_.boolean = false;
  return token_;
}

const JsonStreamTokenizer::Token& JsonStreamTokenizer::Emit(TokenKind kind, bool boolean) {
  NoteBuffered(token_.text.size());
  token_.kind = kind;
  token_.boolean = boolean;
  return token_;
}

// Decodes the remainder of a string after the opening '"' into token_.text,
// decoded size capped by the limits. Runs of plain characters are copied out
// of the buffer in bulk.
bool JsonStreamTokenizer::LexString() {
  std::string* out = &token_.text;
  out->clear();
  while (true) {
    if (!Fill()) {
      Fail("unterminated string");
      return false;
    }
    const char* run = buf_ + pos_;
    const char* run_end = buf_ + end_;
    const char* stop = run;
    while (stop < run_end && *stop != '"' && *stop != '\\' &&
           static_cast<unsigned char>(*stop) >= 0x20) {
      ++stop;
    }
    const size_t length = static_cast<size_t>(stop - run);
    const size_t room =
        out->size() < limits_.max_string_bytes ? limits_.max_string_bytes - out->size() : 0;
    if (length > room) {
      // The first character past the limit is consumed, then rejected.
      out->append(run, room);
      pos_ += room + 1;
      Fail("string exceeds the size limit");
      return false;
    }
    out->append(run, length);
    pos_ += length;
    if (stop == run_end) {
      continue;  // the run reached the end of the buffer
    }
    const int c = GetChar();
    if (c == '"') {
      NoteBuffered(out->size());
      return true;
    }
    if (c != '\\') {
      Fail("unescaped control character in string");
      return false;
    }
    if (out->size() >= limits_.max_string_bytes) {
      Fail("string exceeds the size limit");
      return false;
    }
    const int esc = GetChar();
    switch (esc) {
      case '"': out->push_back('"'); break;
      case '\\': out->push_back('\\'); break;
      case '/': out->push_back('/'); break;
      case 'b': out->push_back('\b'); break;
      case 'f': out->push_back('\f'); break;
      case 'n': out->push_back('\n'); break;
      case 'r': out->push_back('\r'); break;
      case 't': out->push_back('\t'); break;
      case 'u': {
        unsigned code = 0;
        for (int i = 0; i < 4; ++i) {
          const int h = GetChar();
          code <<= 4;
          if (h >= '0' && h <= '9') {
            code |= static_cast<unsigned>(h - '0');
          } else if (h >= 'a' && h <= 'f') {
            code |= static_cast<unsigned>(h - 'a' + 10);
          } else if (h >= 'A' && h <= 'F') {
            code |= static_cast<unsigned>(h - 'A' + 10);
          } else {
            Fail(h < 0 ? "truncated \\u escape" : "invalid \\u escape");
            return false;
          }
        }
        // BMP-only UTF-8 encode: surrogate halves pass through as-is rather
        // than corrupting the text.
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
        Fail(esc < 0 ? "truncated escape sequence"
                     : std::string("invalid escape '\\") + static_cast<char>(esc) + "'");
        return false;
    }
  }
}

bool JsonStreamTokenizer::LexNumber(char first) {
  std::string* out = &token_.text;
  out->assign(1, first);
  while (Fill() && IsNumberChar(buf_[pos_])) {
    if (out->size() >= limits_.max_number_bytes) {
      Fail("number exceeds the size limit");
      return false;
    }
    out->push_back(buf_[pos_++]);
  }
  // Lexing is permissive; the whole token is then checked against the
  // grammar.
  if (!IsJsonNumber(*out)) {
    Fail("invalid number '" + *out + "'");
    return false;
  }
  return true;
}

bool JsonStreamTokenizer::LexWord(std::string_view word, int first) {
  if (first != word[0]) {
    Fail("expected a value");
    return false;
  }
  for (size_t i = 1; i < word.size(); ++i) {
    const int c = GetChar();
    if (c != word[i]) {
      // Quote what was read, up to and including the first wrong byte.
      std::string read(word.substr(0, i));
      if (c >= 0) {
        read.push_back(static_cast<char>(c));
      }
      Fail("invalid literal '" + read + "' (expected '" + std::string(word) + "')");
      return false;
    }
  }
  return true;
}

// Reads `"key":` and emits the kKey token. The caller consumed the quote.
const JsonStreamTokenizer::Token& JsonStreamTokenizer::EmitKey() {
  if (!LexString()) {
    return token_;
  }
  if (GetNonSpace() != ':') {
    return Fail("expected ':' after key '" + token_.text + "'");
  }
  state_ = State::kValueStart;
  return Emit(TokenKind::kKey);
}

const JsonStreamTokenizer::Token& JsonStreamTokenizer::Next() {
  if (token_.kind == TokenKind::kError) {
    return token_;  // sticky
  }
  switch (state_) {
    case State::kAfterValue: {
      if (stack_.empty()) {
        SkipSpace();
        if (PeekChar() >= 0) {
          return Fail("trailing characters after the document");
        }
        token_.text.clear();
        return Emit(TokenKind::kEnd);
      }
      const int c = GetNonSpace();
      if (c < 0) {
        return Fail("unexpected end of input");
      }
      if (stack_.back() == Context::kObject) {
        if (c == '}') {
          stack_.pop_back();
          token_.text.clear();
          return Emit(TokenKind::kEndObject);
        }
        if (c != ',') {
          return Fail("expected ',' or '}' in object");
        }
        if (GetNonSpace() != '"') {
          return Fail("expected a string key");
        }
        return EmitKey();
      }
      if (c == ']') {
        stack_.pop_back();
        token_.text.clear();
        return Emit(TokenKind::kEndArray);
      }
      if (c != ',') {
        return Fail("expected ',' or ']' in array");
      }
      break;  // fall through to the next array element
    }
    case State::kObjectFirst: {
      const int c = GetNonSpace();
      if (c == '}') {
        stack_.pop_back();
        state_ = State::kAfterValue;
        token_.text.clear();
        return Emit(TokenKind::kEndObject);
      }
      if (c != '"') {
        return Fail(c < 0 ? "unexpected end of input" : "expected a string key");
      }
      return EmitKey();
    }
    case State::kArrayFirst:
      SkipSpace();
      if (PeekChar() == ']') {
        GetChar();
        stack_.pop_back();
        state_ = State::kAfterValue;
        token_.text.clear();
        return Emit(TokenKind::kEndArray);
      }
      break;  // fall through to the first array element
    case State::kValueStart:
      break;
  }

  // A value starts here.
  const int c = GetNonSpace();
  if (c < 0) {
    return Fail("unexpected end of input");
  }
  switch (c) {
    case '{':
    case '[':
      if (stack_.size() >= limits_.max_depth) {
        return Fail("nesting exceeds the depth limit");
      }
      stack_.push_back(c == '{' ? Context::kObject : Context::kArray);
      state_ = c == '{' ? State::kObjectFirst : State::kArrayFirst;
      token_.text.clear();
      return Emit(c == '{' ? TokenKind::kBeginObject : TokenKind::kBeginArray);
    case '"':
      if (!LexString()) {
        return token_;
      }
      state_ = State::kAfterValue;
      return Emit(TokenKind::kString);
    case 't':
    case 'f':
    case 'n': {
      const std::string_view word = c == 't' ? "true" : c == 'f' ? "false" : "null";
      if (!LexWord(word, c)) {
        return token_;
      }
      state_ = State::kAfterValue;
      if (c == 'n') {
        token_.text.clear();
        return Emit(TokenKind::kNull);
      }
      token_.text.assign(word);
      return Emit(TokenKind::kBool, c == 't');
    }
    default:
      if (c != '-' && (c < '0' || c > '9')) {
        return Fail("expected a value");
      }
      if (!LexNumber(static_cast<char>(c))) {
        return token_;
      }
      state_ = State::kAfterValue;
      return Emit(TokenKind::kNumber);
  }
}

std::optional<int64_t> ParseDecimalUsToNs(std::string_view token) {
  size_t i = 0;
  bool negative = false;
  if (i < token.size() && (token[i] == '+' || token[i] == '-')) {
    negative = token[i] == '-';
    ++i;
  }
  const size_t digits_start = i;
  // Accumulate negatively (|INT64_MIN| > INT64_MAX) so both signs fit.
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  int64_t value = 0;  // nanoseconds so far, non-positive
  auto push_digit = [&](char c) {
    const int digit = c - '0';
    if (value < (kMin + digit) / 10) {
      return false;
    }
    value = value * 10 - digit;
    return true;
  };
  while (i < token.size() && token[i] >= '0' && token[i] <= '9') {
    if (!push_digit(token[i])) {
      return std::nullopt;
    }
    ++i;
  }
  if (i == digits_start) {
    return std::nullopt;  // no integer digits
  }
  int frac_digits = 0;
  if (i < token.size() && token[i] == '.') {
    ++i;
    const size_t frac_start = i;
    while (i < token.size() && token[i] >= '0' && token[i] <= '9') {
      if (frac_digits < 3) {
        if (!push_digit(token[i])) {
          return std::nullopt;
        }
        ++frac_digits;
      } else if (token[i] != '0') {
        return std::nullopt;  // sub-nanosecond precision
      }
      ++i;
    }
    if (i == frac_start) {
      return std::nullopt;  // "1." with no digits
    }
  }
  if (i != token.size()) {
    return std::nullopt;  // exponent or trailing garbage
  }
  // Scale microseconds to nanoseconds: three fractional digits were already
  // folded in, pad the rest.
  for (; frac_digits < 3; ++frac_digits) {
    if (value < kMin / 10) {
      return std::nullopt;
    }
    value *= 10;
  }
  if (!negative) {
    if (value == kMin) {
      return std::nullopt;
    }
    value = -value;
  }
  return value;
}

}  // namespace daydream
