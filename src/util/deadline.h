// Deadline: a wall-clock budget carried through the serve request path.
//
// A request admitted to `daydream serve` gets a deadline (the daemon-wide
// --request-timeout-ms, possibly tightened by the request's own `timeout_ms`
// field). The deadline is checked at cheap, well-defined points — at queue
// dequeue before any work starts, between pipeline stages inside
// TraceSession::Predict, between cases inside SweepRunner::Run, and inside
// plan dispatch (every 1024 dispatches of the serial engine, between
// synchronization horizons of the sharded one) — so a request
// that ran out of budget answers a `deadline_exceeded` envelope and frees its
// worker instead of hogging it for the rest of an unbounded simulation.
//
// The default-constructed Deadline is unbounded (never expires): callers that
// do not care — the CLI, tests, benchmarks — pass it through for free.
#ifndef SRC_UTIL_DEADLINE_H_
#define SRC_UTIL_DEADLINE_H_

#include <chrono>
#include <limits>

namespace daydream {

class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  // Unbounded: Expired() is always false.
  Deadline() = default;

  static Deadline AfterMs(long long ms) {
    Deadline d;
    d.bounded_ = true;
    d.at_ = Clock::now() + std::chrono::milliseconds(ms);
    return d;
  }

  bool bounded() const { return bounded_; }

  bool Expired() const { return bounded_ && Clock::now() >= at_; }

  // Milliseconds left; +inf when unbounded, clamped at 0 once expired.
  double RemainingMs() const {
    if (!bounded_) {
      return std::numeric_limits<double>::infinity();
    }
    const auto left = std::chrono::duration<double, std::milli>(at_ - Clock::now()).count();
    return left > 0.0 ? left : 0.0;
  }

  // The tighter of the two (an unbounded deadline never wins).
  static Deadline Sooner(const Deadline& a, const Deadline& b) {
    if (!a.bounded_) {
      return b;
    }
    if (!b.bounded_) {
      return a;
    }
    return a.at_ <= b.at_ ? a : b;
  }

 private:
  bool bounded_ = false;
  Clock::time_point at_{};
};

}  // namespace daydream

#endif  // SRC_UTIL_DEADLINE_H_
