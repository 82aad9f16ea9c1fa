// FaultInjector: named chaos sites for exercising the daemon's failure paths.
//
// A robustness claim ("every accepted line gets exactly one envelope, the
// daemon never crashes") is only worth something if the failure paths actually
// run. The injector is a process-wide registry of *sites* — named points the
// serve stack consults on its way through a request — that tests and
// operators can arm to fail or stall probabilistically:
//
//   site              where it fires                    effect of `fail`
//   ----------------  --------------------------------  ----------------------
//   trace_load        `open` verb, before ReadTraceFile  `unavailable` envelope
//   plan_compile      TraceSession::Predict, cache miss  `unavailable` envelope
//   plan_cache_insert TraceSession answer-cache insert   insert dropped (the
//                                                        request still answers;
//                                                        repeats stay misses)
//   worker_execute    RequestPool worker, pre-dispatch   `unavailable` envelope
//   socket_write      TCP write_line, per send() call    send clamped to one
//                                                        byte (the retry loop
//                                                        must finish the line)
//
// Armed via the DAYDREAM_FAULTS environment variable or programmatically:
//
//   DAYDREAM_FAULTS="site:kind[:rate[:delay_ms]][,more...]"
//     kind      fail | delay
//     rate      firing probability in [0, 1]; default 1
//     delay_ms  sleep length for `delay` entries; default 1
//
// e.g. DAYDREAM_FAULTS="plan_compile:fail:0.3,worker_execute:delay:0.5:2".
// Several entries may share a site. `delay` entries sleep (scheduling jitter
// for the chaos suite); `fail` entries tell the site to take its failure
// path. All entry points are thread-safe; firing is deterministic in
// distribution (fixed-seed RNG) but not in interleaving.
#ifndef SRC_UTIL_FAULT_H_
#define SRC_UTIL_FAULT_H_

#include <cstdint>
#include <mutex>
#include <random>
#include <string>
#include <vector>

namespace daydream {

// What the armed entries decided for one visit to a site.
struct FaultAction {
  bool fail = false;
  int delay_ms = 0;  // summed across firing `delay` entries
};

class FaultInjector {
 public:
  // The process-wide injector, armed from DAYDREAM_FAULTS on first use
  // (malformed entries are reported on stderr once and skipped).
  static FaultInjector& Global();

  // The site catalog. Arming an unknown site is an error — a typo in
  // DAYDREAM_FAULTS must not silently arm nothing.
  static const std::vector<std::string>& KnownSites();

  // Parses and appends a comma-separated spec (see file comment). Returns
  // false with *error set on the first malformed entry; entries before it
  // stay armed.
  bool ArmSpec(const std::string& spec, std::string* error = nullptr);

  // Removes every armed entry (tests restore a clean process between cases).
  void Disarm();

  // Rolls every armed entry for `site` and merges the outcome. Cheap when
  // nothing is armed (one mutex acquire, no RNG).
  FaultAction Fire(const std::string& site);

  // Fire() plus sleeping through any delay action; returns action.fail. The
  // one-liner form every site uses.
  bool ShouldFail(const std::string& site);

  uint64_t fired() const;           // actions taken (fail or delay) since arm
  std::string SpecString() const;   // armed entries, re-serialized for stats
  bool armed() const;

 private:
  struct Entry {
    std::string site;
    bool is_delay = false;
    double rate = 1.0;
    int delay_ms = 1;
  };

  FaultInjector();

  mutable std::mutex mu_;
  std::vector<Entry> entries_;
  std::mt19937_64 rng_;
  uint64_t fired_ = 0;
};

}  // namespace daydream

#endif  // SRC_UTIL_FAULT_H_
