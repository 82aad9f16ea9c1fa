// CUPTI-style record-stream importer.
//
// The paper's Phase-1 instrumentation reads CUPTI activity records — CPU-side
// runtime API calls `{kind, name, start/end ns, processId, threadId,
// correlationId}` and GPU-side kernel/memcpy activities `{streamId,
// correlationId}` — and reconstructs CPU→GPU launch dependencies by matching
// correlation ids (§4.2.2). This importer accepts that record shape as JSON
// lines: one flat JSON object per line, e.g.
//
//   {"kind":"runtime","name":"cudaLaunchKernel","start":1000,"end":1500,
//    "processId":7,"threadId":1,"correlationId":42}
//   {"kind":"kernel","name":"volta_sgemm","start":2100,"end":9000,
//    "streamId":0,"correlationId":42}
//   {"kind":"memcpy","copyKind":"HtoD","bytes":4096,"start":...,"end":...,
//    "streamId":1,"correlationId":43}
//   {"kind":"marker","name":"conv1","layer":0,"phase":"forward","begin":true,
//    "start":900,"threadId":1}
//   {"kind":"gradient","layer":0,"bytes":1048576,"bucket":0}
//   {"kind":"trace","model":"ResNet-50","config":"batch=64"}
//
// Streaming by construction: records are parsed line by line
// (ParseJsonObject from src/util/json.h, on the same tokenizer the Chrome
// importer uses), so peak memory is the output Trace plus one line plus the
// correlation table — never the file. Timestamps and
// correlation ids decode through JsonObject::GetInt64, exact past 2^53.
//
// Correlation matching is one pass: each launching API (cudaLaunchKernel /
// cudaMemcpyAsync / cudaMemcpy) registers its id; GPU records pair with it
// in either arrival order (CUPTI buffers flush out of order). Records that
// would corrupt the dependency graph — a second GPU activity or a second
// launch on one id, or a GPU activity whose id never sees a launch — keep
// their event but have the correlation id cleared, and the repair is
// reported in CuptiImportStats. Malformed lines reject the whole import with
// a line-numbered error: a profiler dump is either trustworthy or not.
#ifndef SRC_TRACE_IMPORT_CUPTI_H_
#define SRC_TRACE_IMPORT_CUPTI_H_

#include <cstdint>
#include <istream>
#include <optional>
#include <string>

#include "src/trace/trace.h"

namespace daydream {

struct CuptiImportStats {
  uint64_t records = 0;            // accepted records (events + side channel)
  uint64_t events = 0;             // TraceEvents produced
  uint64_t matched = 0;            // correlation ids with launch + GPU task
  uint64_t unmatched_gpu = 0;      // GPU activity without a launch: id cleared
  uint64_t unmatched_launch = 0;   // launch whose GPU activity never arrived
  uint64_t duplicate_gpu = 0;      // extra GPU activity on one id: id cleared
  uint64_t duplicate_launch = 0;   // extra launch on one id: id cleared
};

// Returns nullopt with *error naming the line and cause on malformed input.
std::optional<Trace> ImportCuptiTrace(std::istream& in, std::string* error = nullptr,
                                      CuptiImportStats* stats = nullptr);
std::optional<Trace> ImportCuptiTraceFile(const std::string& path, std::string* error = nullptr,
                                          CuptiImportStats* stats = nullptr);

}  // namespace daydream

#endif  // SRC_TRACE_IMPORT_CUPTI_H_
