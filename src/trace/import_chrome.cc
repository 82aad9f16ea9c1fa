#include "src/trace/import_chrome.h"

#include <fstream>
#include <limits>
#include <string_view>

#include "src/util/json_stream.h"
#include "src/util/string_util.h"

namespace daydream {

namespace {

using Token = JsonStreamTokenizer::Token;
using TokenKind = JsonStreamTokenizer::TokenKind;

std::optional<EventKind> KindFromCat(std::string_view cat) {
  for (const EventKind kind : {EventKind::kRuntimeApi, EventKind::kKernel, EventKind::kMemcpy,
                               EventKind::kLayerMarker, EventKind::kDataLoad,
                               EventKind::kCommunication}) {
    if (cat == ToString(kind)) {
      return kind;
    }
  }
  return std::nullopt;
}

std::optional<ApiKind> ApiFromArg(std::string_view name) {
  for (const ApiKind kind :
       {ApiKind::kNone, ApiKind::kLaunchKernel, ApiKind::kMemcpyAsync, ApiKind::kMemcpySync,
        ApiKind::kDeviceSynchronize, ApiKind::kStreamSynchronize, ApiKind::kEventRecord,
        ApiKind::kMalloc, ApiKind::kFree, ApiKind::kOther}) {
    if (name == ToString(kind)) {
      return kind;
    }
  }
  return std::nullopt;
}

std::optional<MemcpyKind> CopyFromArg(std::string_view name) {
  for (const MemcpyKind kind : {MemcpyKind::kHostToDevice, MemcpyKind::kDeviceToHost,
                                MemcpyKind::kDeviceToDevice}) {
    if (name == ToString(kind)) {
      return kind;
    }
  }
  return std::nullopt;
}

std::optional<CommKind> CommFromArg(std::string_view name) {
  for (const CommKind kind : {CommKind::kAllReduce, CommKind::kReduceScatter, CommKind::kAllGather,
                              CommKind::kPush, CommKind::kPull, CommKind::kP2p}) {
    if (name == ToString(kind)) {
      return kind;
    }
  }
  return std::nullopt;
}

std::optional<Phase> PhaseFromArg(std::string_view name) {
  for (const Phase phase : {Phase::kUnknown, Phase::kDataLoad, Phase::kForward, Phase::kBackward,
                            Phase::kWeightUpdate}) {
    if (name == ToString(phase)) {
      return phase;
    }
  }
  return std::nullopt;
}

enum class RowType : uint8_t { kMetadata, kComplete, kInstant };

std::optional<RowType> RowTypeFromPh(std::string_view ph) {
  if (ph == "M") {
    return RowType::kMetadata;
  }
  if (ph == "X") {
    return RowType::kComplete;
  }
  if (ph == "i") {
    return RowType::kInstant;
  }
  return std::nullopt;
}

// The members a row or its args object may carry. A key is classified by its
// length and one byte, then confirmed with a single compare against its name.
enum class RowKey : uint8_t { kOther, kPh, kName, kCat, kS, kTid, kTs, kDur, kPid, kArgs };
constexpr std::string_view kRowKeyNames[] = {"",    "ph", "name", "cat", "s",
                                             "tid", "ts", "dur",  "pid", "args"};

RowKey RowKeyOf(std::string_view key) {
  RowKey guess = RowKey::kOther;
  switch (key.size()) {
    case 1:
      guess = RowKey::kS;
      break;
    case 2:
      guess = key[0] == 'p' ? RowKey::kPh : RowKey::kTs;
      break;
    case 3:
      guess = key[0] == 't'   ? RowKey::kTid
              : key[0] == 'd' ? RowKey::kDur
              : key[0] == 'c' ? RowKey::kCat
                              : RowKey::kPid;
      break;
    case 4:
      guess = key[0] == 'n' ? RowKey::kName : RowKey::kArgs;
      break;
  }
  return key == kRowKeyNames[static_cast<size_t>(guess)] ? guess : RowKey::kOther;
}

enum class ArgKey : uint8_t {
  kOther, kLayer, kPhase, kCorr, kBytes, kApi, kCopy, kComm, kStream, kModel, kConfig, kBucket
};
constexpr std::string_view kArgKeyNames[] = {"",    "layer", "phase",  "corr",  "bytes",  "api",
                                             "copy", "comm", "stream", "model", "config", "bucket"};

ArgKey ArgKeyOf(std::string_view key) {
  ArgKey guess = ArgKey::kOther;
  switch (key.size()) {
    case 3:
      guess = ArgKey::kApi;
      break;
    case 4:
      guess = key[2] == 'r' ? ArgKey::kCorr : key[2] == 'p' ? ArgKey::kCopy : ArgKey::kComm;
      break;
    case 5:
      guess = key[0] == 'l'   ? ArgKey::kLayer
              : key[0] == 'p' ? ArgKey::kPhase
              : key[0] == 'b' ? ArgKey::kBytes
                              : ArgKey::kModel;
      break;
    case 6:
      guess = key[0] == 's' ? ArgKey::kStream : key[0] == 'c' ? ArgKey::kConfig : ArgKey::kBucket;
      break;
  }
  return key == kArgKeyNames[static_cast<size_t>(guess)] ? guess : ArgKey::kOther;
}

// A string member that names an enum value, decoded as it arrives. The raw
// text is kept only when it names no value, for the error the row raises
// once it closes.
template <typename E>
struct NamedValue {
  bool present = false;
  std::optional<E> value;
  std::string unknown;

  void Decode(std::string_view text, std::optional<E> (*parse)(std::string_view)) {
    present = true;
    value = parse(text);
    if (!value.has_value()) {
      unknown.assign(text);
    }
  }
};

// Everything one trace-event object can carry; filled key by key, validated
// whole once the object closes (key order in the file does not matter).
struct Row {
  NamedValue<RowType> ph;
  std::string name;  // moved into the TraceEvent
  NamedValue<EventKind> cat;
  std::optional<int64_t> tid;
  std::optional<int64_t> ts_ns;
  std::optional<int64_t> dur_ns;
  // args members. An empty api/copy/comm string counts as absent.
  std::optional<int64_t> layer;
  NamedValue<Phase> phase;
  std::optional<int64_t> corr;
  std::optional<int64_t> bytes;
  NamedValue<ApiKind> api;
  NamedValue<MemcpyKind> copy;
  NamedValue<CommKind> comm;
  std::optional<int64_t> stream;
  std::optional<int64_t> bucket;
  std::string model;
  std::string config;
};

std::string Quoted(std::string_view text) {
  std::string out = "\"";
  out.append(text);
  out += '"';
  return out;
}

bool IsScalar(TokenKind kind) {
  return kind == TokenKind::kString || kind == TokenKind::kNumber || kind == TokenKind::kBool ||
         kind == TokenKind::kNull;
}

class ChromeImporter {
 public:
  ChromeImporter(std::istream& in, ChromeImportStats* stats) : tok_(in), stats_(stats) {}

  std::optional<Trace> Run(std::string* error) {
    bool ok = Parse();
    if (!ok) {
      if (error != nullptr) {
        *error = error_;
      }
      return std::nullopt;
    }
    return std::move(trace_);
  }

 private:
  bool Parse() {
    if (!ExpectNext(TokenKind::kBeginArray, "top-level value must be an array")) {
      return false;
    }
    while (true) {
      const Token& t = tok_.Next();
      if (t.kind == TokenKind::kEndArray) {
        break;
      }
      if (t.kind != TokenKind::kBeginObject) {
        return FailToken(t, "every trace row must be an object");
      }
      ++row_;
      if (!ParseRow()) {
        return false;
      }
    }
    return ExpectNext(TokenKind::kEnd, "trailing content after the trace array");
  }

  // The name of a key for error messages: known keys from the table, any
  // other key from a copy taken before its value overwrote the token.
  std::string_view KeyName(std::string_view known, const Token& t) {
    if (!known.empty()) {
      return known;
    }
    other_key_.assign(t.text);
    return other_key_;
  }

  bool ParseRow() {
    Row row;
    while (true) {
      const Token& t = tok_.Next();
      if (t.kind == TokenKind::kEndObject) {
        break;
      }
      if (t.kind != TokenKind::kKey) {
        return FailToken(t, "expected a member key");
      }
      const RowKey key = RowKeyOf(t.text);
      const std::string_view name = KeyName(kRowKeyNames[static_cast<size_t>(key)], t);
      const Token& v = tok_.Next();
      if (v.kind == TokenKind::kBeginObject) {
        if (key != RowKey::kArgs) {
          return Fail("unexpected object value for " + Quoted(name));
        }
        if (!ParseArgs(&row)) {
          return false;
        }
        continue;
      }
      if (!IsScalar(v.kind)) {
        return FailToken(v, "expected a scalar value for " + Quoted(name));
      }
      if (!SetRowMember(&row, key, name, v)) {
        return false;
      }
    }
    return FinishRow(&row);
  }

  bool ParseArgs(Row* row) {
    while (true) {
      const Token& t = tok_.Next();
      if (t.kind == TokenKind::kEndObject) {
        return true;
      }
      if (t.kind != TokenKind::kKey) {
        return FailToken(t, "expected an args key");
      }
      const ArgKey key = ArgKeyOf(t.text);
      const std::string_view name = KeyName(kArgKeyNames[static_cast<size_t>(key)], t);
      const Token& v = tok_.Next();
      if (!IsScalar(v.kind)) {
        return FailToken(v, "args values must be scalars (got a container for " +
                                Quoted(name) + ")");
      }
      if (!SetArgMember(row, key, name, v)) {
        return false;
      }
    }
  }

  bool SetRowMember(Row* row, RowKey key, std::string_view name, const Token& v) {
    switch (key) {
      case RowKey::kPh:
      case RowKey::kName:
      case RowKey::kCat:
      case RowKey::kS:
        if (v.kind != TokenKind::kString) {
          return Fail(Quoted(name) + " must be a string");
        }
        if (key == RowKey::kPh) {
          row->ph.Decode(v.text, RowTypeFromPh);
        } else if (key == RowKey::kName) {
          row->name = v.text;
        } else if (key == RowKey::kCat) {
          row->cat.Decode(v.text, KindFromCat);
        }
        return true;
      case RowKey::kTid:
        return ReadInt(v, name, &row->tid);
      case RowKey::kTs:
        return ReadUs(v, name, &row->ts_ns);
      case RowKey::kDur:
        return ReadUs(v, name, &row->dur_ns);
      case RowKey::kPid: {
        std::optional<int64_t> ignored;
        return ReadInt(v, name, &ignored);
      }
      case RowKey::kArgs:
      case RowKey::kOther:
        break;
    }
    return true;  // unknown scalar members are ignored (foreign tools add them)
  }

  bool SetArgMember(Row* row, ArgKey key, std::string_view name, const Token& v) {
    switch (key) {
      case ArgKey::kLayer:
        return ReadInt(v, name, &row->layer);
      case ArgKey::kCorr:
        return ReadInt(v, name, &row->corr);
      case ArgKey::kBytes:
        return ReadInt(v, name, &row->bytes);
      case ArgKey::kStream:
        return ReadInt(v, name, &row->stream);
      case ArgKey::kBucket:
        return ReadInt(v, name, &row->bucket);
      case ArgKey::kPhase:
      case ArgKey::kApi:
      case ArgKey::kCopy:
      case ArgKey::kComm:
      case ArgKey::kModel:
      case ArgKey::kConfig:
        if (v.kind != TokenKind::kString) {
          return Fail("args." + std::string(name) + " must be a string");
        }
        if (key == ArgKey::kPhase) {
          row->phase.Decode(v.text, PhaseFromArg);
        } else if (key == ArgKey::kApi) {
          DecodeUnlessEmpty(v.text, ApiFromArg, &row->api);
        } else if (key == ArgKey::kCopy) {
          DecodeUnlessEmpty(v.text, CopyFromArg, &row->copy);
        } else if (key == ArgKey::kComm) {
          DecodeUnlessEmpty(v.text, CommFromArg, &row->comm);
        } else if (key == ArgKey::kModel) {
          row->model = v.text;
        } else {
          row->config = v.text;
        }
        return true;
      case ArgKey::kOther:
        break;
    }
    return true;  // e.g. thread_name's args.name
  }

  template <typename E>
  static void DecodeUnlessEmpty(std::string_view text, std::optional<E> (*parse)(std::string_view),
                                NamedValue<E>* out) {
    if (text.empty()) {
      *out = NamedValue<E>();
    } else {
      out->Decode(text, parse);
    }
  }

  bool ReadInt(const Token& v, std::string_view key, std::optional<int64_t>* out) {
    if (v.kind != TokenKind::kNumber) {
      return Fail(Quoted(key) + " must be a number");
    }
    *out = ParseInt64(v.text);
    if (!out->has_value()) {
      return Fail(Quoted(key) + " must be an integer (got " + Quoted(v.text) + ")");
    }
    return true;
  }

  bool ReadUs(const Token& v, std::string_view key, std::optional<int64_t>* out) {
    if (v.kind != TokenKind::kNumber) {
      return Fail(Quoted(key) + " must be a number");
    }
    *out = ParseDecimalUsToNs(v.text);
    if (!out->has_value()) {
      return Fail(Quoted(key) + " is not exactly representable in ns (got " + Quoted(v.text) +
                  ")");
    }
    return true;
  }

  bool FinishRow(Row* row) {
    if (!row->ph.value.has_value()) {
      if (row->ph.unknown.empty()) {
        return Fail("row is missing \"ph\"");
      }
      return Fail("unsupported ph \"" + row->ph.unknown + "\"");
    }
    switch (*row->ph.value) {
      case RowType::kMetadata:
        return FinishMetadata(*row);
      case RowType::kComplete:
        return FinishComplete(row);
      case RowType::kInstant:
        return FinishInstant(row);
    }
    return false;
  }

  bool FinishMetadata(const Row& row) {
    if (row.name == "daydream_trace") {
      trace_.set_model_name(row.model);
      trace_.set_config(row.config);
      return true;
    }
    if (row.name == "daydream_gradient") {
      if (!row.layer || !row.bytes || !row.bucket) {
        return Fail("daydream_gradient needs args layer/bytes/bucket");
      }
      if (*row.bytes < 0) {
        return Fail("negative gradient bytes");
      }
      if (*row.layer < std::numeric_limits<int>::min() ||
          *row.layer > std::numeric_limits<int>::max() ||
          *row.bucket < std::numeric_limits<int>::min() ||
          *row.bucket > std::numeric_limits<int>::max()) {
        return Fail("gradient layer/bucket out of range");
      }
      GradientInfo g;
      g.layer_id = static_cast<int>(*row.layer);
      g.bytes = *row.bytes;
      g.bucket_id = static_cast<int>(*row.bucket);
      trace_.AddGradientInfo(g);
      ++stats_->gradients;
      return true;
    }
    ++stats_->skipped_rows;  // thread_name, process_name, foreign metadata
    return true;
  }

  bool FinishComplete(Row* row) {
    if (!row->cat.value.has_value()) {
      return Fail("unknown cat \"" + row->cat.unknown + "\"");
    }
    if (*row->cat.value == EventKind::kLayerMarker) {
      return Fail("layer markers are ph:\"i\" rows, not X");
    }
    if (!row->tid || !row->ts_ns || !row->dur_ns) {
      return Fail("X row needs tid/ts/dur");
    }
    TraceEvent e;
    e.kind = *row->cat.value;
    if (*row->ts_ns < 0 || *row->dur_ns < 0) {
      return Fail("negative ts/dur");
    }
    e.start = *row->ts_ns;
    e.duration = *row->dur_ns;
    if (!DecodeLane(*row->tid, &e)) {
      return false;
    }
    if (row->layer) {
      if (*row->layer < -1 || *row->layer > std::numeric_limits<int>::max()) {
        return Fail("bad args.layer");
      }
      e.layer_id = static_cast<int>(*row->layer);
    }
    if (row->phase.present) {
      if (!row->phase.value.has_value()) {
        return Fail("unknown args.phase \"" + row->phase.unknown + "\"");
      }
      e.phase = *row->phase.value;
    }
    if (row->corr) {
      if (*row->corr < 0) {
        return Fail("negative args.corr");
      }
      e.correlation_id = *row->corr;
    }
    if (row->bytes) {
      if (*row->bytes < 0) {
        return Fail("negative args.bytes");
      }
      e.bytes = *row->bytes;
    }
    if (row->api.present) {
      if (e.kind != EventKind::kRuntimeApi) {
        return Fail("args.api on a non-RuntimeApi row");
      }
      if (!row->api.value.has_value()) {
        return Fail("unknown args.api \"" + row->api.unknown + "\"");
      }
      e.api = *row->api.value;
    }
    if (row->copy.present) {
      if (e.kind != EventKind::kMemcpy) {
        return Fail("args.copy on a non-Memcpy row");
      }
      if (!row->copy.value.has_value()) {
        return Fail("unknown args.copy \"" + row->copy.unknown + "\"");
      }
      e.memcpy_kind = *row->copy.value;
    }
    if (row->comm.present) {
      if (e.kind != EventKind::kCommunication) {
        return Fail("args.comm on a non-Communication row");
      }
      if (!row->comm.value.has_value()) {
        return Fail("unknown args.comm \"" + row->comm.unknown + "\"");
      }
      e.comm_kind = *row->comm.value;
    }
    if (row->stream) {
      // Target stream of a CPU-side synchronization call (the exporter only
      // emits args.stream for CPU rows; GPU rows carry the stream in the tid).
      if (!e.is_cpu()) {
        return Fail("args.stream on a non-CPU row");
      }
      if (*row->stream < 0 || *row->stream > std::numeric_limits<int>::max()) {
        return Fail("bad args.stream");
      }
      e.stream_id = static_cast<int>(*row->stream);
    }
    e.name = std::move(row->name);
    trace_.Add(std::move(e));
    ++stats_->events;
    return true;
  }

  bool FinishInstant(Row* row) {
    if (!row->tid || !row->ts_ns) {
      return Fail("instant row needs tid/ts");
    }
    // "<name>/<phase>/<begin|end>"; the marker's own name may contain '/',
    // so the phase and edge are the LAST two segments.
    const std::string_view name = row->name;
    const size_t edge_cut = name.rfind('/');
    const size_t phase_cut = edge_cut == std::string_view::npos || edge_cut == 0
                                 ? std::string_view::npos
                                 : name.rfind('/', edge_cut - 1);
    if (edge_cut == std::string_view::npos || phase_cut == std::string_view::npos) {
      return Fail("instant name must be \"<name>/<phase>/<begin|end>\"");
    }
    const std::string_view edge = name.substr(edge_cut + 1);
    const std::string_view phase_name = name.substr(phase_cut + 1, edge_cut - phase_cut - 1);
    TraceEvent e;
    e.kind = EventKind::kLayerMarker;
    if (edge == "begin") {
      e.marker_begin = true;
    } else if (edge == "end") {
      e.marker_begin = false;
    } else {
      return Fail("instant name must end in /begin or /end");
    }
    const std::optional<Phase> phase = PhaseFromArg(phase_name);
    if (!phase.has_value()) {
      return Fail("unknown marker phase " + Quoted(phase_name));
    }
    e.phase = *phase;
    if (*row->ts_ns < 0) {
      return Fail("negative ts");
    }
    e.start = *row->ts_ns;
    e.duration = 0;
    if (*row->tid < 0 || *row->tid >= 1000) {
      return Fail("marker tid outside the CPU row band [0, 1000)");
    }
    e.thread_id = static_cast<int>(*row->tid);
    if (row->layer) {
      if (*row->layer < -1 || *row->layer > std::numeric_limits<int>::max()) {
        return Fail("bad args.layer");
      }
      e.layer_id = static_cast<int>(*row->layer);
    }
    row->name.resize(phase_cut);
    e.name = std::move(row->name);
    trace_.Add(std::move(e));
    ++stats_->events;
    return true;
  }

  // The exporter's RowTid bands: CPU thread = tid, GPU stream = 1000 + id,
  // comm channel = 2000 + id. The band must agree with the cat.
  bool DecodeLane(int64_t tid, TraceEvent* e) {
    if (e->is_cpu()) {
      if (tid < 0 || tid >= 1000) {
        return Fail("CPU row tid outside [0, 1000)");
      }
      e->thread_id = static_cast<int>(tid);
      return true;
    }
    if (e->is_gpu()) {
      if (tid < 1000 || tid >= 2000) {
        return Fail("GPU row tid outside [1000, 2000)");
      }
      e->stream_id = static_cast<int>(tid - 1000);
      return true;
    }
    if (tid < 2000 || tid - 2000 > std::numeric_limits<int>::max()) {
      return Fail("comm row tid below 2000");
    }
    e->channel_id = static_cast<int>(tid - 2000);
    return true;
  }

  bool ExpectNext(TokenKind kind, const std::string& message) {
    const Token& t = tok_.Next();
    if (t.kind == kind) {
      return true;
    }
    return FailToken(t, message);
  }

  // Tokenizer errors carry their own message; grammar surprises get ours.
  bool FailToken(const Token& t, const std::string& message) {
    return Fail(t.kind == TokenKind::kError ? t.text : message);
  }

  bool Fail(const std::string& message) {
    error_ = StrFormat("row %llu (offset %llu): %s", static_cast<unsigned long long>(row_),
                       static_cast<unsigned long long>(tok_.offset()), message.c_str());
    return false;
  }

  JsonStreamTokenizer tok_;
  std::string other_key_;  // text of the current unrecognized key
  ChromeImportStats* stats_;
  Trace trace_;
  std::string error_;
  uint64_t row_ = 0;
};

}  // namespace

std::optional<Trace> ImportChromeTrace(std::istream& in, std::string* error,
                                       ChromeImportStats* stats) {
  ChromeImportStats scratch;
  ChromeImporter importer(in, stats != nullptr ? stats : &scratch);
  return importer.Run(error);
}

std::optional<Trace> ImportChromeTraceFile(const std::string& path, std::string* error,
                                           ChromeImportStats* stats) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    if (error != nullptr) {
      *error = "cannot open " + path;
    }
    return std::nullopt;
  }
  return ImportChromeTrace(in, error, stats);
}

}  // namespace daydream
