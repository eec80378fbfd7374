// perfbench_harness — the benchmark's in-process side.
//
//   perfbench_harness gen <xmark|treebank> <bytes> <seed> <out.xml>
//       Writes a Table 1 profile document (data/generators.h).
//   perfbench_harness scan <doc.xml>
//       Prints the document's make-up: {"bytes","elements","texts","depth"}.
//   perfbench_harness trace --doc <doc.xml> [--pretok <doc.ptk>]
//       [--reps N] [--gcx] [--out-dir D] <id>=<query-file> ...
//       The traced run: times calls into each layer's public functions over
//       the document and prints one JSON object.
//
// With --pretok the workload's input is the token cache (the CLI streams
// that file), so the ladder replays it; without, the input is the text XML
// and the lexer feeds the engine. Either way the engine layer is measured
// the same way: token cache into a CountingSink, minus the bare replay.
//
// Every time is the median of --reps repetitions, in milliseconds. Spans are
// taken around whole calls, never per event, so the layers run as they do
// in the CLI; the only in-loop instrumentation is the tap pair of the
// "traced" end-to-end run, whose cost is reported as the tracing overhead.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "data/generators.h"
#include "gcx/gcx_engine.h"
#include "lower/lower.h"
#include "mft/optimize.h"
#include "service/query_service.h"
#include "stream/engine.h"
#include "translate/translate.h"
#include "xml/events.h"
#include "xml/pretok.h"
#include "xml/sax_parser.h"
#include "xquery/ast.h"

using namespace xqmft;

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Median wall time of `reps` calls to `fn`.
double TimeMs(int reps, const std::function<void()>& fn) {
  std::vector<double> samples;
  for (int i = 0; i < reps; ++i) {
    const Clock::time_point t = Clock::now();
    fn();
    samples.push_back(MsSince(t));
  }
  return Median(samples);
}

[[noreturn]] void Die(const std::string& what, const Status& st) {
  std::fprintf(stderr, "perfbench_harness: %s: %s\n", what.c_str(),
               st.ToString().c_str());
  std::exit(1);
}

// Builds the message only on failure: Check sits inside timed loops.
void Check(const Status& st, const std::string& who, const char* what) {
  if (!st.ok()) Die(who + ": " + what, st);
}

std::string ReadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench_harness: cannot open %s\n", path.c_str());
    std::exit(1);
  }
  std::string out;
  char buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

// A sink that serializes exactly like the CLI (FileSink) into a discarded
// stream, so the measured cost is the serializer's and not a disk's.
struct NullFile {
  NullFile() : f(std::fopen("/dev/null", "wb")) {
    if (f == nullptr) {
      std::fprintf(stderr, "perfbench_harness: cannot open /dev/null\n");
      std::exit(1);
    }
  }
  ~NullFile() { std::fclose(f); }
  std::FILE* f;
};

// Tap pair for the traced end-to-end run: counts events between the lexer
// (or replay) and the engine, and bytes between the engine and the sink.
class TapSource : public EventSource {
 public:
  explicit TapSource(EventSource* inner) : inner_(inner) {}
  Status Next(XmlEvent* event) override {
    ++events_;
    return inner_->Next(event);
  }
  std::size_t bytes_consumed() const override {
    return inner_->bytes_consumed();
  }
  void BindSymbols(SymbolTable* symbols) override {
    inner_->BindSymbols(symbols);
  }
  std::uint64_t events() const { return events_; }

 private:
  EventSource* inner_;
  std::uint64_t events_ = 0;
};

class TapSink : public OutputSink {
 public:
  explicit TapSink(OutputSink* inner) : inner_(inner) {}
  void StartElement(std::string_view name) override {
    bytes_ += name.size() + 2;
    inner_->StartElement(name);
  }
  void EndElement(std::string_view name) override {
    bytes_ += name.size() + 3;
    inner_->EndElement(name);
  }
  void Text(std::string_view content) override {
    bytes_ += XmlEscapedSize(content);
    inner_->Text(content);
  }
  std::uint64_t bytes() const { return bytes_; }

 private:
  OutputSink* inner_;
  std::uint64_t bytes_ = 0;
};

struct QueryTrace {
  std::string id;
  std::string text;
  std::shared_ptr<const CompiledPlan> plan;
  // Compile stages.
  double parse_ms = 0, translate_ms = 0, optimize_ms = 0, lower_ms = 0,
         compile_ms = 0;
  std::size_t rules = 0;
  std::string lowered;  // full | hybrid | table
  // Streaming ladder.
  double lex_ms = 0;     // text XML -> SaxParser events
  double replay_ms = 0;  // token cache -> PretokSource events
  double count_ms = 0;   // token cache -> engine -> CountingSink
  double serial_ms = 0;  // token cache -> engine -> serializing sink
  std::uint64_t output_bytes = 0;
  StreamStats stats;
  // End to end in process, from the workload's input; the traced run's
  // taps count the events the engine pulled and the bytes it emitted.
  double e2e_ms = 0, e2e_traced_ms = 0;
  std::uint64_t tap_events = 0, tap_bytes = 0;
  // Service layer: a cache-hit QueryService::Execute.
  double service_hit_ms = 0;
  // GCX reference (negative: not run).
  double gcx_ms = -1;
  std::size_t gcx_peak_bytes = 0;
};

struct Workload {
  std::string doc;
  std::string pretok_path;  // empty: the input is the text XML
  std::string pretok;       // token cache bytes (built in memory if absent)
  int reps = 3;
};

// Streams the workload's input (text XML or the token cache file) through
// `plan` into `sink`, as the CLI does. With `tap_events`, a TapSource sits
// between the event source and the engine and its count lands there.
Status StreamInput(const Workload& w, const CompiledPlan& plan,
                   OutputSink* sink, std::uint64_t* tap_events = nullptr) {
  std::unique_ptr<EventSource> source;
  std::unique_ptr<ByteSource> bytes;
  if (!w.pretok_path.empty()) {
    source = std::make_unique<PretokSource>(w.pretok);
  } else {
    Result<std::unique_ptr<ByteSource>> src = MmapSource::Open(w.doc);
    if (!src.ok()) return src.status();
    bytes = std::move(src).value();
    if (tap_events == nullptr) return plan.Stream(bytes.get(), sink);
    source = std::make_unique<SaxParser>(bytes.get(),
                                         plan.options().stream.sax);
  }
  if (tap_events == nullptr) return plan.StreamEvents(source.get(), sink);
  TapSource tapped(source.get());
  const Status st = plan.StreamEvents(&tapped, sink);
  *tap_events = tapped.events();
  return st;
}

void TraceCompile(QueryTrace* q, int reps) {
  const int creps = std::max(reps, 15);
  q->parse_ms = TimeMs(creps, [&] {
    Result<std::unique_ptr<QueryExpr>> e = ParseQuery(q->text);
    Check(e.status(), q->id, "parse");
    Check(ValidateQuery(*e.value()), q->id, "validate");
  });
  Result<std::unique_ptr<QueryExpr>> expr = ParseQuery(q->text);
  Check(expr.status(), q->id, "parse");
  q->translate_ms = TimeMs(creps, [&] {
    Check(TranslateQuery(*expr.value()).status(), q->id, "translate");
  });
  Result<Mft> raw = TranslateQuery(*expr.value());
  Check(raw.status(), q->id, "translate");
  q->optimize_ms = TimeMs(creps, [&] { OptimizeMft(raw.value()); });
  std::vector<double> lower_samples;
  for (int i = 0; i < creps; ++i) {
    Mft fresh = OptimizeMft(raw.value());  // dispatch not yet compiled
    const Clock::time_point t = Clock::now();
    Result<lower::LoweredPlan> lp = lower::LowerMft(fresh);
    lower_samples.push_back(MsSince(t));
    (void)lp;
  }
  q->lower_ms = Median(lower_samples);
  q->compile_ms = TimeMs(creps, [&] {
    Check(CompiledPlan::Compile(q->text).status(), q->id, "compile");
  });
  Result<std::shared_ptr<const CompiledPlan>> plan =
      CompiledPlan::Compile(q->text);
  Check(plan.status(), q->id, "compile");
  q->plan = plan.value();
  q->rules = ComputeStats(q->plan->mft()).rules;
  const lower::LoweredPlan* lp = lower::GetLoweredPlan(q->plan->mft());
  q->lowered = lp == nullptr ? "table" : (lp->hybrid ? "hybrid" : "full");
}

// Lexes the whole document (SaxParser::Next to the end); returns ms.
double LexOnce(const Workload& w, std::uint64_t* events, std::size_t* bytes) {
  const Clock::time_point t = Clock::now();
  Result<std::unique_ptr<ByteSource>> src = MmapSource::Open(w.doc);
  Check(src.status(), w.doc, "open");
  SaxParser parser(src.value().get());
  XmlEvent ev;
  std::uint64_t n = 0;
  do {
    const Status st = parser.Next(&ev);
    if (!st.ok()) Die("lex " + w.doc, st);
    ++n;
  } while (ev.type != XmlEventType::kEndOfDocument);
  *events = n;
  *bytes = parser.bytes_consumed();
  return MsSince(t);
}

// Replays the whole token cache (PretokSource::Next to the end); returns ms.
double ReplayOnce(const Workload& w) {
  const Clock::time_point t = Clock::now();
  PretokSource events(w.pretok);
  XmlEvent ev;
  do {
    const Status st = events.Next(&ev);
    if (!st.ok()) Die("replay", st);
  } while (ev.type != XmlEventType::kEndOfDocument);
  return MsSince(t);
}

// The streaming ladder of one query. Each repetition runs every rung back
// to back, so the subtractions (engine = count - replay, sink = serial -
// count) compare runs made under the same machine conditions.
void TraceStream(const Workload& w, QueryTrace* q, const std::string& out_dir,
                 std::vector<double>* lex_all, std::vector<double>* replay_all,
                 std::uint64_t* events, std::size_t* doc_bytes) {
  const CompiledPlan& plan = *q->plan;
  NullFile null;
  std::vector<double> lex, replay, count, serial, e2e, traced;
  for (int i = 0; i < w.reps; ++i) {
    lex.push_back(LexOnce(w, events, doc_bytes));
    replay.push_back(ReplayOnce(w));
    count.push_back(TimeMs(1, [&] {
      PretokSource events_src(w.pretok);
      CountingSink sink;
      StreamStats stats;
      Check(plan.StreamEvents(&events_src, &sink, &stats), q->id,
            "count run");
      q->stats = stats;
      q->output_bytes = sink.bytes();
    }));
    serial.push_back(TimeMs(1, [&] {
      PretokSource events_src(w.pretok);
      FileSink sink(null.f);
      Check(plan.StreamEvents(&events_src, &sink), q->id, "serializing run");
      sink.Flush();
    }));
    e2e.push_back(TimeMs(1, [&] {
      FileSink sink(null.f);
      Check(StreamInput(w, plan, &sink), q->id, "end to end");
      sink.Flush();
    }));
    traced.push_back(TimeMs(1, [&] {
      FileSink file(null.f);
      TapSink sink(&file);
      Check(StreamInput(w, plan, &sink, &q->tap_events), q->id,
            "traced end to end");
      file.Flush();
      q->tap_bytes = sink.bytes();
    }));
  }
  q->lex_ms = Median(lex);
  q->replay_ms = Median(replay);
  q->count_ms = Median(count);
  q->serial_ms = Median(serial);
  q->e2e_ms = Median(e2e);
  q->e2e_traced_ms = Median(traced);
  lex_all->insert(lex_all->end(), lex.begin(), lex.end());
  replay_all->insert(replay_all->end(), replay.begin(), replay.end());
  if (!out_dir.empty()) {
    // One untimed run into a file, for the reference check in run.py.
    const std::string path = out_dir + "/" + q->id + ".out";
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) {
      std::fprintf(stderr, "perfbench_harness: cannot write %s\n",
                   path.c_str());
      std::exit(1);
    }
    {
      FileSink sink(f);
      Check(StreamInput(w, plan, &sink), q->id, "checked run");
    }
    std::fclose(f);
  }
}

void TraceGcx(const Workload& w, QueryTrace* q) {
  Result<std::unique_ptr<QueryExpr>> expr = ParseQuery(q->text);
  Check(expr.status(), q->id, "parse");
  if (!GcxSupports(*expr.value()).ok()) return;
  Result<std::unique_ptr<GcxQuery>> gcx = GcxQuery::Compile(*expr.value());
  Check(gcx.status(), q->id, "GCX compile");
  q->gcx_ms = TimeMs(w.reps, [&] {
    Result<std::unique_ptr<ByteSource>> src = MmapSource::Open(w.doc);
    Check(src.status(), w.doc, "open");
    CountingSink sink;
    GcxStats stats;
    Check(gcx.value()->Run(src.value().get(), &sink, {}, &stats),
          q->id, "GCX run");
    q->gcx_peak_bytes = stats.peak_bytes;
  });
}

void AppendKv(std::string* out, const char* key, double v) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "\"%s\":%.6f,", key, v);
  *out += buf;
}

void AppendKv(std::string* out, const char* key, std::uint64_t v) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "\"%s\":%llu,", key,
                static_cast<unsigned long long>(v));
  *out += buf;
}

void CloseObject(std::string* out) {
  if (!out->empty() && out->back() == ',') out->pop_back();
  *out += '}';
}

int Trace(int argc, char** argv) {
  Workload w;
  bool gcx = false;
  std::string out_dir;
  std::vector<QueryTrace> queries;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--doc" && i + 1 < argc) {
      w.doc = argv[++i];
    } else if (a == "--pretok" && i + 1 < argc) {
      w.pretok_path = argv[++i];
    } else if (a == "--reps" && i + 1 < argc) {
      w.reps = std::max(1, std::atoi(argv[++i]));
    } else if (a == "--gcx") {
      gcx = true;
    } else if (a == "--out-dir" && i + 1 < argc) {
      out_dir = argv[++i];
    } else if (a.find('=') != std::string::npos) {
      QueryTrace q;
      q.id = a.substr(0, a.find('='));
      q.text = ReadFile(a.substr(a.find('=') + 1));
      queries.push_back(std::move(q));
    } else {
      std::fprintf(stderr, "perfbench_harness trace: bad argument %s\n",
                   a.c_str());
      return 2;
    }
  }
  if (w.doc.empty() || queries.empty()) {
    std::fprintf(stderr, "perfbench_harness trace: need --doc and queries\n");
    return 2;
  }

  if (!w.pretok_path.empty()) {
    w.pretok = ReadFile(w.pretok_path);
  } else {
    Result<std::unique_ptr<ByteSource>> src = MmapSource::Open(w.doc);
    Check(src.status(), w.doc, "open");
    Check(PretokenizeXml(src.value().get(), SaxOptions{}, &w.pretok),
          w.doc, "pretokenize");
  }
  std::size_t doc_bytes = 0;
  std::uint64_t events = 0;
  std::vector<double> lex_all, replay_all;
  for (QueryTrace& q : queries) {
    TraceCompile(&q, w.reps);
    TraceStream(w, &q, out_dir, &lex_all, &replay_all, &events, &doc_bytes);
    if (gcx) TraceGcx(w, &q);
  }
  const double lex_ms = Median(lex_all);
  const double replay_ms = Median(replay_all);

  // Multi-query: the same plans in one shared pass vs one pass each.
  std::vector<const CompiledPlan*> plans;
  for (const QueryTrace& q : queries) plans.push_back(q.plan.get());
  MultiQueryStats multi;
  std::uint64_t events_fed = 0;
  NullFile null;
  const double shared_ms = TimeMs(w.reps, [&] {
    std::vector<std::unique_ptr<FileSink>> owned;
    std::vector<OutputSink*> sinks;
    for (std::size_t i = 0; i < plans.size(); ++i) {
      owned.push_back(std::make_unique<FileSink>(null.f));
      sinks.push_back(owned.back().get());
    }
    std::vector<MultiPlanResult> results;
    if (!w.pretok_path.empty()) {
      PretokSource src(w.pretok);
      Check(StreamAllTransformEvents(plans, &src, sinks, {}, &results, &multi),
            "multiquery", "shared pass");
    } else {
      Result<std::unique_ptr<ByteSource>> src = MmapSource::Open(w.doc);
      Check(src.status(), w.doc, "open");
      Check(StreamAllTransform(plans, src.value().get(), sinks, {}, &results,
                               &multi),
            "multiquery", "shared pass");
    }
    events_fed = 0;
    for (const MultiPlanResult& r : results) {
      Check(r.status, "multiquery", "shared pass member");
      events_fed += r.events_fed;
    }
  });

  // Service layer: a fresh QueryService, one miss then hits per query.
  QueryService service;
  for (QueryTrace& q : queries) {
    ServiceRequest req;
    req.query = q.text;
    req.inputs.push_back(w.pretok_path.empty()
                             ? ParallelInput::XmlFile(w.doc)
                             : ParallelInput::PretokFile(w.pretok_path));
    {
      FileSink sink(null.f);  // the miss: compiles and caches the plan
      Check(service.Execute(req, &sink), q.id, "service miss");
    }
    q.service_hit_ms = TimeMs(w.reps, [&] {
      FileSink sink(null.f);
      Check(service.Execute(req, &sink), q.id, "service hit");
    });
  }
  const QueryCacheStats cache = service.cache()->stats();

  double separate_ms = 0;
  for (const QueryTrace& q : queries) separate_ms += q.e2e_ms;

  std::string out = "{\"doc\":{";
  AppendKv(&out, "bytes", static_cast<std::uint64_t>(doc_bytes));
  AppendKv(&out, "events", events);
  AppendKv(&out, "lex_ms", lex_ms);
  AppendKv(&out, "replay_ms", replay_ms);
  AppendKv(&out, "pretok_bytes", static_cast<std::uint64_t>(w.pretok.size()));
  CloseObject(&out);
  out += ",\"multi\":{";
  AppendKv(&out, "shared_pass_ms", shared_ms);
  AppendKv(&out, "separate_ms", separate_ms);
  AppendKv(&out, "events_total", multi.events_total);
  AppendKv(&out, "events_skipped", multi.events_skipped);
  AppendKv(&out, "events_fed", events_fed);
  CloseObject(&out);
  out += ",\"service\":{";
  AppendKv(&out, "cache_hits", cache.hits);
  AppendKv(&out, "cache_misses", cache.misses);
  CloseObject(&out);
  out += ",\"queries\":{";
  for (const QueryTrace& q : queries) {
    out += "\"" + q.id + "\":{\"lowered\":\"" + q.lowered + "\",";
    AppendKv(&out, "parse_ms", q.parse_ms);
    AppendKv(&out, "translate_ms", q.translate_ms);
    AppendKv(&out, "optimize_ms", q.optimize_ms);
    AppendKv(&out, "lower_ms", q.lower_ms);
    AppendKv(&out, "compile_ms", q.compile_ms);
    AppendKv(&out, "rules", static_cast<std::uint64_t>(q.rules));
    AppendKv(&out, "lex_ms", q.lex_ms);
    AppendKv(&out, "replay_ms", q.replay_ms);
    AppendKv(&out, "count_ms", q.count_ms);
    AppendKv(&out, "serial_ms", q.serial_ms);
    AppendKv(&out, "output_bytes", q.output_bytes);
    AppendKv(&out, "rule_applications", q.stats.rule_applications);
    AppendKv(&out, "cells_arena", q.stats.cells_arena);
    AppendKv(&out, "cells_refcounted", q.stats.cells_created);
    AppendKv(&out, "exprs_created", q.stats.exprs_created);
    AppendKv(&out, "bridge_runs", q.stats.bridge_runs);
    AppendKv(&out, "peak_tracked_bytes",
             static_cast<std::uint64_t>(q.stats.peak_bytes));
    AppendKv(&out, "bytes_in_at_first_output",
             static_cast<std::uint64_t>(q.stats.bytes_in_at_first_output));
    AppendKv(&out, "e2e_ms", q.e2e_ms);
    AppendKv(&out, "e2e_traced_ms", q.e2e_traced_ms);
    AppendKv(&out, "tap_events", q.tap_events);
    AppendKv(&out, "tap_bytes", q.tap_bytes);
    AppendKv(&out, "service_hit_ms", q.service_hit_ms);
    AppendKv(&out, "gcx_ms", q.gcx_ms);
    AppendKv(&out, "gcx_peak_bytes",
             static_cast<std::uint64_t>(q.gcx_peak_bytes));
    CloseObject(&out);
    out += ',';
  }
  if (out.back() == ',') out.pop_back();
  out += "}}";
  std::printf("%s\n", out.c_str());
  return 0;
}

int Gen(int argc, char** argv) {
  if (argc != 6) {
    std::fprintf(stderr,
                 "usage: perfbench_harness gen <xmark|treebank> <bytes> "
                 "<seed> <out>\n");
    return 2;
  }
  const std::string kind = argv[2];
  if (kind != "xmark" && kind != "treebank") {
    std::fprintf(stderr, "perfbench_harness gen: unknown kind %s\n",
                 kind.c_str());
    return 2;
  }
  std::FILE* f = std::fopen(argv[5], "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench_harness gen: cannot write %s\n", argv[5]);
    return 1;
  }
  Status st = GenerateDataset(
      kind == "xmark" ? DatasetKind::kXmark : DatasetKind::kTreebank,
      std::strtoull(argv[3], nullptr, 10), std::strtoull(argv[4], nullptr, 10),
      f);
  if (std::fclose(f) != 0 && st.ok()) st = Status::Internal("short write");
  Check(st, argv[5], "generate");
  return 0;
}

int Scan(int argc, char** argv) {
  if (argc != 3) {
    std::fprintf(stderr, "usage: perfbench_harness scan <doc.xml>\n");
    return 2;
  }
  Result<DatasetStats> s = ScanDatasetFile(argv[2]);
  Check(s.status(), argv[2], "scan");
  std::printf("{\"bytes\":%zu,\"elements\":%zu,\"texts\":%zu,\"depth\":%zu}\n",
              s.value().bytes, s.value().elements, s.value().texts,
              s.value().depth);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string cmd = argc > 1 ? argv[1] : "";
  if (cmd == "gen") return Gen(argc, argv);
  if (cmd == "scan") return Scan(argc, argv);
  if (cmd == "trace") return Trace(argc, argv);
  std::fprintf(stderr,
               "usage: perfbench_harness gen|scan|trace ... "
               "(see harness.cc)\n");
  return 2;
}
