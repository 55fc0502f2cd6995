// lor_bench smoke test: every workload at --scale=0.02. Checks that the
// decorated deployment simulates exactly what the stock one does, that
// the CLI rejects bad input, that traces are well formed, and that the
// printed metric names match BENCHMARK.json.

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <bit>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "workloads.h"

namespace lor {
namespace bench {
namespace {

constexpr double kScale = 0.02;

// -- A minimal JSON reader (objects, arrays, strings, numbers, literals).

struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Json> items;
  std::vector<std::pair<std::string, Json>> fields;

  const Json* Find(const std::string& key) const {
    for (const auto& [k, v] : fields) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonReader {
 public:
  explicit JsonReader(const std::string& text) : s_(text) {}

  /// Parses the whole text as one value.
  bool Parse(Json* out) {
    if (!Value(out)) return false;
    Space();
    return i_ == s_.size();
  }

 private:
  void Space() {
    while (i_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[i_]))) {
      ++i_;
    }
  }
  bool Eat(char c) {
    Space();
    if (i_ < s_.size() && s_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }
  bool Literal(const char* word) {
    const std::string w = word;
    if (s_.compare(i_, w.size(), w) != 0) return false;
    i_ += w.size();
    return true;
  }
  bool String(std::string* out) {
    if (!Eat('"')) return false;
    while (i_ < s_.size() && s_[i_] != '"') {
      if (s_[i_] == '\\') {
        if (++i_ >= s_.size()) return false;
        const char c = s_[i_];
        if (c == 'u') return false;  // No \u escapes in our files.
        out->push_back(c == 'n' ? '\n' : c == 't' ? '\t' : c);
      } else {
        out->push_back(s_[i_]);
      }
      ++i_;
    }
    return i_++ < s_.size();
  }
  bool Value(Json* out) {
    Space();
    if (i_ >= s_.size()) return false;
    const char c = s_[i_];
    if (c == '{') {
      out->type = Json::Type::kObject;
      ++i_;
      if (Eat('}')) return true;
      do {
        std::string key;
        Json value;
        if (!String(&key) || !Eat(':') || !Value(&value)) return false;
        out->fields.emplace_back(std::move(key), std::move(value));
      } while (Eat(','));
      return Eat('}');
    }
    if (c == '[') {
      out->type = Json::Type::kArray;
      ++i_;
      if (Eat(']')) return true;
      do {
        Json value;
        if (!Value(&value)) return false;
        out->items.push_back(std::move(value));
      } while (Eat(','));
      return Eat(']');
    }
    if (c == '"') {
      out->type = Json::Type::kString;
      return String(&out->string);
    }
    for (const bool b : {true, false}) {
      if (Literal(b ? "true" : "false")) {
        out->type = Json::Type::kBool;
        out->boolean = b;
        return true;
      }
    }
    if (Literal("null")) return true;
    const char* begin = s_.c_str() + i_;
    char* end = nullptr;
    out->number = std::strtod(begin, &end);
    if (end == begin) return false;
    out->type = Json::Type::kNumber;
    i_ += static_cast<size_t>(end - begin);
    return true;
  }

  const std::string& s_;
  size_t i_ = 0;
};

Json ParseJson(const std::string& text) {
  Json json;
  EXPECT_TRUE(JsonReader(text).Parse(&json)) << text.substr(0, 200);
  return json;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// -- Running the binary -------------------------------------------------

struct Output {
  int exit_code = -1;
  std::string stdout_text;
};

Output RunBench(const std::string& args) {
  const std::string out_path = std::string(LOR_BENCH_TEST_DIR) + "/out.txt";
  const std::string cmd = std::string("'") + LOR_BENCH_BINARY + "' " + args +
                          " > '" + out_path + "' 2>/dev/null";
  const int status = std::system(cmd.c_str());
  Output out;
  out.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  out.stdout_text = ReadFile(out_path);
  return out;
}

/// `name value unit` lines (the metrics), by name -> (count, unit).
std::map<std::string, std::pair<int, std::string>> MetricLines(
    const std::string& text) {
  std::map<std::string, std::pair<int, std::string>> metrics;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#' || line[0] == '{') continue;
    std::istringstream fields(line);
    std::string name, value, unit, extra;
    fields >> name >> value >> unit;
    EXPECT_FALSE(unit.empty() || (fields >> extra)) << line;
    auto& entry = metrics[name];
    ++entry.first;
    entry.second = unit;
  }
  return metrics;
}

Json LastLineJson(const std::string& text) {
  const size_t end = text.find_last_not_of('\n');
  const size_t start = text.rfind('\n', end);
  return ParseJson(
      text.substr(start == std::string::npos ? 0 : start + 1, end - start));
}

bool ValidName(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  for (const char c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' &&
        c != '.' && c != '-') {
      return false;
    }
  }
  return true;
}

// -- Deployment parity --------------------------------------------------

TEST(LorBenchDeployment, DecoratedDeploymentSimulatesLikeStock) {
  for (const Workload& w : Workloads()) {
    for (const Backend backend : {Backend::kFilesystem, Backend::kDatabase}) {
      SCOPED_TRACE(std::string(w.name) +
                   (backend == Backend::kFilesystem ? " fs" : " db"));
      RunConfig config;
      config.workload = &w;
      config.scale = kScale;
      config.deployment = Deployment::kStock;
      Result<BackendRun> stock = RunBackend(backend, config);
      config.deployment = Deployment::kTimed;
      Result<BackendRun> counted = RunBackend(backend, config);
      SpanBudget spans(1'000'000);
      config.timing = true;
      config.spans = &spans;
      Result<BackendRun> traced = RunBackend(backend, config);
      ASSERT_TRUE(stock.ok() && counted.ok() && traced.ok());

      for (const BackendRun* run : {&*stock, &*counted, &*traced}) {
        EXPECT_TRUE(run->gate_failures.empty()) << run->gate_failures.front();
        EXPECT_EQ(run->get_samples, stock->get_samples);
      }
      EXPECT_GT(counted->calls, 0u);
      EXPECT_EQ(counted->calls, traced->calls);
      for (const BackendRun* run : {&*counted, &*traced}) {
        std::map<std::string, double> by_name;
        for (const Metric& m : run->metrics) by_name[m.name] = m.value;
        for (const Metric& m : stock->metrics) {
          if (m.kind != MetricKind::kSim) continue;
          ASSERT_TRUE(by_name.count(m.name)) << m.name;
          EXPECT_EQ(std::bit_cast<uint64_t>(by_name[m.name]),
                    std::bit_cast<uint64_t>(m.value))
              << m.name << ": " << by_name[m.name] << " vs " << m.value;
        }
      }
    }
  }
}

// -- CLI ----------------------------------------------------------------

TEST(LorBenchCli, BadFlagsExitTwoWithoutAResult) {
  const char* bad[] = {
      "",
      "--workload=nope",
      "--workload=aged_10mb --seed=",
      "--workload=aged_10mb --seed=abc",
      "--workload=aged_10mb --seed=12x",
      "--workload=aged_10mb --seed=-1",
      "--workload=aged_10mb --seed=99999999999999999999999",
      "--workload=aged_10mb --bogus=1",
      "--workload=aged_10mb --scale=0",
      "--workload=aged_10mb --scale=2",
      "--workload=aged_10mb --scale=nan",
      "--workload=aged_10mb --seconds=-1",
      "--workload=aged_10mb --trace=",
      "--workload aged_10mb",
      "aged_10mb",
  };
  for (const char* args : bad) {
    const Output out = RunBench(args);
    EXPECT_EQ(out.exit_code, 2) << args;
    EXPECT_TRUE(out.stdout_text.empty()) << args;
  }
}

// -- Names and traces ---------------------------------------------------

struct Spec {
  std::map<std::string, std::string> end_to_end;  ///< name -> unit
  std::map<std::string, std::string> per_layer;
  std::vector<std::pair<std::string, std::string>> workloads;  ///< name, why
};

Spec ReadSpec() {
  const Json json = ParseJson(ReadFile(LOR_BENCH_SPEC));
  Spec spec;
  for (const char* key : {"end_to_end", "per_layer"}) {
    const Json* list = json.Find(key);
    EXPECT_NE(list, nullptr) << key;
    if (list == nullptr) continue;
    for (const Json& m : list->items) {
      auto& dst = std::string(key) == "end_to_end" ? spec.end_to_end
                                                   : spec.per_layer;
      EXPECT_TRUE(dst.emplace(m.Find("name")->string, m.Find("unit")->string)
                      .second)
          << "duplicate " << m.Find("name")->string;
    }
  }
  for (const Json& w : json.Find("workloads")->items) {
    spec.workloads.emplace_back(w.Find("name")->string, w.Find("why")->string);
  }
  return spec;
}

/// Names of the metrics printed only by traced runs.
std::set<std::string> TracedOnlyNames() {
  std::set<std::string> names;
  for (const Backend backend : {Backend::kFilesystem, Backend::kDatabase}) {
    RunConfig config;
    config.workload = &Workloads()[0];
    config.scale = kScale;
    config.timing = true;
    Result<BackendRun> run = RunBackend(backend, config);
    EXPECT_TRUE(run.ok());
    for (const Metric& m : run->metrics) {
      if (m.group == MetricGroup::kLayerTraced) names.insert(m.name);
    }
  }
  return names;
}

TEST(LorBenchNames, WorkloadsMatchBenchmarkJson) {
  const Spec spec = ReadSpec();
  ASSERT_EQ(spec.workloads.size(), Workloads().size());
  for (size_t i = 0; i < spec.workloads.size(); ++i) {
    EXPECT_EQ(spec.workloads[i].first, Workloads()[i].name);
    EXPECT_EQ(spec.workloads[i].second, Workloads()[i].why);
  }
}

/// Checks one run's printed names and result line against the spec.
void CheckNames(const Spec& spec, const std::set<std::string>& traced_only,
                const Output& out, bool traced) {
  EXPECT_EQ(out.exit_code, 0);
  const auto printed = MetricLines(out.stdout_text);
  for (const auto& [name, entry] : printed) {
    EXPECT_TRUE(ValidName(name)) << name;
    EXPECT_EQ(entry.first, 1) << name << " printed more than once";
    const bool e2e = spec.end_to_end.count(name) > 0;
    const bool layer = spec.per_layer.count(name) > 0;
    EXPECT_TRUE(e2e || layer) << name << " is not in BENCHMARK.json";
    EXPECT_EQ(entry.second, e2e ? spec.end_to_end.at(name)
                                : layer ? spec.per_layer.at(name) : "")
        << name;
    if (!traced) {
      EXPECT_EQ(traced_only.count(name), 0u) << name;
    }
  }
  for (const auto* list : {&spec.end_to_end, &spec.per_layer}) {
    for (const auto& [name, unit] : *list) {
      const bool expected =
          traced || list == &spec.end_to_end || traced_only.count(name) == 0;
      EXPECT_EQ(printed.count(name), expected ? 1u : 0u) << name;
    }
  }
  const Json result = LastLineJson(out.stdout_text);
  ASSERT_EQ(result.fields.size(), 4u);
  EXPECT_TRUE(result.Find("correct")->boolean);
  EXPECT_GE(result.Find("attempted")->number, 1.0);
  EXPECT_EQ(result.Find("failed")->number, 0.0);
  const auto& wanted = traced ? spec.per_layer : spec.end_to_end;
  const Json* metrics = result.Find("metrics");
  EXPECT_EQ(metrics->fields.size(), wanted.size());
  for (const auto& [name, value] : metrics->fields) {
    ASSERT_TRUE(wanted.count(name)) << name;
    EXPECT_EQ(value.Find("unit")->string, wanted.at(name)) << name;
    EXPECT_EQ(value.Find("value")->type, Json::Type::kNumber) << name;
  }
}

/// Checks a Chrome trace: parent ids resolve, children nest inside their
/// parents, self times are non-negative and add up to each phase span.
void CheckTrace(const std::string& path) {
  const Json trace = ParseJson(ReadFile(path));
  const Json* events = trace.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  struct Event {
    std::string name;
    double ts, dur;
    int pid, tid;
    uint64_t parent;
    double children = 0.0;
  };
  std::map<uint64_t, Event> spans;
  for (const Json& e : events->items) {
    if (e.Find("ph")->string != "X") continue;
    const Json* args = e.Find("args");
    const uint64_t id = static_cast<uint64_t>(args->Find("id")->number);
    EXPECT_TRUE(spans
                    .emplace(id, Event{e.Find("name")->string,
                                       e.Find("ts")->number,
                                       e.Find("dur")->number,
                                       static_cast<int>(e.Find("pid")->number),
                                       static_cast<int>(e.Find("tid")->number),
                                       static_cast<uint64_t>(
                                           args->Find("parent")->number)})
                    .second)
        << "duplicate id " << id;
  }
  ASSERT_FALSE(spans.empty());
  constexpr double kTick = 1e-3;  // One ns, in the trace's microseconds.
  std::set<std::string> layers;
  for (auto& [id, span] : spans) {
    layers.insert(span.name.substr(0, span.name.find('.')));
    if (span.parent == 0) {
      EXPECT_EQ(span.name.rfind("workload.", 0), 0u) << span.name;
      continue;
    }
    auto parent = spans.find(span.parent);
    ASSERT_NE(parent, spans.end()) << "unresolved parent of " << id;
    Event& p = parent->second;
    EXPECT_EQ(p.pid, span.pid);
    EXPECT_EQ(p.tid, span.tid);
    EXPECT_GE(span.ts, p.ts - kTick) << span.name;
    EXPECT_LE(span.ts + span.dur, p.ts + p.dur + kTick) << span.name;
    p.children += span.dur;
  }
  EXPECT_TRUE(layers.count("workload") && layers.count("core") &&
              layers.count("alloc"));
  // Self time per span, summed per phase subtree.
  std::map<uint64_t, double> phase_self;
  for (const auto& [id, span] : spans) {
    const double self = span.dur - span.children;
    EXPECT_GE(self, -kTick) << span.name;
    uint64_t root = id;
    while (spans.at(root).parent != 0) root = spans.at(root).parent;
    phase_self[root] += self;
  }
  for (const auto& [root, self] : phase_self) {
    const double dur = spans.at(root).dur;
    EXPECT_NEAR(self, dur, 0.01 * dur + kTick) << spans.at(root).name;
  }
}

TEST(LorBenchNames, EveryWorkloadPrintsExactlyTheListedMetrics) {
  const Spec spec = ReadSpec();
  const std::set<std::string> traced_only = TracedOnlyNames();
  ASSERT_FALSE(traced_only.empty());
  for (const Workload& w : Workloads()) {
    SCOPED_TRACE(w.name);
    const std::string args = std::string("--workload=") + w.name +
                             " --seed=42 --scale=0.02";
    CheckNames(spec, traced_only, RunBench(args), /*traced=*/false);
    const std::string trace =
        std::string(LOR_BENCH_TEST_DIR) + "/trace-" + w.name + ".json";
    std::remove(trace.c_str());
    CheckNames(spec, traced_only, RunBench(args + " --trace=" + trace),
               /*traced=*/true);
    CheckTrace(trace);
  }
}

}  // namespace
}  // namespace bench
}  // namespace lor
