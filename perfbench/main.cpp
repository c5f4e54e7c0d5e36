// srbb_perfbench: one measurement per process, printed as one JSON line.
//
//   srbb_perfbench --workload fifa_srbb --seed 1 --mode setup --reps 5
//                  [--min-seconds 2]
//       times make_inputs (the runner's own set-up) `reps` times, and more
//       until `min-seconds` have passed
//   srbb_perfbench --workload fifa_srbb --seed 1 --mode run [--traced]
//       one diablo::run_experiment call, optionally with a TraceSink attached
//   srbb_perfbench --workload fifa_srbb --seed 1 --mode replay
//                  --block-txs B --superblock-txs S
//       the host-time layer replay (replay.hpp)
//
// run.py drives these modes, checks the outputs and reduces them to the
// benchmark's metrics; the arithmetic lives there (stats.py).
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "inputs.hpp"
#include "json.hpp"
#include "replay.hpp"

using namespace srbb;
using perfbench::JsonObject;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

std::string histogram_json(const obs::HistogramSnapshot& h) {
  return JsonObject{}
      .counts("edges", h.edges)
      .counts("counts", h.counts)
      .count("count", h.count)
      .count("min", h.min)
      .count("max", h.max)
      .str();
}

std::string result_json(const diablo::RunResult& r) {
  return JsonObject{}
      .count("sent", r.sent)
      .count("committed", r.committed)
      .num("commit_pct", r.commit_pct)
      .num("throughput_tps", r.throughput_tps)
      .num("avg_latency_s", r.avg_latency_s)
      .num("p50_latency_s", r.p50_latency_s)
      .num("p95_latency_s", r.p95_latency_s)
      .num("max_latency_s", r.max_latency_s)
      .count("eager_validations", r.eager_validations)
      .count("gossip_tx_messages", r.gossip_tx_messages)
      .count("network_messages", r.network_messages)
      .count("network_bytes", r.network_bytes)
      .count("pool_drops", r.pool_drops)
      .count("invalid_discarded", r.invalid_discarded)
      .count("crashed_nodes", r.crashed_nodes)
      .count("slash_events", r.slash_events)
      .raw("pool_wait", histogram_json(r.pool_wait))
      .raw("propose_to_decide", histogram_json(r.propose_to_decide))
      .raw("decide_to_commit", histogram_json(r.decide_to_commit))
      .raw("e2e_commit", histogram_json(r.e2e_commit))
      .str();
}

/// Mean of a size argument over the events named `name` that carry a
/// non-zero size (proposals and superblocks that held work).
double mean_nonzero_arg1(const obs::TraceSink& sink, const char* name) {
  std::uint64_t sum = 0, events = 0;
  for (const obs::TraceEvent& event : sink.events()) {
    if (std::strcmp(event.name, name) != 0 || event.arg1 == 0) continue;
    sum += event.arg1;
    ++events;
  }
  return events == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(events);
}

std::string trace_json(const obs::TraceSink& sink) {
  JsonObject counts;
  for (const auto& [name, count] : sink.event_counts()) counts.count(name, count);
  return JsonObject{}
      .str("fingerprint", sink.fingerprint().hex())
      .count("events", sink.size())
      .raw("counts", counts.str())
      .num("mean_block_txs", mean_nonzero_arg1(sink, "round.propose"))
      .num("mean_superblock_txs", mean_nonzero_arg1(sink, "superblock.exec"))
      .str();
}

int usage() {
  std::fprintf(stderr,
               "usage: srbb_perfbench --workload NAME --seed N "
               "--mode setup|run|replay [--reps K --min-seconds S] [--traced] "
               "[--block-txs B --superblock-txs S]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name, mode;
  std::uint64_t seed = 1;
  int reps = 1;
  double min_seconds = 0;
  bool traced = false;
  perfbench::ReplayParams params;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--traced") {
      traced = true;
    } else if (!has_value) {
      return usage();
    } else if (arg == "--workload") {
      workload_name = argv[++i];
    } else if (arg == "--mode") {
      mode = argv[++i];
    } else if (arg == "--seed") {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--reps") {
      reps = std::atoi(argv[++i]);
    } else if (arg == "--min-seconds") {
      min_seconds = std::atof(argv[++i]);
    } else if (arg == "--block-txs") {
      params.block_txs = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--superblock-txs") {
      params.superblock_txs = std::strtoull(argv[++i], nullptr, 10);
    } else {
      return usage();
    }
  }
  const perfbench::Workload* workload = perfbench::find_workload(workload_name);
  if (workload == nullptr || reps < 1 || params.block_txs == 0 ||
      params.superblock_txs == 0) {
    return usage();
  }
  diablo::RunConfig config = perfbench::make_config(*workload, seed);

  JsonObject out;
  out.str("mode", mode).str("workload", workload->name).count("seed", seed);
  if (mode == "setup") {
    std::vector<double> times;
    Hash32 first_tx, last_tx;
    bool same_inputs = true;
    std::size_t txs = 0;
    const auto first = std::chrono::steady_clock::now();
    for (int rep = 0; rep < reps || seconds_since(first) < min_seconds; ++rep) {
      const auto start = std::chrono::steady_clock::now();
      const perfbench::Inputs in = perfbench::make_inputs(config);
      times.push_back(seconds_since(start));
      txs = in.txs.size();
      if (rep == 0) {
        first_tx = in.txs.front()->hash;
        last_tx = in.txs.back()->hash;
      }
      same_inputs = same_inputs && in.txs.front()->hash == first_tx &&
                    in.txs.back()->hash == last_tx;
    }
    std::string list = "[";
    for (std::size_t i = 0; i < times.size(); ++i) {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%s%.9g", i == 0 ? "" : ",", times[i]);
      list += buf;
    }
    out.raw("setup_s", list + "]")
        .count("txs", txs)
        .boolean("same_inputs", same_inputs);
  } else if (mode == "run") {
    obs::TraceSink sink;
    if (traced) config.trace = &sink;
    const auto start = std::chrono::steady_clock::now();
    const diablo::RunResult result = diablo::run_experiment(config);
    out.num("wall_s", seconds_since(start))
        .count("validators", config.validators)
        .count("expected_sent", diablo::send_schedule(config.workload).size())
        .raw("result", result_json(result));
    if (traced) out.raw("trace", trace_json(sink));
  } else if (mode == "replay") {
    const perfbench::Inputs in = perfbench::make_inputs(config);
    std::vector<std::string> failures;
    const JsonObject layers = perfbench::run_replay(config, in, params, failures);
    std::string list = "[";
    for (std::size_t i = 0; i < failures.size(); ++i) {
      list += (i == 0 ? "\"" : ",\"") + failures[i] + "\"";
    }
    out.raw("layers", layers.str()).raw("failures", list + "]");
  } else {
    return usage();
  }
  // Whole-process figures: peak resident memory and CPU (user + sys).
  rusage self{};
  getrusage(RUSAGE_SELF, &self);
  const auto cpu = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  out.count("peak_rss_kb", static_cast<std::uint64_t>(self.ru_maxrss))
      .num("cpu_s", cpu(self.ru_utime) + cpu(self.ru_stime))
      .str("compiler", __VERSION__)
      .str("build_type", PERFBENCH_BUILD_TYPE);
  std::printf("%s\n", out.str().c_str());
  return 0;
}
