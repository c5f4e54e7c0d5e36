// srbb_sim — command-line front end for the experiment runner.
//
//   srbb_sim --system srbb --workload fifa --scale 0.05
//   srbb_sim --system quorum --workload constant --tps 200 --duration 30
//   srbb_sim --system srbb --byzantine 1 --flood 500 --rpm
//            --workload constant --tps 1000 --duration 5
//   srbb_sim --trace my_trace.csv --system srbb
//
// Prints the Figure-2-style row plus congestion diagnostics for one run.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "chains/presets.hpp"
#include "diablo/report.hpp"
#include "diablo/runner.hpp"

using namespace srbb;

namespace {

void usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "  --system NAME      srbb | evmdbft | algorand | avalanche | diem |\n"
      "                     ethereum | quorum | solana        (default srbb)\n"
      "  --workload NAME    nasdaq | uber | fifa | constant   (default constant)\n"
      "  --tps X            constant-workload rate            (default 100)\n"
      "  --duration S       constant-workload seconds         (default 30)\n"
      "  --trace FILE       load a CSV trace instead (see diablo/workload.hpp)\n"
      "  --validators N     committee size                    (default 200)\n"
      "  --scale F          shrink validators/rates by F      (default 1.0)\n"
      "  --clients N        client nodes                      (default 10)\n"
      "  --drain S          observation tail after last send  (default 120)\n"
      "  --seed S           simulation seed                   (default 1)\n"
      "  --rpm              enable the reward-penalty mechanism\n"
      "  --byzantine K      flooding Byzantine validators     (default 0)\n"
      "  --flood M          invalid txs per Byzantine block   (default 0)\n"
      "  --resend S         client retry timeout, 0 = off     (default 0)\n"
      "  --single-region    Sydney-only latency model\n"
      "  --json             machine-readable result on stdout\n",
      argv0);
}

bool parse_system(const std::string& name, diablo::RunConfig& config) {
  if (name == "srbb") {
    config.kind = diablo::SystemKind::kSrbb;
    config.system_name = "SRBB";
    return true;
  }
  if (name == "evmdbft") {
    config.kind = diablo::SystemKind::kEvmDbft;
    config.system_name = "EVM+DBFT";
    return true;
  }
  for (const auto& preset : chains::all_modern_presets()) {
    std::string lower = preset.name;
    for (char& c : lower) c = static_cast<char>(std::tolower(c));
    if (lower == name) {
      config.kind = diablo::SystemKind::kModern;
      config.preset = preset;
      config.system_name = preset.name;
      return true;
    }
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  diablo::RunConfig config;
  config.system_name = "SRBB";
  config.kind = diablo::SystemKind::kSrbb;
  config.validators = 200;
  config.latency = sim::LatencyModel::aws_global();

  std::string workload_name = "constant";
  std::string trace_file;
  double tps = 100.0;
  std::uint32_t duration = 30;
  double scale = 1.0;
  bool json = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else if (arg == "--system") {
      if (!parse_system(next(), config)) {
        std::fprintf(stderr, "unknown system\n");
        return 2;
      }
    } else if (arg == "--workload") {
      workload_name = next();
    } else if (arg == "--trace") {
      trace_file = next();
    } else if (arg == "--tps") {
      tps = std::atof(next());
    } else if (arg == "--duration") {
      duration = static_cast<std::uint32_t>(std::atoi(next()));
    } else if (arg == "--validators") {
      config.validators = static_cast<std::uint32_t>(std::atoi(next()));
    } else if (arg == "--scale") {
      scale = std::atof(next());
    } else if (arg == "--clients") {
      config.clients = static_cast<std::uint32_t>(std::atoi(next()));
    } else if (arg == "--drain") {
      config.drain = seconds(static_cast<std::uint64_t>(std::atoi(next())));
    } else if (arg == "--seed") {
      config.seed = static_cast<std::uint64_t>(std::atoll(next()));
    } else if (arg == "--rpm") {
      config.rpm = true;
    } else if (arg == "--byzantine") {
      config.byzantine = static_cast<std::uint32_t>(std::atoi(next()));
    } else if (arg == "--flood") {
      config.flood_invalid_per_block =
          static_cast<std::uint32_t>(std::atoi(next()));
    } else if (arg == "--resend") {
      config.client_resend_timeout =
          seconds(static_cast<std::uint64_t>(std::atoi(next())));
    } else if (arg == "--single-region") {
      config.latency = sim::LatencyModel::single_region();
    } else if (arg == "--json") {
      json = true;
    } else {
      std::fprintf(stderr, "unknown option %s (try --help)\n", arg.c_str());
      return 2;
    }
  }

  if (!trace_file.empty()) {
    std::ifstream in{trace_file};
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", trace_file.c_str());
      return 2;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    auto trace = diablo::from_csv(buffer.str());
    if (!trace) {
      std::fprintf(stderr, "bad trace: %s\n", trace.message().c_str());
      return 2;
    }
    config.workload = std::move(trace).take();
  } else if (workload_name == "nasdaq") {
    config.workload = diablo::WorkloadSpec::nasdaq();
  } else if (workload_name == "uber") {
    config.workload = diablo::WorkloadSpec::uber();
  } else if (workload_name == "fifa") {
    config.workload = diablo::WorkloadSpec::fifa();
  } else if (workload_name == "constant") {
    config.workload = diablo::WorkloadSpec::constant("constant", tps, duration);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", workload_name.c_str());
    return 2;
  }

  const diablo::RunConfig scaled = diablo::scale_config(config, scale);
  if (!json) {
    std::printf("running %s on %s: %u validators, %llu txs, seed %llu...\n",
                scaled.system_name.c_str(), scaled.workload.name.c_str(),
                scaled.validators,
                static_cast<unsigned long long>(scaled.workload.total_txs()),
                static_cast<unsigned long long>(scaled.seed));
    std::fflush(stdout);
  }

  const diablo::RunResult result = diablo::run_experiment(scaled);
  if (json) {
    std::printf(
        "{\"system\":\"%s\",\"workload\":\"%s\",\"validators\":%u,"
        "\"clients\":%u,"
        "\"sent\":%llu,\"committed\":%llu,\"commit_pct\":%.3f,"
        "\"throughput_tps\":%.3f,\"avg_latency_s\":%.4f,"
        "\"p50_latency_s\":%.4f,\"p95_latency_s\":%.4f,"
        "\"max_latency_s\":%.4f,\"eager_validations\":%llu,"
        "\"gossip_tx_messages\":%llu,\"pool_drops\":%llu,"
        "\"invalid_discarded\":%llu,\"network_messages\":%llu,"
        "\"network_bytes\":%llu,\"crashed_nodes\":%llu,\"slashes\":%llu,"
        "\"sim_events\":%llu,\"sim_peak_heap\":%llu,"
        "\"sim_peak_pending\":%llu,\"sim_head_pushes\":%llu,"
        "\"gossip_seen_rows\":%llu,"
        "\"state_roots\":%llu,\"state_root_records\":%llu,"
        "\"state_root_bytes\":%llu,\"state_records\":%llu}\n",
        result.system.c_str(), result.workload.c_str(), scaled.validators,
        scaled.clients, static_cast<unsigned long long>(result.sent),
        static_cast<unsigned long long>(result.committed), result.commit_pct,
        result.throughput_tps, result.avg_latency_s, result.p50_latency_s,
        result.p95_latency_s, result.max_latency_s,
        static_cast<unsigned long long>(result.eager_validations),
        static_cast<unsigned long long>(result.gossip_tx_messages),
        static_cast<unsigned long long>(result.pool_drops),
        static_cast<unsigned long long>(result.invalid_discarded),
        static_cast<unsigned long long>(result.network_messages),
        static_cast<unsigned long long>(result.network_bytes),
        static_cast<unsigned long long>(result.crashed_nodes),
        static_cast<unsigned long long>(result.slash_events),
        static_cast<unsigned long long>(result.sim_events),
        static_cast<unsigned long long>(result.sim_peak_heap),
        static_cast<unsigned long long>(result.sim_peak_pending),
        static_cast<unsigned long long>(result.sim_head_pushes),
        static_cast<unsigned long long>(result.gossip_seen_rows),
        static_cast<unsigned long long>(result.state_roots),
        static_cast<unsigned long long>(result.state_root_records),
        static_cast<unsigned long long>(result.state_root_bytes),
        static_cast<unsigned long long>(result.state_records));
    return 0;
  }
  std::printf("\n%s\n%s\n\n%s\n", diablo::format_header().c_str(),
              diablo::format_row(result).c_str(),
              diablo::format_diagnostics(result).c_str());
  return 0;
}
