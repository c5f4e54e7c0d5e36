// DIABLO client: sends pre-signed transactions on a fixed schedule and
// timestamps the commit acknowledgements. Latency is commit time minus send
// time as seen by the client; a transaction with no ack by the end of the
// observation window counts as lost (§V).
#pragma once

#include <cstdint>
#include <vector>

#include "common/flat_table.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/network.hpp"
#include "srbb/messages.hpp"

namespace srbb::diablo {

class ClientNode : public sim::SimNode {
 public:
  struct Submission {
    SimTime at = 0;
    txn::TxPtr tx;
    sim::NodeId target = 0;
  };

  ClientNode(sim::Simulation& simulation, sim::NodeId id, sim::RegionId region)
      : sim::SimNode(simulation, id, region) {}

  /// Enable the §VI retry mechanism: a transaction unacknowledged after
  /// `timeout` is resubmitted to the next validator (round-robin over
  /// `validator_count`), up to `max_resends` times. Disabled by default to
  /// match DIABLO's fire-once clients.
  void enable_resend(SimDuration timeout, std::uint32_t validator_count,
                     std::uint32_t max_resends = 3) {
    resend_timeout_ = timeout;
    validator_count_ = validator_count;
    max_resends_ = max_resends;
  }

  /// Attach the observability layer: `client.send` / `client.ack` trace
  /// events plus the exact-nanosecond end-to-end commit latency histogram
  /// "lat.e2e_commit" (send -> ack, the number Fig. 3 plots). Either pointer
  /// may be null.
  void set_observability(obs::TraceSink* trace, obs::MetricsRegistry* metrics);

  /// Register the full schedule before the run starts.
  void add_submission(SimTime at, txn::TxPtr tx, sim::NodeId target);
  /// Queue every registered submission on this client's lane. Call once.
  void start();

  void handle_message(sim::NodeId from, const sim::MessagePtr& message) override;

  // --- results ---
  std::uint64_t sent() const { return sent_; }
  std::uint64_t committed() const { return committed_.size(); }
  /// Latencies in seconds for every committed transaction, in ack order.
  const std::vector<double>& latencies() const { return latencies_; }
  SimTime first_send() const { return first_send_; }
  SimTime last_commit() const { return last_commit_; }

  std::uint64_t resends() const { return resends_; }

 private:
  void dispatch(const txn::TxPtr& tx, sim::NodeId target, std::uint32_t attempt);

  std::vector<Submission> schedule_;
  sim::WorkLane submissions_{sim()};  // the schedule, in time order
  FlatMap<32, SimTime> sent_at_;
  FlatSet<32> committed_;
  std::vector<double> latencies_;
  std::uint64_t sent_ = 0;
  std::uint64_t resends_ = 0;
  SimTime first_send_ = ~0ull;
  SimTime last_commit_ = 0;
  SimDuration resend_timeout_ = 0;
  std::uint32_t validator_count_ = 0;
  std::uint32_t max_resends_ = 0;

  // Observability (null = disabled).
  obs::TraceSink* trace_ = nullptr;
  obs::Histogram* hist_e2e_ = nullptr;
};

}  // namespace srbb::diablo
