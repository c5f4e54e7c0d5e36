#include "replay.hpp"

#include <chrono>
#include <memory>
#include <type_traits>
#include <utility>

#include "consensus/superblock.hpp"
#include "pool/txpool.hpp"
#include "sim/event_loop.hpp"
#include "sim/network.hpp"
#include "srbb/validator.hpp"
#include "txn/block.hpp"
#include "txn/executor.hpp"
#include "txn/pipeline.hpp"

namespace perfbench {

using namespace srbb;

namespace {

/// Host-clock accumulator: one span per timed call.
class Span {
 public:
  template <typename Fn>
  decltype(auto) time(Fn&& fn) {
    const auto start = std::chrono::steady_clock::now();
    if constexpr (std::is_void_v<std::invoke_result_t<Fn>>) {
      fn();
      stop(start);
    } else {
      decltype(auto) result = fn();
      stop(start);
      return result;
    }
  }
  double total_ns() const { return static_cast<double>(total_ns_); }
  double mean_ns() const {
    return calls_ == 0 ? 0.0 : total_ns() / static_cast<double>(calls_);
  }

 private:
  void stop(std::chrono::steady_clock::time_point start) {
    total_ns_ += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
    ++calls_;
  }
  std::uint64_t total_ns_ = 0;
  std::uint64_t calls_ = 0;
};

struct Checker {
  std::vector<std::string>& failures;
  void expect(bool ok, const char* what) {
    if (!ok) failures.emplace_back(what);
  }
};

struct Payload final : sim::Message {
  std::size_t bytes;
  explicit Payload(std::size_t n) : bytes(n) {}
  std::size_t size_bytes() const override { return bytes; }
  const char* type() const override { return "payload"; }
};

class Sink final : public sim::SimNode {
 public:
  using SimNode::SimNode;
  void handle_message(sim::NodeId, const sim::MessagePtr&) override {
    ++received;
  }
  std::uint64_t received = 0;
};

/// The workload's transactions cut into blocks of the run's mean proposal
/// size, proposers round-robin over the committee.
std::vector<txn::BlockPtr> make_blocks(const Inputs& in, std::size_t block_txs,
                                       std::uint32_t n) {
  std::vector<txn::BlockPtr> blocks;
  for (std::size_t first = 0; first < in.txs.size(); first += block_txs) {
    const std::size_t last = std::min(in.txs.size(), first + block_txs);
    const auto proposer = static_cast<std::uint32_t>(blocks.size() % n);
    blocks.push_back(std::make_shared<const txn::Block>(txn::make_block(
        blocks.size() / n, proposer, 0, Hash32{},
        {in.txs.begin() + static_cast<std::ptrdiff_t>(first),
         in.txs.begin() + static_cast<std::ptrdiff_t>(last)},
        scheme().make_identity(proposer), scheme())));
  }
  return blocks;
}

/// Consecutive blocks grouped until each superblock holds at least
/// `superblock_txs` transactions.
std::vector<std::vector<txn::BlockPtr>> make_superblocks(
    const std::vector<txn::BlockPtr>& blocks, std::size_t superblock_txs) {
  std::vector<std::vector<txn::BlockPtr>> out;
  std::size_t txs = 0;
  for (const txn::BlockPtr& block : blocks) {
    if (out.empty() || txs >= superblock_txs) {
      out.emplace_back();
      txs = 0;
    }
    out.back().push_back(block);
    txs += block->txs.size();
  }
  return out;
}

/// One complete superblock instance at the run's n over an in-memory bus:
/// every message is delivered at the current simulated instant.
bool run_instance(const diablo::RunConfig& config,
                  const std::vector<txn::BlockPtr>& proposals) {
  const std::uint32_t n = config.validators;
  sim::Simulation simulation;
  std::vector<std::unique_ptr<consensus::SuperblockInstance>> nodes(n);
  std::uint32_t complete = 0;
  bool all_blocks = true;
  for (std::uint32_t i = 0; i < n; ++i) {
    consensus::SuperblockConfig sb;
    sb.n = n;
    sb.f = (n - 1) / 3;
    sb.self = i;
    sb.scheme = &scheme();
    sb.proposal_timeout = config.proposal_timeout;
    consensus::SuperblockCallbacks cb;
    cb.broadcast = [&, i](sim::MessagePtr msg) {
      for (std::uint32_t to = 0; to < n; ++to) {
        if (to == i) continue;
        simulation.schedule_after(0, [&, to, msg, i] { nodes[to]->handle(i, msg); });
      }
    };
    cb.send_to = [&, i](std::uint32_t to, sim::MessagePtr msg) {
      simulation.schedule_after(0, [&, to, msg, i] { nodes[to]->handle(i, msg); });
    };
    cb.validate_header = [n](const txn::Block& block) {
      return block.header.proposer < n &&
             block.header.cert.proposer_pubkey ==
                 scheme().make_identity(block.header.proposer).public_key;
    };
    cb.on_superblock = [&](std::vector<txn::BlockPtr> decided) {
      ++complete;
      all_blocks = all_blocks && decided.size() == n;
    };
    cb.set_timer = [&](SimDuration d, std::function<void()> fn) {
      simulation.schedule_after(d, std::move(fn));
    };
    nodes[i] = std::make_unique<consensus::SuperblockInstance>(sb, 0, std::move(cb));
  }
  for (std::uint32_t i = 0; i < n; ++i) nodes[i]->begin(proposals[i]);
  simulation.run_until_idle();
  return complete == n && all_blocks;
}

}  // namespace

JsonObject run_replay(const diablo::RunConfig& config, const Inputs& in,
                      const ReplayParams& params,
                      std::vector<std::string>& failures) {
  Checker check{failures};
  JsonObject out;
  const std::size_t count = in.txs.size();
  const std::uint32_t n = config.validators;

  // --- crypto: re-sign and verify every transaction's signing digest ------
  Span sign, verify;
  bool signed_ok = true, verified_ok = true;
  for (std::size_t i = 0; i < count; ++i) {
    const txn::CachedTx& tx = *in.txs[i];
    const crypto::Identity& sender = in.senders[i % in.senders.size()];
    const crypto::Signature sig =
        sign.time([&] { return scheme().sign(sender, tx.signing_hash.view()); });
    signed_ok = signed_ok && sig == tx.tx.signature;
    verified_ok = verified_ok && verify.time([&] {
                    return scheme().verify(tx.signing_hash.view(),
                                           tx.tx.signature,
                                           tx.tx.sender_pubkey);
                  });
  }
  check.expect(signed_ok, "crypto: re-signing did not reproduce a signature");
  check.expect(verified_ok, "crypto: a signature did not verify");
  out.num("crypto.sign_us", sign.mean_ns() / 1e3);
  out.num("crypto.verify_ns", verify.mean_ns());

  // --- codec and txn: decode from the wire, uncached sender / digest -----
  Span decode, sender_span, digest_span;
  bool round_trip = true, sender_ok = true, digest_ok = true;
  for (const txn::TxPtr& tx : in.txs) {
    const Bytes wire = tx->tx.encode();
    auto decoded = decode.time([&] { return txn::Transaction::decode(wire); });
    round_trip = round_trip && decoded.is_ok() && decoded.value() == tx->tx &&
                 decoded.value().encode() == wire;
    sender_ok = sender_ok &&
                sender_span.time([&] { return tx->tx.sender(); }) == tx->sender;
    digest_ok = digest_ok && digest_span.time([&] {
                  return tx->tx.signing_hash();
                }) == tx->signing_hash;
  }
  check.expect(round_trip, "codec: a transaction did not round-trip encode");
  check.expect(sender_ok, "txn: sender() disagrees with the cached sender");
  check.expect(digest_ok, "txn: signing_hash() disagrees with the cache");
  out.num("codec.tx_decode_ns", decode.mean_ns());
  out.num("txn.sender_ns", sender_span.mean_ns());
  out.num("txn.signing_hash_ns", digest_span.mean_ns());

  // --- txn: eager validation against genesis state ------------------------
  const node::ValidatorConfig validator_defaults;
  const txn::ValidationPipeline pipeline{scheme(), validator_defaults.validation};
  Span validate;
  bool all_valid = true;
  for (const txn::TxPtr& tx : in.txs) {
    all_valid = all_valid && validate.time([&] {
                  return pipeline.validate_one(*tx, in.oracle->db());
                }).is_ok();
  }
  check.expect(all_valid, "txn: a generated transaction failed validate_one");
  out.num("txn.validate_ns", validate.mean_ns());

  // --- pool: fill to capacity, drain in max_block_txs batches -------------
  Span add, take;
  bool pool_ok = true;
  {
    pool::TxPool pool{config.pool};
    std::size_t next_out = 0;
    for (std::size_t first = 0; first < count; first += config.pool.capacity) {
      const std::size_t last = std::min(count, first + config.pool.capacity);
      for (std::size_t i = first; i < last; ++i) {
        pool_ok = pool_ok && add.time([&] { return pool.add(in.txs[i], 0); }) ==
                                 pool::TxPool::AddResult::kAdded;
      }
      while (!pool.empty()) {
        const auto batch = take.time([&] {
          return pool.take_batch(config.max_block_txs,
                                 validator_defaults.max_block_bytes, 0);
        });
        if (batch.empty()) {
          pool_ok = false;
          break;
        }
        for (const txn::TxPtr& tx : batch) {
          pool_ok = pool_ok && tx == in.txs[next_out++];
        }
      }
    }
    pool_ok = pool_ok && next_out == count;
  }
  check.expect(pool_ok, "pool: admission or FIFO extraction lost a transaction");
  out.num("pool.add_ns", add.mean_ns());
  out.num("pool.take_batch_us", take.mean_ns() / 1e3);

  // --- blocks: tx root and block decode at the run's mean block size ------
  const std::vector<txn::BlockPtr> blocks = make_blocks(in, params.block_txs, n);
  Span root_span, block_decode;
  bool roots_ok = true, blocks_ok = true;
  for (const txn::BlockPtr& block : blocks) {
    roots_ok = roots_ok && root_span.time([&] {
                 return block->compute_tx_root();
               }) == block->header.tx_root;
    const Bytes wire = txn::encode_block(*block);
    const auto decoded =
        block_decode.time([&] { return txn::decode_block(wire); });
    blocks_ok = blocks_ok && decoded.is_ok() &&
                decoded.value().txs.size() == block->txs.size() &&
                decoded.value().hash() == block->hash();
  }
  check.expect(roots_ok, "txn: compute_tx_root disagrees with the header");
  check.expect(blocks_ok, "codec: a block did not round-trip encode_block");
  out.num("txn.tx_root_us", root_span.mean_ns() / 1e3);
  out.num("codec.block_decode_us", block_decode.mean_ns() / 1e3);

  // --- evm + state: apply every transaction, root after each superblock ---
  const auto superblocks = make_superblocks(blocks, params.superblock_txs);
  Span apply, state_root;
  bool applied_ok = true;
  std::uint64_t gas = 0;
  std::vector<Hash32> apply_roots;
  state::StateDB db;
  in.genesis.apply(db);
  const txn::ExecutionConfig exec_config = in.oracle->exec_config();
  for (std::size_t k = 0; k < superblocks.size(); ++k) {
    evm::BlockContext ctx;
    ctx.number = k;
    for (const txn::BlockPtr& block : superblocks[k]) {
      for (const txn::TxPtr& tx : block->txs) {
        const auto receipt = apply.time([&] {
          return txn::apply_transaction(tx->tx, db, ctx, exec_config);
        });
        applied_ok = applied_ok && receipt.is_ok() && receipt.value().success;
        if (receipt.is_ok()) gas += receipt.value().gas_used;
      }
    }
    db.commit();
    apply_roots.push_back(state_root.time([&] { return db.state_root(); }));
  }
  check.expect(applied_ok, "evm: a replayed transaction was invalid or failed");
  out.num("evm.apply_ns", apply.mean_ns());
  out.num("evm.gas_per_tx", static_cast<double>(gas) / static_cast<double>(count));
  out.num("state.root_ms", state_root.mean_ns() / 1e6);
  out.count("state.accounts", db.account_count());

  // --- srbb: the same superblocks through a fresh ExecutionOracle ---------
  Span execute;
  bool executed_ok = true, same_roots = true;
  node::ExecutionOracle oracle{in.genesis, evm::BlockContext{}, scheme()};
  for (std::size_t k = 0; k < superblocks.size(); ++k) {
    const node::IndexExecResult& result =
        execute.time([&]() -> const node::IndexExecResult& {
          return oracle.execute(k, superblocks[k]);
        });
    for (const node::BlockExecResult& block : result.blocks) {
      for (const node::TxOutcome& outcome : block.outcomes) {
        executed_ok = executed_ok && outcome.valid && outcome.executed_ok;
      }
    }
    same_roots = same_roots && result.state_root == apply_roots[k];
  }
  check.expect(executed_ok, "srbb: a replayed transaction was not executed_ok");
  check.expect(same_roots, "srbb: a repeated replay gave another state root");
  out.num("srbb.execute_ms", execute.mean_ns() / 1e6);

  // --- consensus: complete superblock instances at the run's n ------------
  constexpr int kInstances = 20;
  Span instance;
  bool instances_ok = blocks.size() >= n;
  if (instances_ok) {
    const std::vector<txn::BlockPtr> proposals(blocks.begin(),
                                               blocks.begin() + n);
    for (int rep = 0; rep < kInstances; ++rep) {
      instances_ok = instance.time([&] { return run_instance(config, proposals); }) &&
                     instances_ok;
    }
  }
  check.expect(instances_ok, "consensus: an instance did not decide all blocks");
  out.num("consensus.instance_us", instance.mean_ns() / 1e3);

  // --- sim: event loop schedule + dispatch, network send -> delivery ------
  constexpr std::uint64_t kEvents = 200'000;
  Span event_span;
  {
    sim::Simulation simulation;
    std::uint64_t fired = 0;
    Rng rng{config.seed};
    for (std::uint64_t i = 0; i < kEvents; ++i) {
      const SimTime at = rng.next_below(seconds(300));
      event_span.time([&] { simulation.schedule_at(at, [&fired] { ++fired; }); });
    }
    event_span.time([&] { simulation.run_until_idle(); });
    check.expect(fired == kEvents, "sim: the event loop lost an event");
  }
  // Per event: its schedule_at span plus its share of the dispatch span.
  out.num("sim.event_ns", event_span.total_ns() / kEvents);

  constexpr std::uint64_t kSends = 100'000;
  Span send_span;
  {
    sim::Simulation simulation;
    sim::NetworkConfig net_config;
    net_config.latency = config.latency;
    net_config.bandwidth_bps = config.bandwidth_bps;
    net_config.seed = config.seed;
    sim::Network network{simulation, net_config};
    const std::size_t nodes = n + config.clients;
    const auto regions = config.latency.assign_round_robin(nodes);
    std::vector<std::unique_ptr<Sink>> sinks;
    for (std::size_t i = 0; i < nodes; ++i) {
      sinks.push_back(std::make_unique<Sink>(
          simulation, static_cast<sim::NodeId>(i), regions[i]));
      network.attach(sinks.back().get());
    }
    const auto payload = std::make_shared<const Payload>(in.txs.front()->size);
    for (std::uint64_t i = 0; i < kSends; ++i) {
      const auto from = static_cast<sim::NodeId>(i % nodes);
      const auto to =
          static_cast<sim::NodeId>((from + 1 + i % (nodes - 1)) % nodes);
      send_span.time([&] { network.send(from, to, payload); });
    }
    send_span.time([&] { simulation.run_until_idle(); });
    std::uint64_t received = 0;
    for (const auto& sink : sinks) received += sink->received;
    check.expect(received == kSends, "sim: the network lost a message");
  }
  out.num("sim.send_ns", send_span.total_ns() / kSends);
  return out;
}

}  // namespace perfbench
