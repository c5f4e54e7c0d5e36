// Client-facing and gossip messages of the blockchain layer (consensus wire
// messages live in consensus/messages.hpp).
#pragma once

#include <vector>

#include "sim/network.hpp"
#include "txn/block.hpp"
#include "txn/txref.hpp"

namespace srbb::node {

/// A client submits a pre-signed transaction to one validator (stage 1 of
/// the SRBB transaction life cycle, §IV-C).
struct ClientTxMsg final : sim::TaggedMessage<sim::MsgKind::kClientTx> {
  txn::TxPtr tx;

  std::size_t size_bytes() const override { return tx->size; }
  const char* type() const override { return "client-tx"; }
};

/// Individual transaction propagation between validators — Alg. 1 line 9,
/// the step TVPR removes. Only the modern-blockchain/baseline configuration
/// ever sends these.
struct GossipTxMsg final : sim::TaggedMessage<sim::MsgKind::kGossipTx> {
  txn::TxPtr tx;

  std::size_t size_bytes() const override { return tx->size; }
  const char* type() const override { return "gossip-tx"; }
};

/// Commit acknowledgement back to the sending client; the client's observed
/// commit time defines latency, as in DIABLO.
struct CommitAckMsg final : sim::TaggedMessage<sim::MsgKind::kCommitAck> {
  Hash32 tx_hash;
  bool executed_ok = false;  // false: included but reverted/failed

  std::size_t size_bytes() const override { return 32 + 1 + 32; }
  const char* type() const override { return "commit-ack"; }
};

/// Catch-up sync (crash recovery): a restarted validator asks a peer for the
/// decided superblock at `index`.
struct SyncRequestMsg final : sim::TaggedMessage<sim::MsgKind::kSyncRequest> {
  std::uint64_t index = 0;

  std::size_t size_bytes() const override { return 8 + 32; }
  const char* type() const override { return "sync-req"; }
};

/// Reply to a SyncRequestMsg. `height` is the responder's commit frontier
/// (next index it will commit); `have` is false when the responder has not
/// decided `index` yet, which tells the requester it reached the frontier.
struct SyncResponseMsg final : sim::TaggedMessage<sim::MsgKind::kSyncResponse> {
  std::uint64_t index = 0;
  bool have = false;
  std::uint64_t height = 0;
  std::vector<txn::BlockPtr> blocks;  // decided superblock, iff `have`

  std::size_t size_bytes() const override {
    std::size_t bytes = 8 + 1 + 8 + 32;
    for (const txn::BlockPtr& block : blocks) bytes += block->wire_size();
    return bytes;
  }
  const char* type() const override { return "sync-resp"; }
};

}  // namespace srbb::node
