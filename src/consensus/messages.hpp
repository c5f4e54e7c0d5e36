// Wire messages of the SRBB consensus: reliable broadcast of block proposals
// (PROPOSE/ECHO/PULL) and the per-proposal binary DBFT instances (EST/AUX/
// DECIDED). Sizes approximate real encodings for bandwidth accounting.
#pragma once

#include <cstdint>

#include "sim/network.hpp"
#include "txn/block.hpp"

namespace srbb::consensus {

/// Proposal for index k from its proposer (also the reply to a PULL).
struct ProposeMsg final : sim::TaggedMessage<sim::MsgKind::kPropose> {
  std::uint64_t index = 0;
  txn::BlockPtr block;

  std::size_t size_bytes() const override { return 16 + block->wire_size(); }
  const char* type() const override { return "propose"; }
};

/// Echo of proposer `proposer`'s block hash at index k (reliable broadcast).
struct EchoMsg final : sim::TaggedMessage<sim::MsgKind::kEcho> {
  std::uint64_t index = 0;
  std::uint32_t proposer = 0;
  Hash32 block_hash;

  std::size_t size_bytes() const override { return 16 + 4 + 32 + 64; }
  const char* type() const override { return "echo"; }
};

/// Request the proposal body for (index, proposer) after deciding 1 without
/// having received the block.
struct PullMsg final : sim::TaggedMessage<sim::MsgKind::kPull> {
  std::uint64_t index = 0;
  std::uint32_t proposer = 0;

  std::size_t size_bytes() const override { return 16 + 4 + 16; }
  const char* type() const override { return "pull"; }
};

enum class BinPhase : std::uint8_t { kEst, kAux };

/// Binary consensus message for instance (index, proposer).
struct BinMsg final : sim::TaggedMessage<sim::MsgKind::kBin> {
  std::uint64_t index = 0;
  std::uint32_t proposer = 0;
  std::uint32_t round = 0;
  BinPhase phase = BinPhase::kEst;
  bool value = false;

  std::size_t size_bytes() const override { return 16 + 4 + 4 + 2 + 64; }
  const char* type() const override {
    return phase == BinPhase::kEst ? "est" : "aux";
  }
};

/// Decision announcement for instance (index, proposer); lets late nodes
/// finish via the t+1 rule.
struct DecidedMsg final : sim::TaggedMessage<sim::MsgKind::kDecided> {
  std::uint64_t index = 0;
  std::uint32_t proposer = 0;
  bool value = false;

  std::size_t size_bytes() const override { return 16 + 4 + 1 + 64; }
  const char* type() const override { return "decided"; }
};

}  // namespace srbb::consensus
