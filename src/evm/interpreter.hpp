// The SRBB VM interpreter: a 256-bit stack machine over the opcode set in
// opcodes.hpp with gas metering, journaled state access, nested calls and
// contract creation. This is the execution engine every validator replays
// blocks through (Alg. 1 line 21 / lines 32-40 of the paper).
#pragma once

#include <cstdint>
#include <vector>

#include "evm/analysis/cache.hpp"
#include "evm/types.hpp"
#include "state/statedb.hpp"

namespace srbb::evm {

inline constexpr std::uint32_t kMaxCallDepth = 1024;
inline constexpr std::size_t kMaxStack = 1024;
inline constexpr std::size_t kMaxCodeSize = 24 * 1024;

/// Contract address for a creation by `creator` at `nonce`:
/// keccak256(rlp([creator, nonce]))[12:], as in Ethereum.
Address create_address(const Address& creator, std::uint64_t nonce);

class Evm {
 public:
  Evm(state::StateView& db, BlockContext block, TxContext tx)
      : db_(db), block_(block), tx_(tx) {}

  /// Execute a message call or creation against the current state. State
  /// mutations from failed frames are reverted; the caller is responsible
  /// for charging intrinsic transaction gas beforehand.
  ExecResult execute(const Message& msg);

  /// Logs emitted by successful frames since the last clear.
  const std::vector<LogEntry>& logs() const { return logs_; }

  const BlockContext& block() const { return block_; }
  state::StateView& db() { return db_; }

  /// Analysis cache consulted for per-frame jumpdest bitmaps and CREATE-time
  /// code validation. Defaults to the process-wide cache; nullptr restores
  /// the historical per-frame rescan (the microbench A/B baseline).
  void set_analysis_cache(analysis::AnalysisCache* cache) {
    analysis_cache_ = cache;
  }
  analysis::AnalysisCache* analysis_cache() const { return analysis_cache_; }

  /// CREATE-time static validation: reject provably-doomed init/runtime code
  /// with kCodeRejected. On by default; ExecutionConfig::validate_code is
  /// the compat flag callers plumb through.
  void set_validate_code(bool enabled) { validate_code_ = enabled; }

 private:
  ExecResult run(const Message& msg, BytesView code, const Address& self,
                 const Hash32* code_keccak);
  Address compute_create_address(const Address& creator, std::uint64_t nonce);
  /// kReject verdict for `code` (create paths); false when validation is off
  /// or no cache is attached.
  bool rejects_code(BytesView code) const;

  state::StateView& db_;
  BlockContext block_;
  TxContext tx_;
  std::vector<LogEntry> logs_;
  analysis::AnalysisCache* analysis_cache_ = &analysis::AnalysisCache::global();
  bool validate_code_ = true;
};

}  // namespace srbb::evm
