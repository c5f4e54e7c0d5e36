// Account model: externally owned accounts (balance + nonce) and contract
// accounts (code + storage), matching the Ethereum world-state shape the
// SRBB VM replicates.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "common/bytes.hpp"
#include "common/u256.hpp"

namespace srbb::state {

struct Account {
  std::uint64_t nonce = 0;
  U256 balance;
  Bytes code;
  /// keccak256(code), maintained by StateDB::set_code (and recomputed on
  /// journal revert) so hot-path consumers — the analysis cache keys every
  /// call frame by it — get an O(1) lookup instead of rehashing the code.
  /// Zero for code-less accounts; StateDB::code_keccak substitutes the
  /// canonical empty-code hash on read.
  Hash32 code_keccak;
  std::unordered_map<Hash32, U256, Hash32Hasher> storage;
};

}  // namespace srbb::state
