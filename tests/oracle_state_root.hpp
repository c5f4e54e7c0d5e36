// Differential oracle: StateDB::state_root()'s flat digest recomputed from
// public StateView reads alone (account_exists, nonce, balance, code_keccak,
// storage). It uses no root memo, no resident map and no backend walk, so it
// checks the memo's invalidation and backend mode's enumeration of live
// accounts. The caller names the universe it wrote: every address and every
// storage slot any write may have touched. Absent accounts and zero slots
// are skipped, as the flat map never holds them. Only tests include this
// file.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/bytes.hpp"
#include "crypto/sha256.hpp"
#include "state/statedb.hpp"

namespace srbb::state::oracle {

inline Hash32 reference_state_root(const StateView& state,
                                   std::vector<Address> addresses,
                                   std::vector<Hash32> slots) {
  std::sort(addresses.begin(), addresses.end());
  addresses.erase(std::unique(addresses.begin(), addresses.end()),
                  addresses.end());
  std::sort(slots.begin(), slots.end());
  slots.erase(std::unique(slots.begin(), slots.end()), slots.end());

  crypto::Sha256 root;
  for (const Address& addr : addresses) {
    if (!state.account_exists(addr)) continue;
    root.update(addr.view());
    std::uint8_t nonce_be[8];
    put_be64(nonce_be, state.nonce(addr));
    root.update(BytesView{nonce_be, 8});
    root.update(state.balance(addr).be_bytes());
    root.update(state.code_keccak(addr).view());
    for (const Hash32& slot : slots) {
      const U256 value = state.storage(addr, slot);
      if (value.is_zero()) continue;
      root.update(slot.view());
      root.update(value.be_bytes());
    }
  }
  return root.finish();
}

}  // namespace srbb::state::oracle
