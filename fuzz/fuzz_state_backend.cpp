// State-backend harness (docs/STATE.md), two modes keyed on the first byte:
//
//  Mode A (even): the remaining bytes drive an op stream applied identically
//  to a seed-configuration StateDB and a backend-mode StateDB with a tiny
//  resident cache (constant fault/evict churn). Property: bit-identical
//  state_root() at every commit.
//
//  Mode B (odd): the remaining bytes are written verbatim to disk and opened
//  as a LogBackend. Properties: recovery is total (no crash on arbitrary
//  bytes), truncates to a valid prefix (second open drops nothing and serves
//  identical records), and the recovered log accepts appends that survive a
//  further reopen.
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "harness.hpp"
#include "state/log_backend.hpp"
#include "state/statedb.hpp"

using namespace srbb;
using namespace srbb::state;

namespace {

struct ByteStream {
  const std::uint8_t* data;
  std::size_t size;
  std::size_t pos = 0;

  bool done() const { return pos >= size; }
  std::uint8_t next() { return done() ? 0 : data[pos++]; }
};

Address addr_of(std::uint8_t tag) {
  Address a;
  a[19] = tag;
  return a;
}

Hash32 slot_of(std::uint8_t tag) {
  Hash32 h;
  h[31] = tag;
  return h;
}

void check_roots(const StateDB& a, const StateDB& b) {
  FUZZ_ASSERT(a.state_root() == b.state_root());
  FUZZ_ASSERT(a.account_count() == b.account_count());
}

void run_op_differential(ByteStream in) {
  StateDB reference;
  StateConfig cfg;
  cfg.snapshot_capacity = 2;
  StateDB backed{cfg, std::make_shared<MemoryBackend>()};
  StateDB* dbs[] = {&reference, &backed};

  std::vector<StateView::Snapshot> snaps_ref;
  std::vector<StateView::Snapshot> snaps_backed;
  while (!in.done()) {
    const std::uint8_t op = in.next() % 8;
    const Address addr = addr_of(in.next() % 6);
    switch (op) {
      case 0: {
        const U256 delta{std::uint64_t{1} + in.next()};
        for (StateDB* db : dbs) db->add_balance(addr, delta);
        break;
      }
      case 1:
        for (StateDB* db : dbs) db->increment_nonce(addr);
        break;
      case 2: {
        const Hash32 slot = slot_of(in.next() % 4);
        const U256 value{static_cast<std::uint64_t>(in.next() % 4)};  // zero clears
        for (StateDB* db : dbs) db->set_storage(addr, slot, value);
        break;
      }
      case 3: {
        Bytes code(in.next() % 8);
        for (auto& b : code) b = in.next();
        for (StateDB* db : dbs) db->set_code(addr, code);
        break;
      }
      case 4:
        for (StateDB* db : dbs) db->delete_account(addr);
        break;
      case 5:
        snaps_ref.push_back(reference.snapshot());
        snaps_backed.push_back(backed.snapshot());
        break;
      case 6:
        if (!snaps_ref.empty()) {
          reference.revert_to(snaps_ref.back());
          backed.revert_to(snaps_backed.back());
          snaps_ref.pop_back();
          snaps_backed.pop_back();
        }
        break;
      default:
        snaps_ref.clear();
        snaps_backed.clear();
        for (StateDB* db : dbs) db->commit();
        check_roots(reference, backed);
        break;
    }
  }
  snaps_ref.clear();
  snaps_backed.clear();
  for (StateDB* db : dbs) db->commit();
  check_roots(reference, backed);
}

void run_log_recovery(const std::uint8_t* data, std::size_t size) {
  const std::string path = (std::filesystem::temp_directory_path() /
                            ("srbb_fuzz_state_backend_" +
                             std::to_string(::getpid()) + ".log"))
                               .string();
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    FUZZ_ASSERT(f != nullptr);
    if (size > 0) FUZZ_ASSERT(std::fwrite(data, 1, size, f) == size);
    std::fclose(f);
  }

  std::vector<Address> keys;
  std::vector<Bytes> values;
  {
    // Arbitrary bytes: recovery must terminate and truncate to a valid
    // prefix without crashing.
    LogBackend first{path};
    keys = first.keys();
    for (const Address& key : keys) {
      const std::optional<Bytes> value = first.get(key);
      FUZZ_ASSERT(value.has_value());
      values.push_back(*value);
    }
    FUZZ_ASSERT(first.file_bytes() <= size);
  }
  {
    // Idempotent: the truncated file is fully valid, so a reopen drops
    // nothing and serves byte-identical records.
    LogBackend second{path};
    FUZZ_ASSERT(second.stats().torn_bytes_dropped == 0);
    FUZZ_ASSERT(second.keys() == keys);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      FUZZ_ASSERT(second.get(keys[i]) == values[i]);
    }
    // The recovered log is appendable.
    const Bytes record{0x01, 0x02, 0x03};
    second.put(addr_of(0xAB), record);
    second.flush();
  }
  {
    LogBackend third{path};
    FUZZ_ASSERT(third.stats().torn_bytes_dropped == 0);
    FUZZ_ASSERT(third.get(addr_of(0xAB)) == Bytes({0x01, 0x02, 0x03}));
  }
  std::filesystem::remove(path);
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size == 0 || size > 4096) return 0;
  if (data[0] % 2 == 0) {
    run_op_differential(ByteStream{data + 1, size - 1});
  } else {
    run_log_recovery(data + 1, size - 1);
  }
  return 0;
}
