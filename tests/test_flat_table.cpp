// srbb::FlatMap / FlatSet against std::unordered_map / unordered_set. Each
// seed runs a random program of try_emplace, erase, find and clear over a
// small key universe, so chains form, wrap, split on erase and survive
// growth; every answer must match and the load must stay at most 7/8. The
// directed cases pin the shapes a random program reaches only by chance:
// a capacity-16 table at its limit, a chain wrapping past the last slot,
// erase from the middle of a chain, growth while chains exist.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/flat_table.hpp"
#include "common/rng.hpp"

namespace srbb {
namespace {

constexpr std::uint64_t kSeeds = 200;

Hash32 random_key(Rng& rng) {
  Hash32 key;
  for (std::uint8_t& byte : key) {
    byte = static_cast<std::uint8_t>(rng.next_u64());
  }
  return key;
}

std::size_t home(const Hash32& key, std::size_t capacity) {
  return Hash32Hasher{}(key) & (capacity - 1);
}

/// `count` distinct keys whose home slot in a table of `capacity` slots is
/// `slot`.
std::vector<Hash32> keys_homed_at(std::size_t slot, std::size_t capacity,
                                  std::size_t count, std::uint64_t seed) {
  Rng rng{seed};
  std::vector<Hash32> keys;
  while (keys.size() < count) {
    const Hash32 key = random_key(rng);
    if (home(key, capacity) == slot) keys.push_back(key);
  }
  return keys;
}

bool load_ok(std::size_t size, std::size_t capacity) {
  const bool pow2 = capacity == 0 || (capacity >= 16 &&
                                      (capacity & (capacity - 1)) == 0);
  return pow2 && size * 8 <= capacity * 7;
}

/// Runs one seeded map program; returns the number of mismatches.
std::uint64_t run_map_program(std::uint64_t seed) {
  Rng rng{seed * 0x9E3779B97F4A7C15ull + 7};
  std::vector<Hash32> universe(8 + rng.next_below(250));
  for (Hash32& key : universe) key = random_key(rng);
  FlatMap<32, std::uint64_t> table;
  std::unordered_map<Hash32, std::uint64_t, Hash32Hasher> reference;
  std::uint64_t mismatches = 0;
  const auto sweep = [&] {
    for (const Hash32& key : universe) {
      const std::uint64_t* got = table.find(key);
      const auto want = reference.find(key);
      if ((got == nullptr) != (want == reference.end()) ||
          (got != nullptr && *got != want->second)) {
        ++mismatches;
      }
    }
  };
  const std::size_t ops = 100 + rng.next_below(300);
  for (std::size_t op = 0; op < ops; ++op) {
    const Hash32& key = universe[rng.next_below(universe.size())];
    const std::uint64_t roll = rng.next_below(100);
    if (roll < 55) {
      const std::uint64_t value = rng.next_u64();
      const auto [slot, inserted] = table.try_emplace(key, value);
      const auto [it, want_inserted] = reference.try_emplace(key, value);
      if (inserted != want_inserted || *slot != it->second) ++mismatches;
      if (rng.next_bool(0.2)) {  // write through the returned pointer
        *slot = op;
        it->second = op;
      }
    } else if (roll < 85) {
      if (table.erase(key) != (reference.erase(key) == 1)) ++mismatches;
      sweep();
    } else if (roll < 98) {
      if (table.contains(key) != reference.contains(key)) ++mismatches;
      if (table.contains(random_key(rng))) ++mismatches;  // never inserted
    } else {
      table.clear();
      reference.clear();
    }
    if (table.size() != reference.size()) ++mismatches;
    if (!load_ok(table.size(), table.capacity())) ++mismatches;
  }
  sweep();
  return mismatches;
}

/// The same program shape for the set.
std::uint64_t run_set_program(std::uint64_t seed) {
  Rng rng{seed * 0xD1B54A32D192ED03ull + 11};
  std::vector<Hash32> universe(8 + rng.next_below(250));
  for (Hash32& key : universe) key = random_key(rng);
  FlatSet<32> table;
  std::unordered_set<Hash32, Hash32Hasher> reference;
  std::uint64_t mismatches = 0;
  const auto sweep = [&] {
    for (const Hash32& key : universe) {
      if (table.contains(key) != reference.contains(key)) ++mismatches;
    }
  };
  const std::size_t ops = 100 + rng.next_below(300);
  for (std::size_t op = 0; op < ops; ++op) {
    const Hash32& key = universe[rng.next_below(universe.size())];
    const std::uint64_t roll = rng.next_below(100);
    if (roll < 55) {
      if (table.try_emplace(key).second != reference.insert(key).second) {
        ++mismatches;
      }
    } else if (roll < 85) {
      if (table.erase(key) != (reference.erase(key) == 1)) ++mismatches;
      sweep();
    } else if (roll < 98) {
      if (table.contains(key) != reference.contains(key)) ++mismatches;
    } else {
      table.clear();
      reference.clear();
    }
    if (table.size() != reference.size()) ++mismatches;
    if (!load_ok(table.size(), table.capacity())) ++mismatches;
  }
  sweep();
  return mismatches;
}

TEST(FlatTable, MapMatchesUnorderedMapOver200Programs) {
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    ASSERT_EQ(run_map_program(seed), 0u) << "seed " << seed;
  }
}

TEST(FlatTable, SetMatchesUnorderedSetOver200Programs) {
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    ASSERT_EQ(run_set_program(seed), 0u) << "seed " << seed;
  }
}

TEST(FlatTable, EmptyTableAllocatesNothing) {
  FlatMap<32, std::uint32_t> table;
  Rng rng{1};
  const Hash32 key = random_key(rng);
  EXPECT_EQ(table.capacity(), 0u);
  EXPECT_EQ(table.find(key), nullptr);
  EXPECT_FALSE(table.erase(key));
  table.clear();
  EXPECT_EQ(table.capacity(), 0u);
}

TEST(FlatTable, Capacity16HoldsFourteenThenGrows) {
  FlatSet<32> table;
  Rng rng{2};
  std::vector<Hash32> keys;
  for (int i = 0; i < 15; ++i) keys.push_back(random_key(rng));
  for (int i = 0; i < 14; ++i) ASSERT_TRUE(table.try_emplace(keys[i]).second);
  EXPECT_EQ(table.capacity(), 16u);  // 14 = 7/8 of 16: at the limit
  EXPECT_EQ(table.size(), 14u);
  EXPECT_FALSE(table.try_emplace(keys[0]).second);  // a hit never grows
  EXPECT_EQ(table.capacity(), 16u);
  for (int i = 0; i < 14; ++i) EXPECT_TRUE(table.contains(keys[i]));
  EXPECT_FALSE(table.contains(keys[14]));
  ASSERT_TRUE(table.try_emplace(keys[14]).second);
  EXPECT_EQ(table.capacity(), 32u);
  for (const Hash32& key : keys) EXPECT_TRUE(table.contains(key));
}

TEST(FlatTable, ChainWrapsPastTheLastSlot) {
  // Five keys homed at slot 15 of 16 occupy 15, 0, 1, 2, 3.
  const std::vector<Hash32> wrap = keys_homed_at(15, 16, 5, 3);
  const std::vector<Hash32> at0 = keys_homed_at(0, 16, 2, 4);
  FlatMap<32, std::uint32_t> table;
  for (std::uint32_t i = 0; i < wrap.size(); ++i) table.try_emplace(wrap[i], i);
  for (std::uint32_t i = 0; i < at0.size(); ++i) {
    table.try_emplace(at0[i], 100 + i);
  }
  ASSERT_EQ(table.capacity(), 16u);
  for (std::uint32_t i = 0; i < wrap.size(); ++i) {
    ASSERT_NE(table.find(wrap[i]), nullptr);
    EXPECT_EQ(*table.find(wrap[i]), i);
  }
  // Erasing the chain's head at slot 15 pulls the wrapped entries back
  // across the end, and the slot-0 keys behind them must stay reachable.
  EXPECT_TRUE(table.erase(wrap[0]));
  for (std::uint32_t i = 1; i < wrap.size(); ++i) {
    ASSERT_NE(table.find(wrap[i]), nullptr);
    EXPECT_EQ(*table.find(wrap[i]), i);
  }
  for (std::uint32_t i = 0; i < at0.size(); ++i) {
    ASSERT_NE(table.find(at0[i]), nullptr);
    EXPECT_EQ(*table.find(at0[i]), 100 + i);
  }
  EXPECT_EQ(table.size(), wrap.size() + at0.size() - 1);
}

TEST(FlatTable, EraseFromTheMiddleOfAChain) {
  // Slot 4 holds a run of keys homed at 4, followed by keys homed at 5 and 6
  // pushed behind it; erasing inside the run must shift each later entry
  // whose probe path crosses the hole, including the one homed at the hole.
  const std::vector<Hash32> at4 = keys_homed_at(4, 16, 4, 5);
  const std::vector<Hash32> at5 = keys_homed_at(5, 16, 2, 6);
  const std::vector<Hash32> at6 = keys_homed_at(6, 16, 2, 7);
  FlatSet<32> table;
  for (const auto* group : {&at4, &at5, &at6}) {
    for (const Hash32& key : *group) table.try_emplace(key);
  }
  ASSERT_EQ(table.capacity(), 16u);
  ASSERT_TRUE(table.erase(at4[1]));
  ASSERT_TRUE(table.erase(at5[0]));
  for (const Hash32& key : {at4[0], at4[2], at4[3], at5[1], at6[0], at6[1]}) {
    EXPECT_TRUE(table.contains(key));
  }
  // The run's head: the next entry is homed at the hole itself.
  ASSERT_TRUE(table.erase(at4[0]));
  for (const Hash32& key : {at4[2], at4[3], at5[1], at6[0], at6[1]}) {
    EXPECT_TRUE(table.contains(key));
  }
  for (const Hash32& key : {at4[0], at4[1], at5[0]}) {
    EXPECT_FALSE(table.contains(key));
    EXPECT_FALSE(table.erase(key));
  }
  EXPECT_EQ(table.size(), 5u);
}

TEST(FlatTable, GrowthKeepsEveryChain) {
  // Three chains of colliding keys in a 16-slot table, then enough fresh
  // keys to double the capacity twice.
  FlatMap<32, std::uint32_t> table;
  std::vector<Hash32> keys;
  for (std::size_t slot : {2u, 9u, 15u}) {
    for (const Hash32& key : keys_homed_at(slot, 16, 4, 10 + slot)) {
      keys.push_back(key);
    }
  }
  for (std::uint32_t i = 0; i < keys.size(); ++i) table.try_emplace(keys[i], i);
  ASSERT_EQ(table.capacity(), 16u);
  Rng rng{8};
  while (table.capacity() < 64) {
    const Hash32 key = random_key(rng);
    table.try_emplace(key, static_cast<std::uint32_t>(keys.size()));
    keys.push_back(key);
  }
  ASSERT_EQ(table.size(), keys.size());
  for (std::uint32_t i = 0; i < keys.size(); ++i) {
    ASSERT_NE(table.find(keys[i]), nullptr);
    EXPECT_EQ(*table.find(keys[i]), i);
  }
}

TEST(FlatTable, ClearKeepsCapacityAndForgetsKeys) {
  FlatSet<20> table;  // Address-sized keys hash a zero-padded tail word
  Rng rng{9};
  std::vector<Address> keys(40);
  for (Address& key : keys) {
    for (std::uint8_t& byte : key) {
      byte = static_cast<std::uint8_t>(rng.next_u64());
    }
    table.try_emplace(key);
  }
  const std::size_t capacity = table.capacity();
  table.clear();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.capacity(), capacity);
  for (const Address& key : keys) EXPECT_FALSE(table.contains(key));
  for (const Address& key : keys) EXPECT_TRUE(table.try_emplace(key).second);
  EXPECT_EQ(table.capacity(), capacity);
}

}  // namespace
}  // namespace srbb
