// Message tags: every shipped wire message type carries its own MsgKind, and
// msg_cast<T> accepts exactly the messages of type T.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <tuple>
#include <vector>

#include "chains/gossip_chain.hpp"
#include "consensus/messages.hpp"
#include "sim/network.hpp"
#include "srbb/messages.hpp"

namespace srbb {
namespace {

using ShippedMessages =
    std::tuple<consensus::ProposeMsg, consensus::EchoMsg, consensus::PullMsg,
               consensus::BinMsg, consensus::DecidedMsg, node::ClientTxMsg,
               node::GossipTxMsg, node::CommitAckMsg, node::SyncRequestMsg,
               node::SyncResponseMsg, chains::GossipBlockMsg>;
constexpr std::size_t kShipped = std::tuple_size_v<ShippedMessages>;

/// A payload defined outside the shipped set, like a test's or bench's own.
struct LocalMsg final : sim::Message {
  std::size_t size_bytes() const override { return 1; }
  const char* type() const override { return "local"; }
};

/// One default-constructed instance of every shipped type, in tuple order.
std::vector<sim::MessagePtr> one_of_each() {
  return std::apply(
      [](auto... message) {
        return std::vector<sim::MessagePtr>{
            std::make_shared<decltype(message)>()...};
      },
      ShippedMessages{});
}

/// Apply `check` to a null pointer of each shipped type with its index.
template <typename Fn>
void for_each_type(Fn check) {
  [&]<std::size_t... I>(std::index_sequence<I...>) {
    (check(static_cast<std::tuple_element_t<I, ShippedMessages>*>(nullptr), I),
     ...);
  }(std::make_index_sequence<kShipped>{});
}

TEST(MessageKinds, EveryShippedTypeHasItsOwnKind) {
  std::set<sim::MsgKind> kinds;
  for_each_type([&](auto* type, std::size_t) {
    using T = std::remove_pointer_t<decltype(type)>;
    EXPECT_NE(T::kKind, sim::MsgKind::kOther);
    kinds.insert(T::kKind);
  });
  EXPECT_EQ(kinds.size(), kShipped);

  const std::vector<sim::MessagePtr> messages = one_of_each();
  for_each_type([&](auto* type, std::size_t i) {
    using T = std::remove_pointer_t<decltype(type)>;
    EXPECT_EQ(messages[i]->kind, T::kKind) << messages[i]->type();
  });
  EXPECT_EQ(LocalMsg{}.kind, sim::MsgKind::kOther);
}

TEST(MessageKinds, MsgCastAcceptsOnlyItsOwnType) {
  const std::vector<sim::MessagePtr> messages = one_of_each();
  const sim::MessagePtr local = std::make_shared<LocalMsg>();
  for_each_type([&](auto* type, std::size_t want) {
    using T = std::remove_pointer_t<decltype(type)>;
    for (std::size_t i = 0; i < messages.size(); ++i) {
      const T* cast = sim::msg_cast<T>(messages[i]);
      if (i == want) {
        EXPECT_EQ(cast, messages[i].get()) << messages[i]->type();
      } else {
        EXPECT_EQ(cast, nullptr)
            << messages[i]->type() << " cast to kind "
            << static_cast<int>(T::kKind);
      }
    }
    EXPECT_EQ(sim::msg_cast<T>(local), nullptr);
    EXPECT_EQ(sim::msg_cast<T>(sim::MessagePtr{}), nullptr);
  });
}

}  // namespace
}  // namespace srbb
